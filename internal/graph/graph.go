// Package graph provides the labeled-graph substrate used throughout the
// repository: undirected vertex- and edge-labeled graphs, graph change
// operations, and graph streams as defined in Section II of Wang & Chen,
// "Continuous Subgraph Pattern Search over Graph Streams" (ICDE 2009).
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// VertexID identifies a vertex within one graph. IDs are arbitrary and need
// not be contiguous; streams may introduce and retire IDs over time.
type VertexID int32

// Label is an interned vertex or edge label. The Alphabet type maps labels
// to and from human-readable names.
type Label uint16

// Graph is an undirected graph with labeled vertices and labeled edges.
// At most one edge may connect a pair of vertices and self-loops are not
// permitted. The zero value is not usable; call New.
//
// Adjacency is stored as slices rather than nested maps: vertex degrees in
// this domain are small, so linear scans beat hashing on every hot path
// (NNT expansion iterates neighborhoods constantly), and iteration order is
// deterministic (insertion order), which keeps downstream runs reproducible.
type Graph struct {
	labels map[VertexID]Label
	adj    map[VertexID][]halfEdge
	edges  int
}

// halfEdge is one direction of an undirected edge. toLabel caches the far
// endpoint's vertex label, which fills the struct's padding: labels never
// change while an edge exists (relabeling is not a stream operation, and
// removing a vertex removes its edges), so the copy cannot go stale.
type halfEdge struct {
	to      VertexID
	label   Label
	toLabel Label
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		labels: make(map[VertexID]Label),
		adj:    make(map[VertexID][]halfEdge),
	}
}

// VertexCount reports the number of vertices.
func (g *Graph) VertexCount() int { return len(g.labels) }

// EdgeCount reports the number of (undirected) edges.
func (g *Graph) EdgeCount() int { return g.edges }

// HasVertex reports whether v exists in the graph.
func (g *Graph) HasVertex(v VertexID) bool {
	_, ok := g.labels[v]
	return ok
}

// VertexLabel returns the label of v. The second result is false when v is
// not present.
func (g *Graph) VertexLabel(v VertexID) (Label, bool) {
	l, ok := g.labels[v]
	return l, ok
}

// MustVertexLabel returns the label of v and panics when v is absent. It is
// intended for internal invariant-checked paths.
func (g *Graph) MustVertexLabel(v VertexID) Label {
	l, ok := g.labels[v]
	if !ok {
		panic(fmt.Sprintf("graph: vertex %d not present", v))
	}
	return l
}

// AddVertex inserts an isolated vertex with the given label. Adding an
// existing vertex with the same label is a no-op; with a different label it
// returns an error, since relabeling is not a stream operation in the paper's
// model.
func (g *Graph) AddVertex(v VertexID, l Label) error {
	if cur, ok := g.labels[v]; ok {
		if cur != l {
			return fmt.Errorf("graph: vertex %d already present with label %d (got %d)", v, cur, l)
		}
		return nil
	}
	g.labels[v] = l
	return nil
}

// RemoveVertex deletes v and all incident edges. Removing an absent vertex
// is a no-op.
func (g *Graph) RemoveVertex(v VertexID) {
	if _, ok := g.labels[v]; !ok {
		return
	}
	for _, he := range g.adj[v] {
		g.removeHalf(he.to, v)
		g.edges--
	}
	delete(g.adj, v)
	delete(g.labels, v)
}

// half returns the half-edge index of u→v, or -1.
func (g *Graph) half(u, v VertexID) int {
	for i, he := range g.adj[u] {
		if he.to == v {
			return i
		}
	}
	return -1
}

// removeHalf drops u→v, preserving the order of the remaining neighbors.
func (g *Graph) removeHalf(u, v VertexID) {
	list := g.adj[u]
	if i := g.half(u, v); i >= 0 {
		list = append(list[:i], list[i+1:]...)
		if len(list) == 0 {
			delete(g.adj, u)
		} else {
			g.adj[u] = list
		}
	}
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	return g.half(u, v) >= 0
}

// EdgeLabel returns the label of edge {u,v}. The second result is false when
// the edge is absent.
func (g *Graph) EdgeLabel(u, v VertexID) (Label, bool) {
	if i := g.half(u, v); i >= 0 {
		return g.adj[u][i].label, true
	}
	return 0, false
}

// AddEdge inserts the undirected edge {u,v} with the given label. Both
// endpoints must already exist. Re-adding an existing edge with the same
// label is a no-op; with a different label it is an error.
func (g *Graph) AddEdge(u, v VertexID, l Label) error {
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if !g.HasVertex(u) {
		return fmt.Errorf("graph: edge endpoint %d not present", u)
	}
	if !g.HasVertex(v) {
		return fmt.Errorf("graph: edge endpoint %d not present", v)
	}
	if i := g.half(u, v); i >= 0 {
		if cur := g.adj[u][i].label; cur != l {
			return fmt.Errorf("graph: edge {%d,%d} already present with label %d (got %d)", u, v, cur, l)
		}
		return nil
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, label: l, toLabel: g.labels[v]})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, label: l, toLabel: g.labels[u]})
	g.edges++
	return nil
}

// RemoveEdge deletes the undirected edge {u,v}. It reports whether an edge
// was actually removed.
func (g *Graph) RemoveEdge(u, v VertexID) bool {
	if g.half(u, v) < 0 {
		return false
	}
	g.removeHalf(u, v)
	g.removeHalf(v, u)
	g.edges--
	return true
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Neighbors calls fn for every neighbor of v with the connecting edge
// label, in insertion order. If fn returns false, iteration stops.
func (g *Graph) Neighbors(v VertexID, fn func(u VertexID, edgeLabel Label) bool) {
	for _, he := range g.adj[v] {
		if !fn(he.to, he.label) {
			return
		}
	}
}

// Neighborhood is a read-only view of one vertex's adjacency list in
// insertion order. It aliases the graph's storage, so it is valid only until
// the graph next changes. It lets recursive hot paths (trail enumeration in
// internal/nnt) walk neighbors by index without a callback per vertex.
type Neighborhood []halfEdge

// At returns the i-th neighbor, the label of the connecting edge, and the
// neighbor's vertex label.
func (n Neighborhood) At(i int) (u VertexID, edgeLabel, uLabel Label) {
	return n[i].to, n[i].label, n[i].toLabel
}

// Adjacency returns the neighborhood view of v; it is empty when v is
// absent or isolated.
func (g *Graph) Adjacency(v VertexID) Neighborhood { return g.adj[v] }

// NeighborsSorted returns the neighbors of v with edge labels in ascending
// vertex-ID order. It allocates; use Neighbors on hot paths.
func (g *Graph) NeighborsSorted(v VertexID) []Edge {
	out := make([]Edge, 0, len(g.adj[v]))
	for _, he := range g.adj[v] {
		out = append(out, Edge{U: v, V: he.to, Label: he.label})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

// Vertices calls fn for every vertex with its label. Iteration order is
// unspecified. If fn returns false, iteration stops.
func (g *Graph) Vertices(fn func(v VertexID, l Label) bool) {
	for v, l := range g.labels {
		if !fn(v, l) {
			return
		}
	}
}

// VertexIDs returns all vertex IDs in ascending order.
func (g *Graph) VertexIDs() []VertexID {
	out := make([]VertexID, 0, len(g.labels))
	for v := range g.labels {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edge is an undirected labeled edge. U and V are interchangeable except
// where a direction is given by context (for example a parent→child tree
// edge).
type Edge struct {
	U, V  VertexID
	Label Label
}

// Canonical returns the edge with U ≤ V, for use as a map key.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Edges returns all edges, each reported once with U < V, in ascending
// (U, V) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, nbrs := range g.adj {
		for _, he := range nbrs {
			if u < he.to {
				out = append(out, Edge{U: u, V: he.to, Label: he.label})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	c.edges = g.edges
	for v, l := range g.labels {
		c.labels[v] = l
	}
	for v, nbrs := range g.adj {
		c.adj[v] = append([]halfEdge(nil), nbrs...)
	}
	return c
}

// Equal reports whether g and h have identical vertex sets, labels, and
// labeled edges. It tests identity of the labeled structure, not isomorphism.
func (g *Graph) Equal(h *Graph) bool {
	if g.VertexCount() != h.VertexCount() || g.EdgeCount() != h.EdgeCount() {
		return false
	}
	for v, l := range g.labels {
		if hl, ok := h.labels[v]; !ok || hl != l {
			return false
		}
	}
	for u, nbrs := range g.adj {
		for _, he := range nbrs {
			if hl, ok := h.EdgeLabel(u, he.to); !ok || hl != he.label {
				return false
			}
		}
	}
	return true
}

// LabelHistogram returns the number of vertices carrying each vertex label.
func (g *Graph) LabelHistogram() map[Label]int {
	h := make(map[Label]int)
	for _, l := range g.labels {
		h[l]++
	}
	return h
}

// String renders a compact, deterministic description, useful in tests and
// error messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{|V|=%d |E|=%d", g.VertexCount(), g.EdgeCount())
	for _, v := range g.VertexIDs() {
		fmt.Fprintf(&b, " %d:%d", v, g.labels[v])
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, " (%d-%d:%d)", e.U, e.V, e.Label)
	}
	b.WriteString("}")
	return b.String()
}
