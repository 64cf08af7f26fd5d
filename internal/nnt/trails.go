package nnt

import (
	"fmt"

	"nntstream/internal/graph"
)

// Trails maintains the Observer event stream of a Forest without building
// any tree. A node of NNT(r) at depth k is one trail (a walk with no
// repeated edge) of length k from r, and its tree edge is the trail's last
// edge. Inserting edge e therefore adds exactly the trails of length ≤ l
// through e, and deleting e removes exactly those. Each such trail crosses e
// once, so it splits uniquely into a trail from its root r to one endpoint x
// of e that avoids e, the step x→y over e, and a continuation from y over
// edges not yet used. Trails enumerates the trails through a changed edge in
// that form, firing one TreeEdgeAdded (or TreeEdgeRemoved) per trail, which
// is the same multiset of events the Forest fires as it grows (or cuts)
// subtrees. The work per operation is bounded by the changed edge's
// depth-l neighborhood, and nothing is allocated per operation.
//
// Trails owns its graph copy; drive it exclusively through Apply or
// ApplySet, like a Forest.
type Trails struct {
	g     *graph.Graph
	depth int
	obs   []Observer
	// used[:n] is the edge stack of the trail under construction: the
	// changed edge, the backward prefix, then the forward continuation. A
	// trail holds at most depth edges, so the stack is sized once and
	// membership is a short linear scan.
	used []graph.Edge
	n    int
	// The crossing of the changed edge currently being enumerated: from an
	// endpoint labeled lx to y over an edge labeled el, with add selecting
	// the event kind.
	y          graph.VertexID
	lx, ly, el graph.Label
	add        bool
}

// NewTrails builds the maintainer for an initial graph, firing the events a
// Forest fires at construction: TreeAdded for every vertex, then one
// TreeEdgeAdded per trail of length ≤ depth from every vertex. The graph is
// cloned; subsequent evolution goes through Apply.
func NewTrails(g *graph.Graph, depth int, obs ...Observer) *Trails {
	if depth < 1 {
		panic(fmt.Sprintf("nnt: depth must be ≥ 1, got %d", depth))
	}
	t := &Trails{
		g:     g.Clone(),
		depth: depth,
		obs:   obs,
		used:  make([]graph.Edge, depth),
		add:   true,
	}
	t.g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		for _, o := range t.obs {
			o.TreeAdded(v, l)
		}
		return true
	})
	t.g.Vertices(func(v graph.VertexID, l graph.Label) bool {
		t.extend(v, v, l, 0)
		return true
	})
	return t
}

// Depth returns the depth bound l.
func (t *Trails) Depth() int { return t.depth }

// Graph returns the current graph. Callers must not mutate it.
func (t *Trails) Graph() *graph.Graph { return t.g }

// Apply advances the maintainer by one change operation. Vertex arrival and
// retirement, idempotent re-inserts and deletes, and relabel errors follow
// Forest.Apply exactly, so both fire the same events for any operation.
func (t *Trails) Apply(op graph.ChangeOp) error {
	switch op.Kind {
	case graph.OpInsert:
		if l, ok := t.g.VertexLabel(op.U); ok && l != op.ULabel {
			return fmt.Errorf("nnt: vertex %d relabel %d→%d not supported", op.U, l, op.ULabel)
		}
		if l, ok := t.g.VertexLabel(op.V); ok && l != op.VLabel {
			return fmt.Errorf("nnt: vertex %d relabel %d→%d not supported", op.V, l, op.VLabel)
		}
		if err := t.addVertex(op.U, op.ULabel); err != nil {
			return err
		}
		if err := t.addVertex(op.V, op.VLabel); err != nil {
			return err
		}
		if t.g.HasEdge(op.U, op.V) {
			return nil // idempotent re-insert
		}
		if err := t.g.AddEdge(op.U, op.V, op.EdgeLabel); err != nil {
			return err
		}
		t.through(op.U, op.V, op.EdgeLabel, true)
		return nil
	case graph.OpDelete:
		el, ok := t.g.EdgeLabel(op.U, op.V)
		if !ok {
			return nil
		}
		t.through(op.U, op.V, el, false) // on the pre-delete graph
		t.g.RemoveEdge(op.U, op.V)
		for _, v := range [2]graph.VertexID{op.U, op.V} {
			if t.g.HasVertex(v) && t.g.Degree(v) == 0 {
				t.g.RemoveVertex(v)
				for _, o := range t.obs {
					o.TreeRemoved(v)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("nnt: unknown op kind %d", op.Kind)
	}
}

// addVertex adds v with label l, announcing its single-node tree, unless v
// is already present.
func (t *Trails) addVertex(v graph.VertexID, l graph.Label) error {
	if t.g.HasVertex(v) {
		return nil
	}
	if err := t.g.AddVertex(v, l); err != nil {
		return err
	}
	for _, o := range t.obs {
		o.TreeAdded(v, l)
	}
	return nil
}

// ApplySet applies a full change set, deletions before insertions per the
// paper's processing order.
func (t *Trails) ApplySet(cs graph.ChangeSet) error {
	for _, op := range cs.Normalize() {
		if err := t.Apply(op); err != nil {
			return err
		}
	}
	return nil
}

// through fires one event per trail of length ≤ depth that crosses the
// graph edge {a,b}, which must be present: an insert runs it after adding
// the edge, a delete before removing it.
func (t *Trails) through(a, b graph.VertexID, el graph.Label, add bool) {
	la, _ := t.g.VertexLabel(a)
	lb, _ := t.g.VertexLabel(b)
	t.el, t.add = el, add
	t.used[0], t.n = graph.Edge{U: a, V: b}.Canonical(), 1
	t.lx, t.y, t.ly = la, b, lb
	t.back(a, 0)
	t.lx, t.y, t.ly = lb, a, la
	t.back(b, 0)
	t.n, t.add = 0, true
}

// back visits root w, the far end of a backward trail of length i from the
// crossing's start that avoids every edge on the used stack. The trail from
// w over the crossing to y has length i+1 and is one new node of NNT(w);
// its continuations from y are the rest. Then the backward trail grows by
// one edge, while the crossing still fits within the depth bound.
//
//nnt:hotpath
func (t *Trails) back(w graph.VertexID, i int) {
	t.emit(w, i+1, t.lx, t.el, t.ly)
	if i+1 >= t.depth {
		return
	}
	t.extend(w, t.y, t.ly, i+1)
	adj := t.g.Adjacency(w)
	for k := range adj {
		u, _, _ := adj.At(k)
		e := graph.Edge{U: w, V: u}.Canonical()
		if t.uses(e) {
			continue
		}
		t.push(e)
		t.back(u, i+1)
		t.n--
	}
}

// extend fires one event per continuation of a trail of the given length
// from root that currently ends at v (labeled vl): every edge of v not yet
// on the trail, recursively, up to the depth bound.
//
//nnt:hotpath
func (t *Trails) extend(root, v graph.VertexID, vl graph.Label, level int) {
	if level >= t.depth {
		return
	}
	adj := t.g.Adjacency(v)
	for k := range adj {
		u, el, ul := adj.At(k)
		e := graph.Edge{U: v, V: u}.Canonical()
		if t.uses(e) {
			continue
		}
		t.emit(root, level+1, vl, el, ul)
		if level+1 < t.depth {
			t.push(e)
			t.extend(root, u, ul, level+1)
			t.n--
		}
	}
}

// push puts canonical edge e on the used stack.
//
//nnt:hotpath
func (t *Trails) push(e graph.Edge) {
	t.used[t.n] = e
	t.n++
}

// uses reports whether canonical edge e is on the used stack.
//
//nnt:hotpath
func (t *Trails) uses(e graph.Edge) bool {
	for _, f := range t.used[:t.n] {
		if f.U == e.U && f.V == e.V {
			return true
		}
	}
	return false
}

// emit fires the tree-edge event of the crossing's kind at every observer.
//
//nnt:hotpath
func (t *Trails) emit(root graph.VertexID, level int, pl, el, cl graph.Label) {
	for _, o := range t.obs {
		if t.add {
			//lint:ignore hotalloc the observer owns its own cost; npv.Space's only flagged site is Vector.Add's panic message for a negative count, which only a maintenance bug reaches
			o.TreeEdgeAdded(root, level, pl, el, cl)
		} else {
			//lint:ignore hotalloc the observer owns its own cost; npv.Space's only flagged site is Vector.Add's panic message for a negative count, which only a maintenance bug reaches
			o.TreeEdgeRemoved(root, level, pl, el, cl)
		}
	}
}
