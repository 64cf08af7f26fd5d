package npv

import (
	"sort"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// Space holds the node-projected vectors of every vertex of one graph. It
// implements nnt.Observer, so attaching a Space to an nnt.Trails (or a
// Forest) at construction time keeps the vectors synchronized with the
// trees at zero extra traversal cost (Procedure TreeProjection runs
// implicitly, one increment per tree edge event).
type Space struct {
	vectors map[graph.VertexID]Vector
	labels  map[graph.VertexID]graph.Label
	dirty   map[graph.VertexID]struct{}
	// Tree edge events cluster by root (a maintenance step expands or
	// destroys whole subtrees of one tree), so the last-touched root's
	// vector and dirty status are memoized to skip repeated map lookups.
	lastRoot  graph.VertexID
	lastVec   Vector
	lastValid bool
	// packed caches the frozen PackedVector of each vertex, nil until
	// EnablePacking. Entries are sealed per dirty vertex at each TakeDirty
	// — the timestamp boundary is the cache's invalidation epoch — so the
	// steady-state evaluation path reads packed vectors without ever
	// touching (or mutating) the incremental maps. Readers may therefore
	// run concurrently: between two TakeDirty calls the cache is immutable.
	packed map[graph.VertexID]PackedVector
	// epoch counts TakeDirty calls (seal generations), for observability
	// and tests.
	epoch uint64
	// nodes is the running count of tree nodes the observed events
	// describe: one root per vertex plus one node per tree edge.
	nodes int
}

var _ nnt.Observer = (*Space)(nil)

// NewSpace returns an empty space, ready to be passed to nnt.NewTrails or
// nnt.NewForest.
func NewSpace() *Space {
	return &Space{
		vectors: make(map[graph.VertexID]Vector),
		labels:  make(map[graph.VertexID]graph.Label),
		dirty:   make(map[graph.VertexID]struct{}),
	}
}

// TreeAdded implements nnt.Observer.
func (s *Space) TreeAdded(root graph.VertexID, rootLabel graph.Label) {
	vec := make(Vector)
	s.vectors[root] = vec
	s.labels[root] = rootLabel
	s.dirty[root] = struct{}{}
	s.lastRoot, s.lastVec, s.lastValid = root, vec, true
	s.nodes++
}

// TreeRemoved implements nnt.Observer.
func (s *Space) TreeRemoved(root graph.VertexID) {
	s.nodes--
	delete(s.vectors, root)
	delete(s.labels, root)
	s.dirty[root] = struct{}{}
	s.lastValid = false
}

// vecFor returns root's vector, marking it dirty, through the memo.
func (s *Space) vecFor(root graph.VertexID) Vector {
	if s.lastValid && s.lastRoot == root {
		return s.lastVec
	}
	vec := s.vectors[root]
	s.dirty[root] = struct{}{}
	s.lastRoot, s.lastVec, s.lastValid = root, vec, true
	return vec
}

// TreeEdgeAdded implements nnt.Observer.
func (s *Space) TreeEdgeAdded(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), 1)
	s.nodes++
}

// TreeEdgeRemoved implements nnt.Observer.
func (s *Space) TreeEdgeRemoved(root graph.VertexID, level int, pl, el, cl graph.Label) {
	s.vecFor(root).Add(NewDim(byte(level), pl, el, cl), -1)
	s.nodes--
}

// Vector returns the NPV of v, or nil when v is absent. Callers must not
// mutate the result.
func (s *Space) Vector(v graph.VertexID) Vector { return s.vectors[v] }

// EnablePacking turns on the packed-vector cache: from the next TakeDirty
// on, every dirty vertex's vector is sealed into PackedVector form at the
// timestamp boundary, and Packed/PackedVectors serve reads from the cache
// without map iteration. Filters whose evaluation runs on the packed kernel
// (NL, Skyline) enable it at stream registration; counter-based filters
// (DSC) skip it and pay nothing.
func (s *Space) EnablePacking() {
	if s.packed == nil {
		s.packed = make(map[graph.VertexID]PackedVector, len(s.vectors))
	}
}

// PackingEnabled reports whether the packed cache is active.
func (s *Space) PackingEnabled() bool { return s.packed != nil }

// Epoch reports the number of seal generations (TakeDirty calls).
func (s *Space) Epoch() uint64 { return s.epoch }

// Packed returns the packed NPV of v. In steady state (packing enabled, no
// pending dirt) this is a single cache lookup and never allocates. A vertex
// with pending dirt — or a space without packing enabled — is packed fresh
// from the live map so the result is always current; the cache itself is
// only written at TakeDirty, which keeps concurrent evaluation readers
// race-free.
func (s *Space) Packed(v graph.VertexID) (PackedVector, bool) {
	if len(s.dirty) != 0 {
		if _, dd := s.dirty[v]; dd {
			vec, ok := s.vectors[v]
			if !ok {
				return PackedVector{}, false
			}
			return Pack(vec), true
		}
	}
	if s.packed != nil {
		if p, ok := s.packed[v]; ok {
			return p, true
		}
	}
	vec, ok := s.vectors[v]
	if !ok {
		return PackedVector{}, false
	}
	return Pack(vec), true
}

// PackedVectors calls fn for every (vertex, packed vector) pair, like
// Vectors but through the packed cache. Iteration order is unspecified; fn
// returning false stops iteration.
func (s *Space) PackedVectors(fn func(v graph.VertexID, p PackedVector) bool) {
	for v := range s.vectors {
		p, _ := s.Packed(v)
		if !fn(v, p) {
			return
		}
	}
}

// RootLabel returns the vertex label of v as last observed.
func (s *Space) RootLabel(v graph.VertexID) (graph.Label, bool) {
	l, ok := s.labels[v]
	return l, ok
}

// TreeNodes reports the number of NNT nodes the observed events describe:
// the vertices plus the tree edges, which is Forest.TotalNodes of the
// structure being observed. It is a running total, so reading it is O(1).
func (s *Space) TreeNodes() int { return s.nodes }

// Len reports the number of vectors (vertices) in the space.
func (s *Space) Len() int { return len(s.vectors) }

// Vectors calls fn for every (vertex, vector) pair. Iteration order is
// unspecified; fn returning false stops iteration.
func (s *Space) Vectors(fn func(v graph.VertexID, vec Vector) bool) {
	for v, vec := range s.vectors {
		if !fn(v, vec) {
			return
		}
	}
}

// HasDirty reports whether any vector changed (or was added or removed)
// since the last TakeDirty, without consuming the dirty set. Batch join
// evaluation uses it to enumerate the streams whose (stream, query) pairs
// need re-evaluation before fanning work out to a pool, and the filters'
// no-op fast path uses it to skip evaluation without allocating.
func (s *Space) HasDirty() bool { return len(s.dirty) > 0 }

// TakeDirty returns the vertices whose vectors changed (or were added or
// removed) since the previous call, and resets the dirty set. Join
// strategies use this to touch only changed vertices per timestamp.
//
// TakeDirty is also the packed cache's seal point: with packing enabled,
// exactly the dirty vertices are re-frozen (or evicted, when retired), so
// the cache stays consistent at O(dirty) per timestamp and is immutable
// between calls. The dirty map itself is retained and cleared rather than
// reallocated — it is touched every timestamp, and churning a fresh map per
// call showed up as steady-state garbage (see BenchmarkSpaceTakeDirty).
func (s *Space) TakeDirty() []graph.VertexID {
	// Invalidate the event memo: it implies a standing dirty mark, which
	// this call clears.
	s.lastValid = false
	s.epoch++
	if len(s.dirty) == 0 {
		return nil
	}
	out := make([]graph.VertexID, 0, len(s.dirty))
	for v := range s.dirty {
		out = append(out, v)
	}
	clear(s.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if s.packed != nil {
		for _, v := range out {
			if vec, ok := s.vectors[v]; ok {
				s.packed[v] = Pack(vec)
			} else {
				delete(s.packed, v)
			}
		}
	}
	return out
}

// DirtyDelta is one vertex's transition across a seal boundary: the packed
// vector sealed at the previous TakeDirty/SealDirty (Old, when HadOld) and
// the packed vector sealed now (New, when HasNew). A vertex added since the
// last seal has HadOld false; a retired vertex has HasNew false; a vertex
// added and retired within the same timestamp has neither.
type DirtyDelta struct {
	Vertex graph.VertexID
	Old    PackedVector
	New    PackedVector
	HadOld bool
	HasNew bool
}

// Changed reports whether the transition is observable at all: a presence
// change, or a present-before-and-after vertex whose packed vector differs.
func (d DirtyDelta) Changed() bool {
	if d.HadOld != d.HasNew {
		return true
	}
	if !d.HadOld {
		return false
	}
	return !d.Old.Equal(d.New)
}

// SealDirty is TakeDirty for consumers that need the transition, not just
// the vertex set: it consumes the dirty set, reseals the packed cache, and
// returns one DirtyDelta per dirty vertex in ascending vertex order. Old is
// read from the cache before resealing, so it is exactly the value the
// previous seal exposed to evaluation — the pair (Old, New) is the precise
// input the query dominance index (internal/qindex) prunes candidates with.
//
// SealDirty requires EnablePacking: without the cache there is no sealed
// "before" value, and a caller that silently saw HadOld == false for a
// vertex that merely changed would under-report candidates.
func (s *Space) SealDirty() []DirtyDelta {
	if s.packed == nil {
		panic("npv: SealDirty requires EnablePacking")
	}
	s.lastValid = false
	s.epoch++
	if len(s.dirty) == 0 {
		return nil
	}
	out := make([]DirtyDelta, 0, len(s.dirty))
	for v := range s.dirty {
		out = append(out, DirtyDelta{Vertex: v})
	}
	clear(s.dirty)
	sort.Slice(out, func(i, j int) bool { return out[i].Vertex < out[j].Vertex })
	for i := range out {
		v := out[i].Vertex
		if p, ok := s.packed[v]; ok {
			out[i].Old, out[i].HadOld = p, true
		}
		if vec, ok := s.vectors[v]; ok {
			p := Pack(vec)
			out[i].New, out[i].HasNew = p, true
			s.packed[v] = p
		} else {
			delete(s.packed, v)
		}
	}
	return out
}

// ProjectTree computes the NPV of a single node-neighbor tree from scratch
// (Procedure TreeProjection, Figure 6). It is the reference implementation
// that the incremental Space is validated against, and the path used for
// static query graphs.
func ProjectTree(root *nnt.Node) Vector {
	v := make(Vector)
	var walk func(n *nnt.Node)
	walk = func(n *nnt.Node) {
		for _, c := range n.Children {
			v.Add(NewDim(byte(c.Depth), n.VLabel, c.EdgeLabel, c.VLabel), 1)
			walk(c)
		}
	}
	walk(root)
	return v
}

// ProjectForest computes all NPVs of a forest from scratch.
func ProjectForest(f *nnt.Forest) map[graph.VertexID]Vector {
	out := make(map[graph.VertexID]Vector)
	f.Roots(func(v graph.VertexID, root *nnt.Node) bool {
		out[v] = ProjectTree(root)
		return true
	})
	return out
}

// ProjectGraph is a convenience that builds the depth-l forest of g and
// returns its NPVs together with the vertex labels. It is the one-shot path
// for static graphs (queries are projected once at registration).
func ProjectGraph(g *graph.Graph, depth int) map[graph.VertexID]Vector {
	return ProjectForest(nnt.NewForest(g, depth))
}

// VectorsByVertex flattens a projection map into a slice in ascending vertex
// order. Map iteration order is randomized in Go; filters that keep their
// query vectors in a slice must build it through this helper so that probe
// order — and everything downstream of it, from skyline tie-breaks to
// candidate evaluation cost — is reproducible run to run.
func VectorsByVertex(m map[graph.VertexID]Vector) []Vector {
	ids := make([]graph.VertexID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vecs := make([]Vector, 0, len(ids))
	for _, id := range ids {
		vecs = append(vecs, m[id])
	}
	return vecs
}
