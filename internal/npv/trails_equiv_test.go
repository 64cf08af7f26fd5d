package npv

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nntstream/internal/graph"
	"nntstream/internal/nnt"
)

// trailsVsForest drives an nnt.Trails and an nnt.Forest over the same
// graph, each observed by its own packing Space, so every seal can be
// compared: the tree-free maintainer must fire the same multiset of events
// as the forest.
type trailsVsForest struct {
	forest *nnt.Forest
	trails *nnt.Trails
	fs, ts *Space
}

func newTrailsVsForest(g *graph.Graph, depth int) *trailsVsForest {
	p := &trailsVsForest{fs: NewSpace(), ts: NewSpace()}
	p.fs.EnablePacking()
	p.ts.EnablePacking()
	p.forest = nnt.NewForest(g, depth, p.fs)
	p.trails = nnt.NewTrails(g, depth, p.ts)
	return p
}

// applySet applies cs to both sides, requiring the same error (or none).
func (p *trailsVsForest) applySet(t testing.TB, cs graph.ChangeSet) {
	t.Helper()
	ferr := p.forest.ApplySet(cs)
	terr := p.trails.ApplySet(cs)
	if fmt.Sprint(ferr) != fmt.Sprint(terr) {
		t.Fatalf("apply %v: forest error %v, trails error %v", cs, ferr, terr)
	}
}

// check seals both spaces and requires identical dirty sets, deltas,
// graphs, and node counts, with the running count equal to the forest's
// walked total.
func (p *trailsVsForest) check(t testing.TB, step string) {
	t.Helper()
	fd, td := p.fs.SealDirty(), p.ts.SealDirty()
	if fv, tv := deltaVertices(fd), deltaVertices(td); !reflect.DeepEqual(fv, tv) {
		t.Fatalf("%s: dirty sets differ: forest %v, trails %v", step, fv, tv)
	}
	if !reflect.DeepEqual(fd, td) {
		for i := range fd {
			if !reflect.DeepEqual(fd[i], td[i]) {
				t.Fatalf("%s: vertex %d: forest delta %+v, trails delta %+v", step, fd[i].Vertex, fd[i], td[i])
			}
		}
	}
	if !p.forest.Graph().Equal(p.trails.Graph()) {
		t.Fatalf("%s: graphs differ:\nforest %v\ntrails %v", step, p.forest.Graph(), p.trails.Graph())
	}
	want := p.forest.TotalNodes()
	if got := p.ts.TreeNodes(); got != want {
		t.Fatalf("%s: trails space counts %d nodes; forest has %d", step, got, want)
	}
	if got := p.fs.TreeNodes(); got != want {
		t.Fatalf("%s: forest space counts %d nodes; forest has %d", step, got, want)
	}
}

func deltaVertices(ds []DirtyDelta) []graph.VertexID {
	out := make([]graph.VertexID, len(ds))
	for i, d := range ds {
		out[i] = d.Vertex
	}
	return out
}

// trailScript decodes a byte string into an initial graph and a sequence of
// change sets over a small vertex range, so the graphs stay dense enough
// for long trails. Vertex v is labeled v%3, except that one op in sixteen
// names a wrong label to exercise the relabel error. Deletions of absent
// edges, repeated inserts, self-loops, and vertex retirement and re-entry
// all arise from the small range on their own.
type trailScript struct {
	initial *graph.Graph
	sets    []graph.ChangeSet
}

const scriptVertices = 9

func decodeTrailScript(data []byte) trailScript {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	label := func(v graph.VertexID) graph.Label { return graph.Label(v % 3) }
	s := trailScript{initial: graph.New()}
	// Header: isolated vertices, then initial edges.
	if b, ok := next(); ok {
		for v := graph.VertexID(0); v < scriptVertices; v++ {
			if b&(1<<(v%8)) != 0 {
				_ = s.initial.AddVertex(v+scriptVertices, label(v))
			}
		}
	}
	if n, ok := next(); ok {
		for i := 0; i < int(n%16); i++ {
			a, ok1 := next()
			b, ok2 := next()
			if !ok1 || !ok2 {
				break
			}
			u, v := graph.VertexID(a%scriptVertices), graph.VertexID(b%scriptVertices)
			_ = graph.InsertOp(u, label(u), v, label(v), graph.Label(a>>7)).Apply(s.initial)
		}
	}
	for {
		size, ok := next()
		if !ok {
			return s
		}
		var cs graph.ChangeSet
		for i := 0; i < 1+int(size%4); i++ {
			k, ok0 := next()
			a, ok1 := next()
			b, ok2 := next()
			if !ok0 || !ok1 || !ok2 {
				break
			}
			u, v := graph.VertexID(a%scriptVertices), graph.VertexID(b%scriptVertices)
			if k&1 == 1 {
				cs = append(cs, graph.DeleteOp(u, v))
				continue
			}
			ul := label(u)
			if k&0x1e == 0 {
				ul++ // relabel attempt: rejected when u exists
			}
			cs = append(cs, graph.InsertOp(u, ul, v, label(v), graph.Label(k>>7)))
		}
		s.sets = append(s.sets, cs)
	}
}

func runTrailsVsForest(t testing.TB, depth int, data []byte) {
	t.Helper()
	s := decodeTrailScript(data)
	p := newTrailsVsForest(s.initial, depth)
	p.check(t, "initial build")
	for i, cs := range s.sets {
		p.applySet(t, cs)
		p.check(t, fmt.Sprintf("step %d %v", i, cs))
	}
}

// TestTrailsMatchForest is the randomized equivalence gate of the
// tree-free maintainer: at depths 1-4, over random initial graphs and
// random churn, Trails+Space and Forest+Space seal the same deltas and
// dirty sets at every step.
func TestTrailsMatchForest(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for depth := 1; depth <= 4; depth++ {
		for trial := 0; trial < 40; trial++ {
			data := make([]byte, 2+r.Intn(30)+r.Intn(400))
			r.Read(data)
			t.Run(fmt.Sprintf("L%d/%d", depth, trial), func(t *testing.T) {
				runTrailsVsForest(t, depth, data)
			})
		}
	}
}

// TestTrailsMatchForestScenarios pins the cases the random churn reaches
// only by chance: retiring a vertex and re-adding it in the same set,
// duplicate inserts and deletes, and a relabel rejected mid-set.
func TestTrailsMatchForestScenarios(t *testing.T) {
	tri := graph.New()
	for _, op := range []graph.ChangeOp{
		graph.InsertOp(0, 0, 1, 1, 0), graph.InsertOp(1, 1, 2, 2, 0), graph.InsertOp(2, 2, 0, 0, 1),
	} {
		if err := op.Apply(tri); err != nil {
			t.Fatal(err)
		}
	}
	for depth := 1; depth <= 4; depth++ {
		p := newTrailsVsForest(tri, depth)
		p.check(t, "initial")
		for i, cs := range []graph.ChangeSet{
			// Retire 3's only edge and bring 3 back over another.
			{graph.InsertOp(2, 2, 3, 0, 0)},
			{graph.DeleteOp(2, 3), graph.InsertOp(3, 0, 1, 1, 1)},
			// Duplicates: the second of each is a no-op.
			{graph.InsertOp(0, 0, 3, 0, 0), graph.InsertOp(3, 0, 0, 0, 0)},
			{graph.DeleteOp(0, 3), graph.DeleteOp(3, 0), graph.DeleteOp(0, 2)},
			// A rejected relabel after an accepted insert.
			{graph.InsertOp(4, 1, 0, 0, 0), graph.InsertOp(1, 2, 4, 1, 0)},
			// Retire everything.
			{graph.DeleteOp(0, 1), graph.DeleteOp(1, 2), graph.DeleteOp(1, 3), graph.DeleteOp(0, 4)},
		} {
			p.applySet(t, cs)
			p.check(t, fmt.Sprintf("L%d step %d", depth, i))
		}
		if p.trails.Graph().VertexCount() != 0 || p.ts.Len() != 0 || p.ts.TreeNodes() != 0 {
			t.Fatalf("L%d: %d vertices, %d vectors, %d nodes left", depth,
				p.trails.Graph().VertexCount(), p.ts.Len(), p.ts.TreeNodes())
		}
	}
}

// TestTreeNodesTracksForestUnderChurn holds Space.TreeNodes, the O(1)
// gauge behind nntstream_filter_nnt_nodes, to Forest.TotalNodes over a
// long insert/delete churn at the production depth.
func TestTreeNodesTracksForestUnderChurn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSpace()
	f := nnt.NewForest(graph.New(), 3, s)
	for step := 0; step < 2000; step++ {
		u, v := graph.VertexID(r.Intn(12)), graph.VertexID(r.Intn(12))
		op := graph.DeleteOp(u, v)
		if r.Intn(5) < 3 && u != v {
			op = graph.InsertOp(u, graph.Label(u%4), v, graph.Label(v%4), graph.Label(r.Intn(2)))
		}
		if err := f.Apply(op); err != nil {
			t.Fatal(err)
		}
		if got, want := s.TreeNodes(), f.TotalNodes(); got != want {
			t.Fatalf("step %d (%v): TreeNodes %d, TotalNodes %d", step, op, got, want)
		}
	}
}

// FuzzTrailsVsForest extends TestTrailsMatchForest to arbitrary scripts.
func FuzzTrailsVsForest(f *testing.F) {
	f.Add(uint8(3), []byte{0x0f, 5, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 3, 1, 0, 1, 2, 0, 3, 4})
	f.Add(uint8(4), []byte{0xff, 8, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2, 0, 4, 1, 3, 0, 1, 1, 2})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, depth uint8, data []byte) {
		runTrailsVsForest(t, 1+int(depth%4), data)
	})
}
