package join

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
)

// dynamicReference recomputes the Lemma 4.2 candidate set from scratch with
// the map kernel over a churning query set — mapKernelReference with
// removable query IDs. Ground truth for the indexed filters.
func dynamicReference(graphs map[core.StreamID]*graph.Graph, queries map[core.QueryID]*graph.Graph, depth int) []core.Pair {
	qvecs := make(map[core.QueryID][]npv.Vector, len(queries))
	for qid, q := range queries {
		qvecs[qid] = npv.VectorsByVertex(npv.ProjectGraph(q, depth))
	}
	var out []core.Pair
	for sid, g := range graphs {
		gv := npv.VectorsByVertex(npv.ProjectGraph(g, depth))
		for qid := range queries {
			ok := true
			for _, u := range qvecs[qid] {
				found := false
				for _, v := range gv {
					if v.Dominates(u) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}

// equivFilter is one harness participant: a dynamic filter plus, when par
// is non-nil, the batch path it is driven through instead of Apply.
type equivFilter struct {
	name string
	f    core.DynamicFilter
	par  core.BatchApplier
}

// qindexEquivFilters builds the matrix: NL, Skyline, and DSC (whose index
// is its column store — the incremental counters are its only path), each
// driven stream by stream through Apply and as whole batches through a
// four-worker ApplyAll.
func qindexEquivFilters(depth int) []equivFilter {
	batch := func(f core.ParallelFilter) core.BatchApplier {
		f.SetWorkers(4)
		return f.(core.BatchApplier)
	}
	nlPar, skyPar, dscPar := NewNL(depth), NewSkyline(depth), NewDSC(depth)
	return []equivFilter{
		{name: "NL/seq", f: NewNL(depth)},
		{name: "NL/par", f: nlPar, par: batch(nlPar)},
		{name: "Skyline/seq", f: NewSkyline(depth)},
		{name: "Skyline/par", f: skyPar, par: batch(skyPar)},
		{name: "DSC/seq", f: NewDSC(depth)},
		{name: "DSC/par", f: dscPar, par: batch(dscPar)},
	}
}

// TestIndexedMatchesReferenceRandomized is the exactness contract of the
// query dominance index at the filter level: with candidate generation on,
// NL, DSC, and Skyline — stream by stream and through ApplyAll — report
// candidate sets bit-identical to a from-scratch map kernel recomputation,
// at every timestamp of a randomized multi-stream workload with queries
// added and removed mid-stream.
func TestIndexedMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(1700 + seed))
		depth := 1 + r.Intn(3)
		template := randomConnected(r, 10, 3, 2)
		var starts []*graph.Graph
		for i := 0; i < 3; i++ {
			starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
		}
		starts = append(starts, template.Clone())

		filters := qindexEquivFilters(depth)
		live := make(map[core.QueryID]*graph.Graph)
		nextQ := core.QueryID(0)
		addQuery := func(q *graph.Graph) {
			id := nextQ
			nextQ++
			for _, ef := range filters {
				if err := ef.f.AddQuery(id, q); err != nil {
					t.Fatalf("seed=%d: %s add query %d: %v", seed, ef.name, id, err)
				}
			}
			live[id] = q
		}
		for i := 0; i < 3; i++ {
			addQuery(randomSub(r, template))
		}
		for _, ef := range filters {
			for sid, g := range starts {
				if err := ef.f.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
		}
		graphs := make(map[core.StreamID]*graph.Graph)
		for sid, g := range starts {
			graphs[core.StreamID(sid)] = g.Clone()
		}

		check := func(step int) {
			want := dynamicReference(graphs, live, depth)
			for _, ef := range filters {
				if got := ef.f.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed=%d step=%d: %s candidates %v != reference %v",
						seed, step, ef.name, got, want)
				}
			}
		}
		check(-1)

		for step := 0; step < 20; step++ {
			switch {
			case step%6 == 2:
				// Register a fresh query mid-stream; subgraphs of live state
				// half the time so real matches occur.
				var q *graph.Graph
				if r.Intn(2) == 0 {
					q = randomSub(r, template)
				} else {
					q = randomSub(r, graphs[core.StreamID(r.Intn(len(starts)))])
				}
				if q.VertexCount() > 0 {
					addQuery(q)
				}
			case step%8 == 5 && len(live) > 1:
				// Remove a deterministic pick from the live set.
				ids := make([]core.QueryID, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				victim := ids[r.Intn(len(ids))]
				for _, ef := range filters {
					if err := ef.f.RemoveQuery(victim); err != nil {
						t.Fatalf("seed=%d step=%d: %s remove query %d: %v",
							seed, step, ef.name, victim, err)
					}
				}
				delete(live, victim)
			default:
				batch := randomBatch(r, graphs)
				for _, ef := range filters {
					if ef.par != nil {
						if err := ef.par.ApplyAll(batch); err != nil {
							t.Fatalf("seed=%d step=%d: %s batch apply: %v", seed, step, ef.name, err)
						}
						continue
					}
					for _, sid := range sortedKeys(batch) {
						if err := ef.f.Apply(sid, batch[sid]); err != nil {
							t.Fatalf("seed=%d step=%d: %s apply: %v", seed, step, ef.name, err)
						}
					}
				}
			}
			check(step)
		}
	}
}

// assertTornDown checks a strategy's derived query state is empty after
// every query was removed: index postings, packed query vectors, DSC's
// counter columns — nothing may leak and nothing may keep answering.
func assertTornDown(t *testing.T, f core.DynamicFilter) {
	t.Helper()
	switch ff := f.(type) {
	case *NL:
		if n := ff.ix.PostingCount(); n != 0 {
			t.Fatalf("NL: %d index postings leaked", n)
		}
		if ff.ix.QueryCount() != 0 || len(ff.queries) != 0 || len(ff.fq) != 0 {
			t.Fatalf("NL: query state leaked: index=%d packed=%d factored=%d",
				ff.ix.QueryCount(), len(ff.queries), len(ff.fq))
		}
		if ff.ft != nil && ff.ft.VectorCount() != 0 {
			t.Fatalf("NL: %d factor-table vectors leaked", ff.ft.VectorCount())
		}
		for sid, m := range ff.verdict {
			if len(m) != 0 {
				t.Fatalf("NL stream %d: %d stale verdicts", sid, len(m))
			}
		}
	case *DSC:
		if n := ff.ix.PostingCount(); n != 0 {
			t.Fatalf("DSC: %d column postings leaked", n)
		}
		if len(ff.nnz) != 0 || len(ff.fdec) != 0 || len(ff.qsize) != 0 || len(ff.pending) != 0 {
			t.Fatalf("DSC: query maps leaked: nnz=%d fdec=%d qsize=%d pending=%d",
				len(ff.nnz), len(ff.fdec), len(ff.qsize), len(ff.pending))
		}
		if len(ff.fmembers) != 0 {
			t.Fatalf("DSC: %d factor membership lists leaked", len(ff.fmembers))
		}
		if ff.ft != nil && ff.ft.VectorCount() != 0 {
			t.Fatalf("DSC: %d factor-table vectors leaked", ff.ft.VectorCount())
		}
		for sid, ds := range ff.streams {
			if len(ds.pos) != 0 || len(ds.dom) != 0 || len(ds.cover) != 0 || len(ds.covered) != 0 {
				t.Fatalf("DSC stream %d: counters leaked: pos=%d dom=%d cover=%d covered=%d",
					sid, len(ds.pos), len(ds.dom), len(ds.cover), len(ds.covered))
			}
		}
	case *Skyline:
		if n := ff.ix.PostingCount(); n != 0 {
			t.Fatalf("Skyline: %d index postings leaked", n)
		}
		if ff.ix.QueryCount() != 0 || len(ff.queries) != 0 || len(ff.fq) != 0 {
			t.Fatalf("Skyline: query state leaked: index=%d maximal=%d factored=%d",
				ff.ix.QueryCount(), len(ff.queries), len(ff.fq))
		}
		if ff.ft != nil && ff.ft.VectorCount() != 0 {
			t.Fatalf("Skyline: %d factor-table vectors leaked", ff.ft.VectorCount())
		}
		for sid, m := range ff.verdict {
			if len(m) != 0 {
				t.Fatalf("Skyline stream %d: %d stale verdicts", sid, len(m))
			}
		}
	default:
		t.Fatalf("unknown filter type %T", f)
	}
}

// TestRemoveReRegisterEquivalence is the removal audit: register queries,
// stream, remove every query (checking all derived state is torn down),
// re-register the same patterns under the same IDs, and keep streaming —
// the filter must behave exactly like a twin built fresh at the
// re-registration point. A leaked posting, counter column, or stale
// verdict shows up as a candidate-set divergence.
func TestRemoveReRegisterEquivalence(t *testing.T) {
	for name, mk := range parallelStrategies(2) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(311))
			template := randomConnected(r, 10, 3, 2)
			var queries []*graph.Graph
			for i := 0; i < 4; i++ {
				queries = append(queries, randomSub(r, template))
			}
			var starts []*graph.Graph
			for i := 0; i < 3; i++ {
				starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
			}
			starts = append(starts, template.Clone())

			veteran := mk().(core.DynamicFilter)
			for qid, q := range queries {
				if err := veteran.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
			}
			for sid, g := range starts {
				if err := veteran.AddStream(core.StreamID(sid), g); err != nil {
					t.Fatal(err)
				}
			}
			graphs := make(map[core.StreamID]*graph.Graph)
			for sid, g := range starts {
				graphs[core.StreamID(sid)] = g.Clone()
			}
			for step := 0; step < 10; step++ {
				batch := randomBatch(r, graphs)
				for _, sid := range sortedKeys(batch) {
					if err := veteran.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Tear every query down and audit the derived state.
			for qid := range queries {
				if err := veteran.RemoveQuery(core.QueryID(qid)); err != nil {
					t.Fatal(err)
				}
			}
			if got := veteran.Candidates(); len(got) != 0 {
				t.Fatalf("candidates after removing all queries: %v", got)
			}
			assertTornDown(t, veteran)

			// Re-register the same patterns under the same IDs and race a
			// twin built fresh from the current canonical graphs.
			fresh := mk().(core.DynamicFilter)
			for qid, q := range queries {
				if err := veteran.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
				if err := fresh.AddQuery(core.QueryID(qid), q); err != nil {
					t.Fatal(err)
				}
			}
			for sid := range starts {
				if err := fresh.AddStream(core.StreamID(sid), graphs[core.StreamID(sid)].Clone()); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := veteran.Candidates(), fresh.Candidates(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after re-register: veteran %v != fresh %v", got, want)
			}
			for step := 0; step < 10; step++ {
				batch := randomBatch(r, graphs)
				for _, sid := range sortedKeys(batch) {
					if err := veteran.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Apply(sid, batch[sid]); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := veteran.Candidates(), fresh.Candidates(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d after re-register: veteran %v != fresh %v", step, got, want)
				}
			}
		})
	}
}
