package join

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
)

// factorEquiv is one participant in the factored-vs-unfactored matrix.
type factorEquiv struct {
	name     string
	f        core.DynamicFilter
	par      core.BatchApplier
	factored bool
}

// factorEquivFilters builds the matrix the tentpole's exactness claim is
// tested on: NL, Skyline, and DSC, each with shared-factor evaluation on
// (aggressive thresholds so factors actually form at test scale) and off,
// sequential and through the parallel batch path.
func factorEquivFilters(depth int) []factorEquiv {
	batch := func(f core.ParallelFilter) core.BatchApplier {
		f.SetWorkers(4)
		return f.(core.BatchApplier)
	}
	mkNL := func(on bool) *NL {
		f := NewNL(depth)
		if on {
			f.SetFactorThresholds(2, 1)
		} else {
			f.DisableFactors()
		}
		return f
	}
	mkSky := func(on bool) *Skyline {
		f := NewSkyline(depth)
		if on {
			f.SetFactorThresholds(2, 1)
		} else {
			f.DisableFactors()
		}
		return f
	}
	mkDSC := func(on bool) *DSC {
		f := NewDSC(depth)
		if on {
			f.SetFactorThresholds(2, 1)
		} else {
			f.DisableFactors()
		}
		return f
	}
	nlPar, skyPar, dscPar := mkNL(true), mkSky(true), mkDSC(true)
	nlOffPar, skyOffPar, dscOffPar := mkNL(false), mkSky(false), mkDSC(false)
	return []factorEquiv{
		{name: "NL/factored/seq", f: mkNL(true), factored: true},
		{name: "NL/factored/par", f: nlPar, par: batch(nlPar), factored: true},
		{name: "NL/nofactor/seq", f: mkNL(false)},
		{name: "NL/nofactor/par", f: nlOffPar, par: batch(nlOffPar)},
		{name: "Skyline/factored/seq", f: mkSky(true), factored: true},
		{name: "Skyline/factored/par", f: skyPar, par: batch(skyPar), factored: true},
		{name: "Skyline/nofactor/seq", f: mkSky(false)},
		{name: "Skyline/nofactor/par", f: skyOffPar, par: batch(skyOffPar)},
		{name: "DSC/factored/seq", f: mkDSC(true), factored: true},
		{name: "DSC/factored/par", f: dscPar, par: batch(dscPar), factored: true},
		{name: "DSC/nofactor/seq", f: mkDSC(false)},
		{name: "DSC/nofactor/par", f: dscOffPar, par: batch(dscOffPar)},
	}
}

// factorCount reads a participant's factor table size (0 when disabled).
func factorCount(f core.DynamicFilter) int {
	switch ff := f.(type) {
	case *NL:
		if ff.ft != nil {
			return ff.ft.FactorCount()
		}
	case *Skyline:
		if ff.ft != nil {
			return ff.ft.FactorCount()
		}
	case *DSC:
		if ff.ft != nil {
			return ff.ft.FactorCount()
		}
	}
	return 0
}

// TestFactoredMatchesUnfactoredRandomized is the exactness contract of
// shared-factor evaluation at the filter level: with factoring on, NL,
// DSC, and Skyline — sequential and through ApplyAll — report candidate
// sets bit-identical to their unfactored twins and to a from-scratch map
// kernel recomputation, at every timestamp of a randomized multi-stream
// workload whose query set is template-derived (so factors genuinely
// form), with queries added and removed mid-stream (so the NL/Skyline
// tables reseal and DSC's pinned set sees late matches).
func TestFactoredMatchesUnfactoredRandomized(t *testing.T) {
	sawFactors := false
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(4400 + seed))
		depth := 1 + r.Intn(3)
		template := randomConnected(r, 10, 3, 2)
		var starts []*graph.Graph
		for i := 0; i < 3; i++ {
			starts = append(starts, randomConnected(r, 8+r.Intn(4), 3, 2))
		}
		starts = append(starts, template.Clone())

		filters := factorEquivFilters(depth)
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
		// Template-with-variations set: each pattern registered twice
		// (identical twins guarantee shared entries) plus perturbed
		// variants from the same template.
		for i := 0; i < 3; i++ {
			q := randomSub(r, template)
			addQuery(q)
			addQuery(q.Clone())
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
		for _, ef := range filters {
			if ef.factored && factorCount(ef.f) > 0 {
				sawFactors = true
			}
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

		for step := 0; step < 24; step++ {
			switch {
			case step%6 == 2:
				// Mid-stream registration: a fresh template subgraph half
				// the time (matches existing factors), live-state subgraph
				// otherwise.
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
	if !sawFactors {
		t.Fatal("no factored participant ever discovered a factor — the matrix tested nothing")
	}
}

// TestFactorChurnTeardown is the factor-table removal audit of the
// satellite: register → evaluate → remove → re-register must tear down and
// rebuild factor memberships, leaving no vector, decomposition, or member
// list behind — and the re-registered filter must answer exactly like a
// twin built fresh (packed-cache/SealDirty state included).
func TestFactorChurnTeardown(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	depth := 2
	template := randomConnected(r, 10, 3, 2)
	g0 := template.Clone()

	type factored interface {
		core.DynamicFilter
		SetFactorThresholds(minSupport, minDims int)
	}
	mks := map[string]func() factored{
		"NL":      func() factored { return NewNL(depth) },
		"DSC":     func() factored { return NewDSC(depth) },
		"Skyline": func() factored { return NewSkyline(depth) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			f := mk()
			f.SetFactorThresholds(2, 1)
			queries := make(map[core.QueryID]*graph.Graph)
			for i := 0; i < 4; i++ {
				q := randomSub(r, template)
				queries[core.QueryID(2*i)] = q
				queries[core.QueryID(2*i+1)] = q.Clone()
			}
			for id, q := range queries {
				if err := f.AddQuery(id, q); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.AddStream(0, g0); err != nil {
				t.Fatal(err)
			}

			// Stream a few timestamps so memos carry real verdicts.
			graphs := map[core.StreamID]*graph.Graph{0: g0.Clone()}
			for step := 0; step < 4; step++ {
				for sid, cs := range randomBatch(r, graphs) {
					if err := f.Apply(sid, cs); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Remove everything: the factor table must drain with the
			// queries.
			for id := range queries {
				if err := f.RemoveQuery(id); err != nil {
					t.Fatal(err)
				}
			}
			assertTornDown(t, f)

			// Re-register and compare against a twin built fresh at this
			// point — leaked factor state would diverge the candidates.
			twin := mk()
			twin.SetFactorThresholds(2, 1)
			for id, q := range queries {
				if err := f.AddQuery(id, q); err != nil {
					t.Fatal(err)
				}
				if err := twin.AddQuery(id, q); err != nil {
					t.Fatal(err)
				}
			}
			if err := twin.AddStream(0, graphs[0].Clone()); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 6; step++ {
				for sid, cs := range randomBatch(r, graphs) {
					if err := f.Apply(sid, cs); err != nil {
						t.Fatal(err)
					}
					if err := twin.Apply(sid, cs); err != nil {
						t.Fatal(err)
					}
				}
				got, want := f.Candidates(), twin.Candidates()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: veteran %v != fresh twin %v", step, got, want)
				}
			}
		})
	}
}
