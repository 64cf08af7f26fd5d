package main

import (
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/join"
	"nntstream/internal/npv"
)

// referenceCandidates recomputes the Lemma 4.2 candidate set from scratch on
// the map kernel: (G, Q) is a candidate iff every query-vertex NPV is
// dominated by some vertex NPV of G. It shares no code with the filters
// beyond the NPV projection.
func referenceCandidates(graphs map[core.StreamID]*graph.Graph, queries map[core.QueryID]*graph.Graph, depth int) []core.Pair {
	qvecs := make(map[core.QueryID][]npv.Vector, len(queries))
	for id, q := range queries {
		qvecs[id] = npv.VectorsByVertex(npv.ProjectGraph(q, depth))
	}
	var out []core.Pair
	for sid, g := range graphs {
		gv := npv.VectorsByVertex(npv.ProjectGraph(g, depth))
		for qid, us := range qvecs {
			if dominatedAll(gv, us) {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}

func dominatedAll(gv, us []npv.Vector) bool {
	for _, u := range us {
		found := false
		for _, v := range gv {
			if v.Dominates(u) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// checkFinal is the correctness gate: the served candidates must equal the
// reference exactly and contain every exact (VF2) match.
func checkFinal(w *workload, got []core.Pair) error {
	graphs, err := w.finalGraphs()
	if err != nil {
		return err
	}
	want := referenceCandidates(graphs, w.queries, join.DefaultDepth)
	if d := diffPairs(got, want); d != "" {
		return fmt.Errorf("candidates differ from the map-kernel reference: %s", d)
	}
	have := make(map[core.Pair]bool, len(got))
	for _, p := range got {
		have[p] = true
	}
	for _, qid := range w.sortedQueryIDs() {
		m := iso.NewMatcher(w.queries[qid])
		for sid, g := range graphs {
			p := core.Pair{Stream: sid, Query: qid}
			if !have[p] && m.Contains(g) {
				return fmt.Errorf("exact match %v missing from the candidates", p)
			}
		}
	}
	return nil
}

// diffPairs describes how got differs from want ("" when equal). Both are
// sorted.
func diffPairs(got, want []core.Pair) string {
	in := func(ps []core.Pair) map[core.Pair]bool {
		m := make(map[core.Pair]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	g, w := in(got), in(want)
	var extra, missing []core.Pair
	for _, p := range got {
		if !w[p] {
			extra = append(extra, p)
		}
	}
	for _, p := range want {
		if !g[p] {
			missing = append(missing, p)
		}
	}
	if len(extra) == 0 && len(missing) == 0 && len(got) == len(want) {
		return ""
	}
	trim := func(ps []core.Pair) []core.Pair { return ps[:min(len(ps), 5)] }
	return fmt.Sprintf("%d served, %d expected; %d unexpected (first %v), %d missing (first %v)",
		len(got), len(want), len(extra), trim(extra), len(missing), trim(missing))
}
