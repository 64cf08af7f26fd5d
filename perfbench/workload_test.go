package main

import (
	"bytes"
	"testing"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/join"
	"nntstream/internal/server"
)

// testSeconds sizes the workloads in tests: the shapes of a full run at a
// fraction of its length.
const testSeconds = 1

func TestSameSeedSameRequests(t *testing.T) {
	for _, sp := range specs {
		a, err := buildWorkload(sp.name, 7, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(sp.name, 7, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.writerRequests(), b.writerRequests()
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d requests", sp.name, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].method != rb[i].method || ra[i].path != rb[i].path || !bytes.Equal(ra[i].body, rb[i].body) {
				t.Fatalf("%s: request %d differs between two builds of seed 7", sp.name, i)
			}
		}
		c, err := buildWorkload(sp.name, 8, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.setup[len(a.setup)-1].body, c.setup[len(c.setup)-1].body) &&
			bytes.Equal(a.setup[0].body, c.setup[0].body) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", sp.name)
		}
	}
}

// replayEngine applies a workload's writer requests, in order, to an
// in-process engine with the production filter, decoding the ingest bodies
// with the server's decoder, and reports every (stream, query) pair that was
// ever a candidate.
func replayEngine(t *testing.T, w *workload) map[core.Pair]bool {
	t.Helper()
	m := core.NewMonitor(join.NewDSC(join.DefaultDepth))
	ever := make(map[core.Pair]bool)
	var dec server.IngestDecoder
	step := 0
	for i, rq := range w.writerRequests() {
		switch rq.kind {
		case kindAddQuery:
			id, err := m.AddQuery(rq.graph)
			if err != nil || int(id) != rq.id {
				t.Fatalf("request %d: AddQuery = %d, %v; want id %d", i, id, err, rq.id)
			}
		case kindRemoveQuery:
			if err := m.RemoveQuery(core.QueryID(rq.id)); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case kindAddStream:
			if _, err := m.AddStream(rq.graph); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		case kindIngest:
			frame, err := dec.DecodeStep(bytes.TrimSuffix(rq.body, []byte("\n")))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			changes := make(map[core.StreamID]graph.ChangeSet)
			for _, g := range frame.Groups {
				changes[core.StreamID(g.Stream)] = append(graph.ChangeSet(nil), g.Ops...)
			}
			pairs, err := m.StepAll(changes)
			if err != nil {
				t.Fatalf("step %d rejected by engine validation: %v", step, err)
			}
			for _, p := range pairs {
				ever[p] = true
			}
			step++
		}
	}
	if step != w.steps {
		t.Fatalf("applied %d steps, want %d", step, w.steps)
	}
	return ever
}

// TestWorkloadsValid applies every generated op through engine validation
// and checks that each workload makes a non-trivial share of its queries
// candidates at some point: a generator whose labels let only a few
// queries ever match would measure an idle filter. The bound is above 1/8,
// the share cmd/loadgen's label scheme reaches (only its first of eight
// queries can match).
func TestWorkloadsValid(t *testing.T) {
	const minShare = 0.15
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w, err := buildWorkload(sp.name, 3, testSeconds)
			if err != nil {
				t.Fatal(err)
			}
			ever := replayEngine(t, w)
			matched := make(map[core.QueryID]bool)
			for p := range ever {
				matched[p.Query] = true
			}
			registered, removed := 0, 0
			for _, rq := range w.writerRequests() {
				switch rq.kind {
				case kindAddQuery:
					registered++
				case kindRemoveQuery:
					removed++
				}
			}
			if sp.churnEvery > 0 && removed == 0 {
				t.Error("workload with query churn swapped no query")
			}
			if share := float64(len(matched)) / float64(registered); share < minShare {
				t.Errorf("%d of %d queries were ever candidates (%.2f < %.2f)", len(matched), registered, share, minShare)
			}
		})
	}
}
