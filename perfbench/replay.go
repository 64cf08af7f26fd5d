package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/join"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
	"nntstream/internal/server"
)

// replayResult times the stages inside join that have no outside boundary
// on the production path. Each field is a total over every timestamp of the
// run.
type replayResult struct {
	steps, ops, dirty, qindexCalls int64
	decode, nnt, seal, qindex      time.Duration
	memo, dominates                time.Duration
}

// joinTotal is the replay's single-threaded cost of the filter's work,
// comparable to the production join.apply total.
func (r *replayResult) joinTotal() time.Duration {
	return r.nnt + r.seal + r.qindex + r.memo + r.dominates
}

// stageReplay feeds the run's inputs through the stages' public APIs on one
// goroutine, in the order the filters call them: decode the ingest frame,
// maintain each stream's NNT forest (which updates its NPV space), seal the
// dirty vertices, find the affected queries, fold the seal into the factor
// memo, and re-evaluate the affected queries with the packed kernel. It
// uses the initial query set; query churn is not replayed.
func stageReplay(w *workload) (*replayResult, error) {
	res := &replayResult{}
	initial := make([][]npv.PackedVector, len(w.initial))
	ix := qindex.New()
	tbl := factor.NewTable()
	for i, q := range w.initial {
		id := core.QueryID(i)
		proj := npv.ProjectGraph(q, join.DefaultDepth)
		vs := make([]graph.VertexID, 0, len(proj))
		for v := range proj {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for _, v := range vs {
			p := npv.Pack(proj[v])
			initial[i] = append(initial[i], p)
			ix.Add(qindex.Key{Query: id, Vertex: v}, p)
			if p.Len() > 0 {
				tbl.Add(factor.Key{Query: id, Vertex: v}, p)
			}
		}
	}
	ix.Seal()
	tbl.Seal()

	type streamStages struct {
		forest *nnt.Forest
		space  *npv.Space
		memo   *factor.Memo
	}
	streams := make([]streamStages, len(w.streams))
	for i, s := range w.streams {
		space := npv.NewSpace()
		space.EnablePacking()
		st := streamStages{forest: nnt.NewForest(s.Start.Clone(), join.DefaultDepth, space), space: space,
			memo: factor.NewMemo(tbl)}
		st.memo.ApplyDeltas(space.SealDirty())
		streams[i] = st
	}

	var dec server.IngestDecoder
	step := 0
	for _, rq := range w.writerRequests() {
		if rq.kind != kindIngest {
			continue
		}
		t0 := time.Now()
		for _, line := range bytes.Split(bytes.TrimSpace(rq.body), []byte("\n")) {
			if _, err := dec.DecodeStep(line); err != nil {
				return nil, fmt.Errorf("replay decode step %d: %w", step, err)
			}
		}
		res.decode += time.Since(t0)
		for i, s := range w.streams {
			cs := s.Changes[step]
			st := &streams[i]
			t0 = time.Now()
			if err := st.forest.ApplySet(cs); err != nil {
				return nil, fmt.Errorf("replay stream %d step %d: %w", i, step, err)
			}
			t1 := time.Now()
			deltas := st.space.SealDirty()
			t2 := time.Now()
			affected := ix.AffectedQueries(deltas)
			t3 := time.Now()
			st.memo.ApplyDeltas(deltas)
			t4 := time.Now()
			for _, q := range affected {
				evaluate(st.space, initial[q])
			}
			t5 := time.Now()
			res.nnt += t1.Sub(t0)
			res.seal += t2.Sub(t1)
			res.qindex += t3.Sub(t2)
			res.memo += t4.Sub(t3)
			res.dominates += t5.Sub(t4)
			res.ops += int64(len(cs))
			res.dirty += int64(len(deltas))
			res.qindexCalls++
		}
		step++
	}
	res.steps = int64(step)
	if step != w.steps {
		return nil, fmt.Errorf("replay saw %d timestamps, want %d", step, w.steps)
	}
	return res, nil
}

// evaluate is the Lemma 4.2 test on the packed kernel: every query vector
// dominated by some stream vertex.
func evaluate(space *npv.Space, query []npv.PackedVector) bool {
	for _, u := range query {
		found := false
		space.PackedVectors(func(_ graph.VertexID, p npv.PackedVector) bool {
			found = p.Dominates(u)
			return !found
		})
		if !found {
			return false
		}
	}
	return true
}
