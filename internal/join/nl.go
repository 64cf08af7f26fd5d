package join

import (
	"fmt"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
)

// NL is the nested-loop join baseline: whenever a stream changes, every
// affected query is re-checked against it by scanning all (query vertex,
// stream vertex) vector pairs for dominance. Simple, correct, and the
// yardstick the two optimized strategies are measured against.
//
// "Affected" is where the query dominance index comes in: instead of
// re-evaluating all registered queries per dirty stream (O(queries) per
// timestamp), the filter feeds each dirty vertex's sealed (old, new)
// transition to its qindex.Index and re-evaluates only the returned
// candidates — a superset of the queries whose verdict could have changed,
// so the kept verdicts are exact by construction. DisableQueryIndex
// restores the full scan, as the measurement baseline and the reference
// the indexed path is tested against.
type NL struct {
	depth   int
	queries map[core.QueryID][]npv.PackedVector
	streams map[core.StreamID]*streamState
	verdict map[core.StreamID]map[core.QueryID]bool
	// ix generates the candidate queries per dirty stream; indexed gates
	// it (true by default; the scan path is kept as the benchmark/testing
	// reference).
	ix      *qindex.Index
	indexed bool
	// ft is the shared-factor table over the registered query vectors and
	// fq their evaluation-time decompositions (nil table = factoring
	// disabled, fq holds trivial decompositions). Like ix, the table is
	// immutable within a timestamp; per-stream memos update in the
	// per-stream maintenance stage only.
	ft *factor.Table
	fq map[core.QueryID][]factor.Factored
	// vectorScans counts stream vectors scanned during dominance checks over
	// the run. Written only on the (serialized) maintenance path — parallel
	// batches accumulate per-task counts and merge them after the join — and
	// read by CollectMetrics.
	vectorScans int64
	pool        evalPool
}

var (
	_ core.DynamicFilter  = (*NL)(nil)
	_ core.BatchApplier   = (*NL)(nil)
	_ core.ParallelFilter = (*NL)(nil)
)

// NewNL returns a nested-loop filter with the given NNT depth.
func NewNL(depth int) *NL {
	return &NL{
		depth:   depth,
		queries: make(map[core.QueryID][]npv.PackedVector),
		streams: make(map[core.StreamID]*streamState),
		verdict: make(map[core.StreamID]map[core.QueryID]bool),
		ix:      qindex.New(),
		indexed: true,
		ft:      factor.NewTable(),
		fq:      make(map[core.QueryID][]factor.Factored),
	}
}

// DisableQueryIndex turns off candidate generation: every dirty stream
// re-evaluates every registered query, as the filter did before the index
// existed. It exists for benchmarks (the sub-linear claim needs its linear
// baseline) and equivalence tests, and must be called before any query or
// stream is registered.
func (f *NL) DisableQueryIndex() {
	if len(f.queries) != 0 || len(f.streams) != 0 {
		panic("join: DisableQueryIndex after registration")
	}
	f.indexed = false
}

// DisableFactors turns off shared-factor evaluation: every query vector is
// tested by the full packed merge, with no memo short-circuit. It exists as
// the benchmark baseline and the reference the factored path is tested
// bit-identical against, and must be called before any query or stream is
// registered.
func (f *NL) DisableFactors() {
	if len(f.queries) != 0 || len(f.streams) != 0 {
		panic("join: DisableFactors after registration")
	}
	f.ft = nil
}

// SetFactorThresholds forwards discovery thresholds to the factor table
// (see factor.Table); panics once factoring is disabled or sealed.
func (f *NL) SetFactorThresholds(minSupport, minDims int) {
	f.ft.SetMinSupport(minSupport)
	f.ft.SetMinDims(minDims)
}

// rebuildFactored re-derives every query's decomposition and every
// stream's memo from the (re)sealed factor table. Per-key writes are
// order-independent, so the map iteration order is immaterial.
func (f *NL) rebuildFactored() {
	for qid, vecs := range f.queries {
		f.fq[qid] = decompAll(f.ft, qid, len(vecs))
	}
	for _, st := range f.streams {
		st.memo.Rebuild(st.space)
	}
}

// Name implements core.Filter.
func (f *NL) Name() string { return "NPV-NL" }

// SetWorkers implements core.ParallelFilter.
func (f *NL) SetWorkers(n int) { f.pool.setWorkers(n) }

// AddQuery implements core.Filter; queries may also arrive while streams
// are live (core.DynamicFilter), in which case the new pattern is evaluated
// against every current stream immediately.
func (f *NL) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	vecs := packQuery(q, f.depth)
	f.queries[id] = vecs
	if f.indexed {
		for i, u := range vecs {
			f.ix.Add(qindex.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
	}
	switch {
	case f.ft == nil:
		f.fq[id] = unfactoredAll(vecs)
	case f.ft.Sealed():
		// Live addition: match against the existing factors; when churn has
		// piled up, re-discover and rebuild the decompositions and memos.
		for i, u := range vecs {
			f.ft.Add(factor.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
		if f.ft.MaybeReseal() {
			f.rebuildFactored()
		} else {
			f.fq[id] = decompAll(f.ft, id, len(vecs))
		}
	default:
		// Pre-seal: store only; decompositions appear when the first stream
		// seals the table, and nothing evaluates before then.
		for i, u := range vecs {
			f.ft.Add(factor.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
	}
	for sid, st := range f.streams {
		f.verdict[sid][id] = f.evaluateOne(st, f.fq[id])
	}
	return nil
}

// RemoveQuery implements core.DynamicFilter: the packed query vectors, the
// per-stream verdicts, and the index postings are all torn down.
func (f *NL) RemoveQuery(id core.QueryID) error {
	if _, ok := f.queries[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	delete(f.queries, id)
	delete(f.fq, id)
	f.ix.RemoveQuery(id)
	if f.ft != nil {
		f.ft.RemoveQuery(id)
		if f.ft.Sealed() && f.ft.MaybeReseal() {
			f.rebuildFactored()
		}
	}
	for _, m := range f.verdict {
		delete(m, id)
	}
	return nil
}

// AddStream implements core.Filter. The first stream seals the index (like
// DSC's build phase, registration appends cheaply and sorts once).
func (f *NL) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	f.ix.Seal()
	if f.ft != nil && !f.ft.Sealed() {
		// Discovery runs once over the full pre-seal query set; the first
		// stream has no predecessors, so no memos need rebuilding.
		f.ft.Seal()
		f.rebuildFactored()
	}
	st := newStreamState(g0, f.depth, true, f.ft)
	st.sealDeltas()
	f.streams[id] = st
	f.verdict[id] = make(map[core.QueryID]bool, len(f.queries))
	f.evaluate(id)
	return nil
}

// Apply implements core.Filter.
func (f *NL) Apply(id core.StreamID, cs graph.ChangeSet) error {
	st, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("join: unknown stream %d", id)
	}
	if err := st.apply(cs); err != nil {
		return err
	}
	if !st.space.HasDirty() {
		return nil // nothing changed; verdicts stand
	}
	if !f.indexed {
		st.sealDeltas() // unindexed NL re-evaluates wholesale
		f.evaluate(id)
		return nil
	}
	for _, qid := range f.ix.AffectedQueries(st.sealDeltas()) {
		f.verdict[id][qid] = f.evaluateOne(st, f.fq[qid])
	}
	return nil
}

// ApplyAll implements core.BatchApplier: NNT maintenance runs one task per
// stream — which also seals that stream's dirty vertices and asks the
// index for the affected queries — then dominance re-evaluation fans out
// one task per (dirty stream, candidate query) pair. Each task writes only
// its own slot, and the merge walks slots in (StreamID, QueryID) order, so
// the verdicts — and therefore Candidates — are bit-identical to the
// sequential path.
func (f *NL) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	ids := batchStreamIDs(changes)
	errs := make([]error, len(ids))
	cands := make([][]core.QueryID, len(ids))
	var allQ []core.QueryID
	if !f.indexed {
		allQ = sortedQueryIDs(f.queries)
	}
	f.pool.run(len(ids), func(i int) {
		id := ids[i]
		st, ok := f.streams[id]
		if !ok {
			errs[i] = fmt.Errorf("join: unknown stream %d", id)
			return
		}
		if err := st.apply(changes[id]); err != nil {
			errs[i] = err
			return
		}
		if !st.space.HasDirty() {
			return
		}
		if f.indexed {
			// Candidate generation reads the sealed, immutable index plus
			// atomic counters, so running it inside the per-stream task is
			// race-free; the result lands in this task's own slot. The
			// factor memo updates here too — it is this stream's private
			// state, and the pair stage below only reads it.
			cands[i] = f.ix.AffectedQueries(st.sealDeltas())
		} else {
			st.sealDeltas()
			cands[i] = allQ
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}

	var tasks []pairTask
	for i, id := range ids {
		for _, qid := range cands[i] {
			tasks = append(tasks, pairTask{sid: id, qid: qid})
		}
	}
	verdicts := make([]bool, len(tasks))
	scans := make([]int64, len(tasks))
	f.pool.run(len(tasks), func(i int) {
		t := tasks[i]
		verdicts[i], scans[i] = evalQuery(f.streams[t.sid], f.fq[t.qid])
	})
	for i, t := range tasks {
		f.verdict[t.sid][t.qid] = verdicts[i]
		f.vectorScans += scans[i]
	}
	return nil
}

// evaluate re-derives the verdicts of all queries against stream id.
func (f *NL) evaluate(id core.StreamID) {
	st := f.streams[id]
	for qid := range f.queries {
		f.verdict[id][qid] = f.evaluateOne(st, f.fq[qid])
	}
}

func (f *NL) evaluateOne(st *streamState, vecs []factor.Factored) bool {
	ok, scanned := evalQuery(st, vecs)
	f.vectorScans += scanned
	return ok
}

// evalQuery is the pure dominance check one pair task runs: it reads the
// stream space, the factor memo, and the query decompositions, and touches
// no filter state, which is what makes the fan-out safe.
//
//nnt:hotpath
func evalQuery(st *streamState, vecs []factor.Factored) (bool, int64) {
	var total int64
	for _, u := range vecs {
		found, scanned := dominatedByAny(st, u)
		total += int64(scanned)
		if !found {
			return false, total
		}
	}
	return true, total
}

// Candidates implements core.Filter.
func (f *NL) Candidates() []core.Pair {
	var out []core.Pair
	for sid, m := range f.verdict {
		for qid, ok := range m {
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}

var _ obs.Collector = (*NL)(nil)

// CollectMetrics implements obs.Collector with the nested-loop work and
// structure sizes: query/stream vector counts, scan totals, index postings,
// and the NNT node count the streams describe.
func (f *NL) CollectMetrics(emit func(name string, value float64)) {
	qvecs := 0
	for _, vecs := range f.queries {
		qvecs += len(vecs)
	}
	emit("nntstream_nl_query_vectors", float64(qvecs))
	emit("nntstream_nl_vector_scans_total", float64(f.vectorScans))
	emit("nntstream_qindex_postings", float64(f.ix.PostingCount()))
	if f.ft != nil {
		f.ft.CollectMetrics(emit)
	}
	svecs, nodes := 0, 0
	for _, st := range f.streams {
		svecs += st.space.Len()
		nodes += st.nodeCount()
	}
	emit("nntstream_nl_stream_vectors", float64(svecs))
	emit("nntstream_filter_nnt_nodes", float64(nodes))
	emit("nntstream_filter_streams", float64(len(f.streams)))
	f.pool.collect(emit)
}
