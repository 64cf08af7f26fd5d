package join

import (
	"fmt"
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
	"nntstream/internal/qindex"
	"nntstream/internal/skyline"
)

// Skyline is the skyline-with-early-stop join (Figure 11). It searches for
// a witness that a pair is NOT joinable: a query vector that no stream
// vector dominates (a bichromatic skyline point of the query set with
// respect to the stream set). Three optimizations from the paper:
//
//  1. Query side: only the maximal (monochromatic skyline) query vectors
//     are checked — if any query vector is undominated, a maximal one is.
//  2. Query side: maximal vectors are probed in an order that favors early
//     stops (descending L1 mass: heavier vectors are harder to dominate).
//  3. Stream side: per-dimension max values give an O(|support|) refutation
//     ("no stream vector is large enough in dimension d"), and otherwise
//     only the vectors of the query vector's lowest-cardinality nonzero
//     dimension are scanned, since any dominator must appear there.
//
// A fourth optimization is ours: the maximal vectors of every registered
// query live in a qindex.Index, so a changed stream re-evaluates only the
// queries whose verdict the dirty vertices' seal transitions could have
// flipped, instead of all of them. DisableQueryIndex restores the full
// re-evaluation as the benchmark/testing reference.
type Skyline struct {
	depth   int
	queries map[core.QueryID][]npv.PackedVector // maximal vectors, probe order
	streams map[core.StreamID]*skyStream
	// ix indexes the maximal vectors for candidate generation; indexed
	// gates it (true by default).
	ix      *qindex.Index
	indexed bool
	// ft factors the maximal vectors across queries and fq holds their
	// evaluation-time decompositions (nil table = factoring disabled).
	ft *factor.Table
	fq map[core.QueryID][]factor.Factored
	// probeScans counts stream vectors scanned inside dominated's probe loop
	// over the run — the work the per-dimension max refutation saves.
	// Written only on the (serialized) maintenance path — parallel batches
	// accumulate per-task counts and merge them after the join — and read
	// by CollectMetrics.
	probeScans int64
	pool       evalPool
}

type skyStream struct {
	st *streamState
	// prev shadows each vertex's vector as currently registered in dims,
	// so removals and max recomputation use consistent values.
	prev map[graph.VertexID]npv.Vector
	dims map[npv.Dim]*dimStat
	// verdict caches the joinability of each query against this stream.
	verdict map[core.QueryID]bool
}

type dimStat struct {
	members map[graph.VertexID]struct{}
	max     int32
}

var (
	_ core.DynamicFilter  = (*Skyline)(nil)
	_ core.BatchApplier   = (*Skyline)(nil)
	_ core.ParallelFilter = (*Skyline)(nil)
)

// NewSkyline returns a skyline-with-early-stop filter with the given NNT
// depth.
func NewSkyline(depth int) *Skyline {
	return &Skyline{
		depth:   depth,
		queries: make(map[core.QueryID][]npv.PackedVector),
		streams: make(map[core.StreamID]*skyStream),
		ix:      qindex.New(),
		indexed: true,
		ft:      factor.NewTable(),
		fq:      make(map[core.QueryID][]factor.Factored),
	}
}

// DisableQueryIndex turns off candidate generation: every changed stream
// re-evaluates every registered query. For benchmarks and equivalence
// tests; must be called before any query or stream is registered.
func (f *Skyline) DisableQueryIndex() {
	if len(f.queries) != 0 || len(f.streams) != 0 {
		panic("join: DisableQueryIndex after registration")
	}
	f.indexed = false
}

// DisableFactors turns off shared-factor evaluation (see NL.DisableFactors);
// must be called before any query or stream is registered.
func (f *Skyline) DisableFactors() {
	if len(f.queries) != 0 || len(f.streams) != 0 {
		panic("join: DisableFactors after registration")
	}
	f.ft = nil
}

// SetFactorThresholds forwards discovery thresholds to the factor table.
func (f *Skyline) SetFactorThresholds(minSupport, minDims int) {
	f.ft.SetMinSupport(minSupport)
	f.ft.SetMinDims(minDims)
}

// rebuildFactored re-derives every query's decomposition and every
// stream's memo from the (re)sealed factor table.
func (f *Skyline) rebuildFactored() {
	for qid, maximal := range f.queries {
		f.fq[qid] = decompAll(f.ft, qid, len(maximal))
	}
	for _, ss := range f.streams {
		ss.st.memo.Rebuild(ss.st.space)
	}
}

// Name implements core.Filter.
func (f *Skyline) Name() string { return "NPV-Skyline" }

// SetWorkers implements core.ParallelFilter.
func (f *Skyline) SetWorkers(n int) { f.pool.setWorkers(n) }

// AddQuery implements core.Filter.
func (f *Skyline) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := f.queries[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	maximal := skyline.MaximalPacked(packQuery(q, f.depth))
	// Probe heaviest first: those are the least likely to be dominated, so
	// a non-joinable pair is refuted early.
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].L1() > maximal[j].L1() })
	f.queries[id] = maximal
	if f.indexed {
		// Only the maximal vectors decide the verdict, so only they are
		// indexed; the key's vertex slot holds the probe-order position.
		for i, u := range maximal {
			f.ix.Add(qindex.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
	}
	switch {
	case f.ft == nil:
		f.fq[id] = unfactoredAll(maximal)
	case f.ft.Sealed():
		for i, u := range maximal {
			f.ft.Add(factor.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
		if f.ft.MaybeReseal() {
			f.rebuildFactored()
		} else {
			f.fq[id] = decompAll(f.ft, id, len(maximal))
		}
	default:
		for i, u := range maximal {
			f.ft.Add(factor.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
	}
	for _, ss := range f.streams {
		ss.verdict[id] = f.evaluate(ss, f.fq[id])
	}
	return nil
}

// RemoveQuery implements core.DynamicFilter: the maximal vectors, the
// per-stream verdicts, and the index postings are all torn down.
func (f *Skyline) RemoveQuery(id core.QueryID) error {
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
	for _, ss := range f.streams {
		delete(ss.verdict, id)
	}
	return nil
}

// AddStream implements core.Filter. The first stream seals the index.
func (f *Skyline) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := f.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	f.ix.Seal()
	if f.ft != nil && !f.ft.Sealed() {
		f.ft.Seal()
		f.rebuildFactored()
	}
	ss := &skyStream{
		st:      newStreamState(g0, f.depth, true, f.ft),
		prev:    make(map[graph.VertexID]npv.Vector),
		dims:    make(map[npv.Dim]*dimStat),
		verdict: make(map[core.QueryID]bool, len(f.queries)),
	}
	f.streams[id] = ss
	f.refresh(ss)
	return nil
}

// Apply implements core.Filter.
func (f *Skyline) Apply(id core.StreamID, cs graph.ChangeSet) error {
	ss, ok := f.streams[id]
	if !ok {
		return fmt.Errorf("join: unknown stream %d", id)
	}
	if err := ss.st.apply(cs); err != nil {
		return err
	}
	f.refresh(ss)
	return nil
}

// ApplyAll implements core.BatchApplier: per-dimension statistics
// reconcile one task per stream (they mutate that stream's state only) and
// ask the index for that stream's candidate queries, then verdict
// re-evaluation fans out one task per (dirty stream, candidate query)
// pair — evaluation only reads the reconciled stats and the query
// vectors. Slot-ordered merge keeps the verdicts bit-identical to the
// sequential path.
func (f *Skyline) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	ids := batchStreamIDs(changes)
	errs := make([]error, len(ids))
	cands := make([][]core.QueryID, len(ids))
	allQ := sortedQueryIDs(f.queries)
	f.pool.run(len(ids), func(i int) {
		id := ids[i]
		ss, ok := f.streams[id]
		if !ok {
			errs[i] = fmt.Errorf("join: unknown stream %d", id)
			return
		}
		if err := ss.st.apply(changes[id]); err != nil {
			errs[i] = err
			return
		}
		deltas := f.reconcile(ss)
		switch {
		case len(deltas) == 0 && len(ss.verdict) == len(f.queries):
			// Nothing changed; verdicts stand.
		case f.indexed && len(ss.verdict) == len(f.queries):
			// Candidate generation reads the sealed, immutable index plus
			// atomic counters — race-free inside the per-stream task.
			cands[i] = f.ix.AffectedQueries(deltas)
		default:
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
		verdicts[i], scans[i] = evalMaximal(f.streams[t.sid], f.fq[t.qid])
	})
	for i, t := range tasks {
		f.streams[t.sid].verdict[t.qid] = verdicts[i]
		f.probeScans += scans[i]
	}
	return nil
}

// refresh reconciles the per-dimension statistics with the dirty vertices
// and re-evaluates the affected query verdicts for the stream — all of
// them on the unindexed path (or when the verdict map is still being
// built), only the index's candidates otherwise.
func (f *Skyline) refresh(ss *skyStream) {
	deltas := f.reconcile(ss)
	if len(deltas) == 0 && len(ss.verdict) == len(f.queries) {
		return
	}
	if !f.indexed || len(ss.verdict) != len(f.queries) {
		for qid := range f.queries {
			ss.verdict[qid] = f.evaluate(ss, f.fq[qid])
		}
		return
	}
	for _, qid := range f.ix.AffectedQueries(deltas) {
		ss.verdict[qid] = f.evaluate(ss, f.fq[qid])
	}
}

// reconcile folds the stream's dirty vertices into its per-dimension
// statistics — and their seal transitions into the factor memo — and
// returns the transitions (nil when no vector changed). It mutates only
// ss, so distinct streams reconcile independently.
func (f *Skyline) reconcile(ss *skyStream) []npv.DirtyDelta {
	deltas := ss.st.sealDeltas()
	for _, dl := range deltas {
		v := dl.Vertex
		// Deregister the old vector.
		if old, ok := ss.prev[v]; ok {
			for d, val := range old {
				stat := ss.dims[d]
				delete(stat.members, v)
				if len(stat.members) == 0 {
					delete(ss.dims, d)
					continue
				}
				if val == stat.max {
					stat.max = 0
					for w := range stat.members {
						if wv := ss.prev[w].Get(d); wv > stat.max {
							stat.max = wv
						}
					}
				}
			}
			delete(ss.prev, v)
		}
		// Register the new vector.
		cur := ss.st.space.Vector(v)
		if cur == nil {
			continue // vertex retired
		}
		cp := cur.Clone()
		ss.prev[v] = cp
		for d, val := range cp {
			stat := ss.dims[d]
			if stat == nil {
				stat = &dimStat{members: make(map[graph.VertexID]struct{})}
				ss.dims[d] = stat
			}
			stat.members[v] = struct{}{}
			if val > stat.max {
				stat.max = val
			}
		}
	}
	return deltas
}

// evaluate reports joinability: true iff every maximal query vector is
// dominated by some stream vector.
func (f *Skyline) evaluate(ss *skyStream, maximal []factor.Factored) bool {
	ok, scanned := evalMaximal(ss, maximal)
	f.probeScans += scanned
	return ok
}

// evalMaximal is the pure form of evaluate one pair task runs: it reads
// the reconciled per-dimension statistics, the factor memo, and the
// query's maximal-vector decompositions, and touches no filter state,
// which is what makes the fan-out safe.
//
//nnt:hotpath
func evalMaximal(ss *skyStream, maximal []factor.Factored) (bool, int64) {
	var total int64
	for _, u := range maximal {
		ok, scanned := dominated(ss, u)
		total += scanned
		if !ok {
			// u is a bichromatic skyline point of the query vectors with
			// respect to the stream vectors: early stop, prune the pair.
			return false, total
		}
	}
	return true, total
}

// dominated implements the stream-side probe for one query vector,
// reporting the number of stream vectors scanned in the probe loop. The
// refutation and probe-dimension selection run on the full vector (they
// reason about u as a whole); the per-member exact check short-circuits
// through the factor memo before paying for u's residual merge.
//
//nnt:hotpath
func dominated(ss *skyStream, u factor.Factored) (bool, int64) {
	if u.Full.Len() == 0 {
		// An empty query vector is dominated by any vertex.
		return len(ss.prev) > 0, 0
	}
	var probe *dimStat
	for i := 0; i < u.Full.Len(); i++ {
		stat := ss.dims[u.Full.Dim(i)]
		if stat == nil || u.Full.Count(i) > stat.max {
			// No stream vector reaches u in dimension d: u is a skyline
			// point, refuted in O(|support|).
			return false, 0
		}
		if probe == nil || len(stat.members) < len(probe.members) {
			probe = stat
		}
	}
	// Any dominator of u is nonzero in every support dimension of u, so it
	// is a member of the probe (minimum-cardinality) dimension. Members are
	// exactly the vertices registered in ss.prev, whose space vectors were
	// sealed by the same reconcile step — Packed never misses here.
	var scanned int64
	for v := range probe.members {
		scanned++
		//lint:ignore hotalloc Packed's Pack() fallback only runs for dirty or cache-disabled vectors; the probe reads a space sealed by the same reconcile step, so it hits the packed cache allocation-free
		if p, ok := ss.st.space.Packed(v); ok && ss.st.memo.Dominated(v, p, u) {
			return true, scanned
		}
	}
	return false, scanned
}

var _ obs.Collector = (*Skyline)(nil)

// CollectMetrics implements obs.Collector with the structure sizes that
// drive the skyline probe: maximal query vectors, per-dimension statistics,
// index postings, registered stream vectors, and the NNT node count the
// streams describe.
func (f *Skyline) CollectMetrics(emit func(name string, value float64)) {
	maximal := 0
	for _, vecs := range f.queries {
		maximal += len(vecs)
	}
	emit("nntstream_skyline_maximal_query_vectors", float64(maximal))
	emit("nntstream_skyline_probe_scans_total", float64(f.probeScans))
	emit("nntstream_qindex_postings", float64(f.ix.PostingCount()))
	if f.ft != nil {
		f.ft.CollectMetrics(emit)
	}
	dims, vecs, nodes := 0, 0, 0
	for _, ss := range f.streams {
		dims += len(ss.dims)
		vecs += len(ss.prev)
		nodes += ss.st.nodeCount()
	}
	emit("nntstream_skyline_dimensions", float64(dims))
	emit("nntstream_skyline_stream_vectors", float64(vecs))
	emit("nntstream_filter_nnt_nodes", float64(nodes))
	emit("nntstream_filter_streams", float64(len(f.streams)))
	f.pool.collect(emit)
}

// Candidates implements core.Filter.
func (f *Skyline) Candidates() []core.Pair {
	var out []core.Pair
	for sid, ss := range f.streams {
		for qid, ok := range ss.verdict {
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}
