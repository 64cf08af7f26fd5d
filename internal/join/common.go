// Package join implements the paper's three strategies for continuously
// joining graph streams with query patterns in the projected vector space
// (Section IV-B):
//
//   - NL: the nested-loop baseline, re-checking dominance pair by pair for
//     every changed stream.
//   - DSC: the dominated-set-cover method (Figure 8), which keeps position
//     and dominant counters per stream vertex so one NPV change touches only
//     the sorted-dimension entries it crosses.
//   - Skyline: the skyline-with-early-stop method (Figure 11), which checks
//     only the maximal query vectors, prunes via per-dimension max values,
//     and probes the lowest-cardinality dimension first.
//
// All three report a pair (G,Q) as possibly joinable iff every query vertex
// NPV is dominated by some stream vertex NPV (Lemma 4.2); they differ only
// in how that condition is maintained, so their candidate sets are
// identical — a property the tests enforce.
//
// The package also provides the branch-compatible NNT filter (Lemma 4.1,
// used for the ablation study) and the exact VF2 filter (ground truth).
package join

import (
	"fmt"
	"slices"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// DefaultDepth is the NNT depth bound used when callers do not override it;
// the paper's Figure 12 finds depth 3 sufficient for effective filtering.
const DefaultDepth = 3

// streamState bundles the incrementally maintained feature structures of
// one stream: the trail maintainer that keeps its NNT events flowing without
// building the trees, the projected vector space observing it, and — when
// the owning filter factors its query set — the per-(vertex, factor)
// verdict memo those factored tests short-circuit through.
type streamState struct {
	trails *nnt.Trails
	space  *npv.Space
	memo   *factor.Memo
}

// newStreamState builds the stream's feature structures. packed enables the
// space's PackedVector cache: filters whose evaluation runs on the packed
// dominance kernel (NL, Skyline) pass true so every timestamp's seal
// freezes the dirty vertices into packed form; counter-based DSC passes
// false and skips the sealing cost — except that a non-nil factor table
// forces packing on, because the factor memo evaluates the shared
// sub-vectors on the packed kernel at each seal.
func newStreamState(g0 *graph.Graph, depth int, packed bool, tbl *factor.Table) *streamState {
	space := npv.NewSpace()
	if packed || tbl != nil {
		space.EnablePacking()
	}
	st := &streamState{
		trails: nnt.NewTrails(g0, depth, space),
		space:  space,
	}
	if tbl != nil {
		st.memo = factor.NewMemo(tbl)
	}
	return st
}

// reconcile seals the stream's dirty vertices into packed form and folds
// the transitions into the factor memo — the once-per-(vertex, factor,
// timestamp) shared evaluation. It mutates only this stream's state, so it
// belongs in the per-stream stage of a batch; the memo is immutable
// (read-only) during the per-(stream, query) pair stage that follows.
// Requires packing (every caller enables it). This is NL's whole
// per-stream reconcile; Skyline extends it with its dimension statistics.
func (s *streamState) reconcile() []npv.DirtyDelta {
	deltas := s.space.SealDirty()
	if s.memo != nil {
		s.memo.ApplyDeltas(deltas)
	}
	return deltas
}

// base implements vecStream for strategies that keep no per-stream state
// beyond the shared feature structures.
func (s *streamState) base() *streamState { return s }

func (s *streamState) apply(cs graph.ChangeSet) error {
	return s.trails.ApplySet(cs)
}

// nodeCount reports the NNT node count the stream's events describe, the
// structure-size gauge every NPV filter exports (see CollectMetrics). No
// tree exists on this path; the space keeps the count as a running total.
func (s *streamState) nodeCount() int { return s.space.TreeNodes() }

// qKey identifies one query vertex across all registered queries.
type qKey struct {
	Q core.QueryID
	V graph.VertexID
}

func (k qKey) String() string { return fmt.Sprintf("Q%d/%d", k.Q, k.V) }

// projectQuery computes the per-vertex NPVs of a static query graph.
func projectQuery(q *graph.Graph, depth int) map[graph.VertexID]npv.Vector {
	return npv.ProjectGraph(q, depth)
}

// packQuery projects a query and freezes its vectors into packed form in
// ascending vertex order — queries are static, so this runs once at
// registration and evaluation never touches a map vector again.
func packQuery(q *graph.Graph, depth int) []npv.PackedVector {
	return npv.PackAll(npv.VectorsByVertex(projectQuery(q, depth)))
}

// sortedKeys extracts a map's keys in ascending order. Batches and
// registrations enumerate streams and queries through it, and the fan-out
// indexes tasks by position, so a fixed order is what makes the merge —
// and the error reported for an invalid batch — deterministic.
func sortedKeys[K ~int, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// pairTask is one (stream, query) evaluation unit of the pair stage.
type pairTask struct {
	sid core.StreamID
	qid core.QueryID
}

// firstError returns the lowest-index non-nil error of a fan-out, so a
// failing batch reports the same error a stream-by-stream walk in
// ascending order would have hit first.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// unfactoredAll wraps a query's packed vectors as trivial decompositions —
// the evaluation form filters use when factoring is disabled.
func unfactoredAll(vecs []npv.PackedVector) []factor.Factored {
	out := make([]factor.Factored, len(vecs))
	for i, p := range vecs {
		out[i] = factor.Unfactored(p)
	}
	return out
}

// decompAll fetches the table's decompositions of a query's vectors, which
// registration keyed by slice position (the qindex.Key convention). The
// table must be sealed.
func decompAll(tbl *factor.Table, id core.QueryID, n int) []factor.Factored {
	out := make([]factor.Factored, n)
	for i := range out {
		d, ok := tbl.Decomp(factor.Key{Query: id, Vertex: graph.VertexID(i)})
		if !ok {
			panic(fmt.Sprintf("join: query %d vector %d missing from sealed factor table", id, i))
		}
		out[i] = d
	}
	return out
}

// dominatedByAny reports whether any vector in the stream's space dominates
// u, along with the number of vectors scanned before deciding (the
// nested-loop work measure NL exports). The scan runs entirely on the
// packed kernel — sealed stream vectors against a query decomposition
// frozen at registration. For a factored decomposition the probe loop
// walks only the memoized dominators of u's factor (a complete candidate
// set: factors are lower envelopes, so a vertex that doesn't dominate the
// factor dominates no member) and settles each with a merge over the small
// residual — the whole-space scan survives only for unfactored vectors.
//
//nnt:hotpath
func dominatedByAny(st *streamState, u factor.Factored) (found bool, scanned int) {
	if u.Factor != factor.None {
		st.memo.DominatorsOf(u.Factor, func(v graph.VertexID) bool {
			scanned++
			//lint:ignore hotalloc Packed's Pack() fallback only runs for dirty or cache-disabled vectors; sealed spaces on this path hit the packed cache allocation-free
			if p, ok := st.space.Packed(v); ok && p.Dominates(u.Residual) {
				found = true
				return false
			}
			return true
		})
		return found, scanned
	}
	//lint:ignore hotalloc Packed's Pack() fallback only runs for dirty or cache-disabled vectors; sealed spaces on this path hit the packed cache allocation-free
	st.space.PackedVectors(func(v graph.VertexID, p npv.PackedVector) bool {
		scanned++
		if st.memo.Dominated(v, p, u) {
			found = true
			return false
		}
		return true
	})
	return found, scanned
}

// vecStream is one stream's state under a vector strategy (NL, Skyline):
// the shared feature structures plus whatever the strategy's evaluation
// reads. reconcile seals the dirty vertices, folds them into that state,
// and returns the seal transitions.
type vecStream interface {
	base() *streamState
	reconcile() []npv.DirtyDelta
}

// vecJoin is the registration and evaluation pipeline NL and Skyline share.
// The strategies differ only in which query vectors they check, what each
// stream keeps up to date besides its space, and how one (stream, query)
// pair is decided; they supply exactly those three things as the vectors,
// open (whose stream type carries reconcile), and eval hooks.
//
// One timestamp runs two stages. The per-stream stage applies each
// stream's change set, reconciles it, and asks the query dominance index
// for the queries whose verdict the seal transitions could have flipped —
// a superset, so the kept verdicts are exact by construction. The pair
// stage (evalPairs) then decides every (dirty stream, candidate query)
// pair. Registration decides its pairs through the same stage: a new query
// against every stream, a new stream against every query. Apply is a batch
// of one.
type vecJoin[S vecStream] struct {
	depth   int
	vectors func(packed []npv.PackedVector) []npv.PackedVector
	open    func(st *streamState) S
	eval    func(s S, vecs []factor.Factored) (bool, int64)

	// queries holds each query's evaluated vectors; a vector's slice
	// position is its qindex/factor key vertex.
	queries map[core.QueryID][]npv.PackedVector
	streams map[core.StreamID]S
	verdict map[core.StreamID]map[core.QueryID]bool
	// ix generates the candidate queries per dirty stream.
	ix *qindex.Index
	// ft is the shared-factor table over the query vectors and fq their
	// evaluation-time decompositions (nil table = factoring disabled, fq
	// holds trivial decompositions). Like ix, the table is immutable
	// within a timestamp; per-stream memos update in the per-stream stage
	// only.
	ft *factor.Table
	fq map[core.QueryID][]factor.Factored
	// scans counts the stream vectors eval scanned over the run. Pair tasks
	// report their counts into slots that the serial merge sums, and
	// CollectMetrics reads it.
	scans int64
	pool  evalPool
}

func newVecJoin[S vecStream](depth int,
	vectors func([]npv.PackedVector) []npv.PackedVector,
	open func(*streamState) S,
	eval func(S, []factor.Factored) (bool, int64),
) vecJoin[S] {
	return vecJoin[S]{
		depth:   depth,
		vectors: vectors,
		open:    open,
		eval:    eval,
		queries: make(map[core.QueryID][]npv.PackedVector),
		streams: make(map[core.StreamID]S),
		verdict: make(map[core.StreamID]map[core.QueryID]bool),
		ix:      qindex.New(),
		ft:      factor.NewTable(),
		fq:      make(map[core.QueryID][]factor.Factored),
	}
}

// DisableFactors turns off shared-factor evaluation: every query vector is
// tested by the full packed merge, with no memo short-circuit. It exists as
// the benchmark baseline and the reference the factored path is tested
// bit-identical against, and must be called before any query or stream is
// registered.
func (j *vecJoin[S]) DisableFactors() {
	if len(j.queries) != 0 || len(j.streams) != 0 {
		panic("join: DisableFactors after registration")
	}
	j.ft = nil
}

// SetFactorThresholds forwards discovery thresholds to the factor table
// (see factor.Table); panics once factoring is disabled or sealed.
func (j *vecJoin[S]) SetFactorThresholds(minSupport, minDims int) {
	j.ft.SetMinSupport(minSupport)
	j.ft.SetMinDims(minDims)
}

// SetWorkers implements core.ParallelFilter.
func (j *vecJoin[S]) SetWorkers(n int) { j.pool.setWorkers(n) }

// rebuildFactored re-derives every query's decomposition and every
// stream's memo from the (re)sealed factor table. Per-key writes are
// order-independent, so the map iteration order is immaterial.
func (j *vecJoin[S]) rebuildFactored() {
	for qid, vecs := range j.queries {
		j.fq[qid] = decompAll(j.ft, qid, len(vecs))
	}
	for _, s := range j.streams {
		st := s.base()
		st.memo.Rebuild(st.space)
	}
}

// AddQuery implements core.Filter; queries may also arrive while streams
// are live (core.DynamicFilter), in which case the pair stage decides the
// new pattern against every current stream immediately.
func (j *vecJoin[S]) AddQuery(id core.QueryID, q *graph.Graph) error {
	if _, ok := j.queries[id]; ok {
		return fmt.Errorf("join: duplicate query %d", id)
	}
	vecs := j.vectors(packQuery(q, j.depth))
	j.queries[id] = vecs
	for i, u := range vecs {
		j.ix.Add(qindex.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		if j.ft != nil {
			j.ft.Add(factor.Key{Query: id, Vertex: graph.VertexID(i)}, u)
		}
	}
	switch {
	case j.ft == nil:
		j.fq[id] = unfactoredAll(vecs)
	case !j.ft.Sealed():
		// Pre-seal: decompositions appear when the first stream seals the
		// table, and nothing evaluates before then.
	case j.ft.MaybeReseal():
		// Churn has piled up: re-discover and rebuild the decompositions
		// and memos.
		j.rebuildFactored()
	default:
		j.fq[id] = decompAll(j.ft, id, len(vecs))
	}
	sids := sortedKeys(j.streams)
	qids := make([][]core.QueryID, len(sids))
	one := []core.QueryID{id}
	for i := range qids {
		qids[i] = one
	}
	j.evalPairs(sids, qids)
	return nil
}

// RemoveQuery implements core.DynamicFilter: the query vectors, the
// per-stream verdicts, and the index postings are all torn down.
func (j *vecJoin[S]) RemoveQuery(id core.QueryID) error {
	if _, ok := j.queries[id]; !ok {
		return fmt.Errorf("join: unknown query %d", id)
	}
	delete(j.queries, id)
	delete(j.fq, id)
	j.ix.RemoveQuery(id)
	if j.ft != nil {
		j.ft.RemoveQuery(id)
		if j.ft.Sealed() && j.ft.MaybeReseal() {
			j.rebuildFactored()
		}
	}
	for _, m := range j.verdict {
		delete(m, id)
	}
	return nil
}

// AddStream implements core.Filter. The first stream seals the index and
// runs factor discovery over the full pre-seal query set (registration
// appends cheaply and sorts once); the new stream is then decided against
// every query through the pair stage.
func (j *vecJoin[S]) AddStream(id core.StreamID, g0 *graph.Graph) error {
	if _, ok := j.streams[id]; ok {
		return fmt.Errorf("join: duplicate stream %d", id)
	}
	j.ix.Seal()
	if j.ft != nil && !j.ft.Sealed() {
		j.ft.Seal()
		j.rebuildFactored()
	}
	s := j.open(newStreamState(g0, j.depth, true, j.ft))
	s.reconcile()
	j.streams[id] = s
	j.verdict[id] = make(map[core.QueryID]bool, len(j.queries))
	j.evalPairs([]core.StreamID{id}, [][]core.QueryID{sortedKeys(j.queries)})
	return nil
}

// Apply implements core.Filter as a batch of one.
func (j *vecJoin[S]) Apply(id core.StreamID, cs graph.ChangeSet) error {
	return j.ApplyAll(map[core.StreamID]graph.ChangeSet{id: cs})
}

// ApplyAll implements core.BatchApplier: the per-stream stage runs one task
// per stream — apply, reconcile, and candidate generation, which reads
// only the sealed, immutable index plus atomic counters — and each task
// writes only its own stream and slot. The pair stage follows.
func (j *vecJoin[S]) ApplyAll(changes map[core.StreamID]graph.ChangeSet) error {
	sids := sortedKeys(changes)
	errs := make([]error, len(sids))
	qids := make([][]core.QueryID, len(sids))
	j.pool.run(len(sids), func(i int) {
		id := sids[i]
		s, ok := j.streams[id]
		if !ok {
			errs[i] = fmt.Errorf("join: unknown stream %d", id)
			return
		}
		st := s.base()
		if err := st.apply(changes[id]); err != nil {
			errs[i] = err
			return
		}
		if st.space.HasDirty() {
			qids[i] = j.ix.AffectedQueries(s.reconcile())
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}
	j.evalPairs(sids, qids)
	return nil
}

// evalPairs is the pair stage: it decides (sids[i], q) for every q in
// qids[i]. Tasks are built in that (ascending) order, fanned out on the
// pool — eval reads only the stream, its memo, and the query
// decompositions, and writes only the task's own slot — and the slots are
// merged in task order, so the verdicts are independent of the worker
// count and the scheduling.
func (j *vecJoin[S]) evalPairs(sids []core.StreamID, qids [][]core.QueryID) {
	var tasks []pairTask
	for i, sid := range sids {
		for _, qid := range qids[i] {
			tasks = append(tasks, pairTask{sid: sid, qid: qid})
		}
	}
	verdicts := make([]bool, len(tasks))
	scans := make([]int64, len(tasks))
	j.pool.run(len(tasks), func(i int) {
		t := tasks[i]
		verdicts[i], scans[i] = j.eval(j.streams[t.sid], j.fq[t.qid])
	})
	for i, t := range tasks {
		j.verdict[t.sid][t.qid] = verdicts[i]
		j.scans += scans[i]
	}
}

// Candidates implements core.Filter.
func (j *vecJoin[S]) Candidates() []core.Pair {
	var out []core.Pair
	for sid, m := range j.verdict {
		for qid, ok := range m {
			if ok {
				out = append(out, core.Pair{Stream: sid, Query: qid})
			}
		}
	}
	return core.SortPairs(out)
}

// collectShared emits the metrics every vector strategy shares — index
// postings, factor table, NNT node count, stream count, pool — and returns
// the query and stream vector totals the strategy exports under its own
// names.
func (j *vecJoin[S]) collectShared(emit func(name string, value float64)) (qvecs, svecs int) {
	for _, vecs := range j.queries {
		qvecs += len(vecs)
	}
	emit("nntstream_qindex_postings", float64(j.ix.PostingCount()))
	if j.ft != nil {
		j.ft.CollectMetrics(emit)
	}
	nodes := 0
	for _, s := range j.streams {
		st := s.base()
		svecs += st.space.Len()
		nodes += st.nodeCount()
	}
	emit("nntstream_filter_nnt_nodes", float64(nodes))
	emit("nntstream_filter_streams", float64(len(j.streams)))
	j.pool.collect(emit)
	return qvecs, svecs
}
