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
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/nnt"
	"nntstream/internal/npv"
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

// sealDeltas seals the stream's dirty vertices into packed form and folds
// the transitions into the factor memo — the once-per-(vertex, factor,
// timestamp) shared evaluation. It mutates only this stream's state, so it
// belongs in the per-stream maintenance stage of a parallel batch; the
// memo is immutable (read-only) during the per-(stream, query) fan-out
// that follows. Requires packing (every caller enables it).
func (s *streamState) sealDeltas() []npv.DirtyDelta {
	deltas := s.space.SealDirty()
	if s.memo != nil {
		s.memo.ApplyDeltas(deltas)
	}
	return deltas
}

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

// batchStreamIDs extracts a change batch's stream IDs in ascending order.
// The fan-out indexes tasks by position in this slice, so a fixed order is
// what makes the parallel merge — and the error reported for an invalid
// batch — deterministic.
func batchStreamIDs(changes map[core.StreamID]graph.ChangeSet) []core.StreamID {
	ids := make([]core.StreamID, 0, len(changes))
	for id := range changes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedQueryIDs extracts registered query IDs in ascending order — the
// pair-task enumeration order of the batch path.
func sortedQueryIDs[T any](m map[core.QueryID]T) []core.QueryID {
	qids := make([]core.QueryID, 0, len(m))
	for qid := range m {
		qids = append(qids, qid)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	return qids
}

// pairTask is one (stream, query) re-evaluation unit of a parallel batch.
type pairTask struct {
	sid core.StreamID
	qid core.QueryID
}

// firstError returns the lowest-index non-nil error of a fan-out, so a
// failing batch reports the same error the sequential loop would have hit
// first.
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
