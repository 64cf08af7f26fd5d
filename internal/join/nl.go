package join

import (
	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
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
// candidates (see vecJoin).
type NL struct {
	vecJoin[*streamState]
}

var (
	_ core.DynamicFilter  = (*NL)(nil)
	_ core.BatchApplier   = (*NL)(nil)
	_ core.ParallelFilter = (*NL)(nil)
)

// NewNL returns a nested-loop filter with the given NNT depth. It checks
// every query vector against the stream's plain packed space.
func NewNL(depth int) *NL {
	return &NL{newVecJoin(depth,
		func(vecs []npv.PackedVector) []npv.PackedVector { return vecs },
		func(st *streamState) *streamState { return st },
		evalQuery)}
}

// Name implements core.Filter.
func (f *NL) Name() string { return "NPV-NL" }

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

var _ obs.Collector = (*NL)(nil)

// CollectMetrics implements obs.Collector with the nested-loop work and
// structure sizes: query/stream vector counts, scan totals, index postings,
// and the NNT node count the streams describe.
func (f *NL) CollectMetrics(emit func(name string, value float64)) {
	qvecs, svecs := f.collectShared(emit)
	emit("nntstream_nl_query_vectors", float64(qvecs))
	emit("nntstream_nl_vector_scans_total", float64(f.scans))
	emit("nntstream_nl_stream_vectors", float64(svecs))
}
