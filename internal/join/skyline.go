package join

import (
	"sort"

	"nntstream/internal/core"
	"nntstream/internal/factor"
	"nntstream/internal/graph"
	"nntstream/internal/npv"
	"nntstream/internal/obs"
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
// query live in the shared pipeline's qindex.Index (see vecJoin), so a
// changed stream re-evaluates only the queries whose verdict the dirty
// vertices' seal transitions could have flipped, instead of all of them.
type Skyline struct {
	vecJoin[*skyStream]
}

// skyStream is one stream's space plus its per-dimension statistics, kept
// in step with the space's sealed packed vectors by reconcile.
type skyStream struct {
	*streamState
	dims map[npv.Dim]*dimStat
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
	return &Skyline{newVecJoin(depth, maximalByMass,
		func(st *streamState) *skyStream {
			return &skyStream{streamState: st, dims: make(map[npv.Dim]*dimStat)}
		},
		evalMaximal)}
}

// Name implements core.Filter.
func (f *Skyline) Name() string { return "NPV-Skyline" }

// maximalByMass keeps only a query's maximal vectors — the ones that
// decide the verdict, so the only ones indexed and factored; the key's
// vertex slot holds the probe-order position — and orders them heaviest
// first: those are the least likely to be dominated, so a non-joinable
// pair is refuted early.
func maximalByMass(vecs []npv.PackedVector) []npv.PackedVector {
	maximal := skyline.MaximalPacked(vecs)
	sort.Slice(maximal, func(i, j int) bool { return maximal[i].L1() > maximal[j].L1() })
	return maximal
}

// reconcile seals the stream and folds the seal transitions into the
// per-dimension statistics, reading each vertex's registered vector from
// its transition's Old side instead of keeping a shadow copy. It mutates
// only ss, so distinct streams reconcile independently.
func (ss *skyStream) reconcile() []npv.DirtyDelta {
	deltas := ss.streamState.reconcile()
	// Deregister every dirty vertex's old entries. A dimension whose max
	// one of them held goes stale (max -1) until its max is recomputed.
	var stale []npv.Dim
	for _, dl := range deltas {
		for i := 0; dl.HadOld && i < dl.Old.Len(); i++ {
			d := dl.Old.Dim(i)
			stat := ss.dims[d]
			delete(stat.members, dl.Vertex)
			switch {
			case len(stat.members) == 0:
				delete(ss.dims, d)
			case dl.Old.Count(i) == stat.max:
				stat.max = -1
				stale = append(stale, d)
			}
		}
	}
	// Recompute each stale max over the members that remain. None of them
	// is dirty, so the sealed packed vector each holds is the one it was
	// registered with.
	for _, d := range stale {
		stat := ss.dims[d]
		if stat == nil {
			continue // emptied by a later deregistration
		}
		stat.max = 0
		for w := range stat.members {
			p, _ := ss.space.Packed(w)
			stat.max = max(stat.max, p.Get(d))
		}
	}
	// Register the new vectors; a retired vertex has none.
	for _, dl := range deltas {
		for i := 0; dl.HasNew && i < dl.New.Len(); i++ {
			d := dl.New.Dim(i)
			stat := ss.dims[d]
			if stat == nil {
				stat = &dimStat{members: make(map[graph.VertexID]struct{})}
				ss.dims[d] = stat
			}
			stat.members[dl.Vertex] = struct{}{}
			stat.max = max(stat.max, dl.New.Count(i))
		}
	}
	return deltas
}

// evalMaximal is the pure dominance check one pair task runs: it reads
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
		return ss.space.Len() > 0, 0
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
	// exactly the vertices registered by reconcile, whose space vectors were
	// sealed by the same reconcile step — Packed never misses here.
	var scanned int64
	for v := range probe.members {
		scanned++
		//lint:ignore hotalloc Packed's Pack() fallback only runs for dirty or cache-disabled vectors; the probe reads a space sealed by the same reconcile step, so it hits the packed cache allocation-free
		if p, ok := ss.space.Packed(v); ok && ss.memo.Dominated(v, p, u) {
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
	maximal, vecs := f.collectShared(emit)
	dims := 0
	for _, ss := range f.streams {
		dims += len(ss.dims)
	}
	emit("nntstream_skyline_maximal_query_vectors", float64(maximal))
	emit("nntstream_skyline_probe_scans_total", float64(f.scans))
	emit("nntstream_skyline_dimensions", float64(dims))
	emit("nntstream_skyline_stream_vectors", float64(vecs))
}
