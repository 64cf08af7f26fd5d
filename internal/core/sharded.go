package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/obs"
)

// FilterFactory builds one filter instance per shard.
type FilterFactory func() Filter

// ShardedMonitor runs continuous subgraph search across multiple CPU cores:
// streams are partitioned over independent filter instances (filters keep
// per-stream state, so sharding by stream is exact — every shard sees all
// queries and produces the candidates of its own streams), and one global
// timestamp fans the per-stream change sets out to the shards in parallel.
//
// The candidate set of a ShardedMonitor is identical to a single Monitor
// over the same filter type; only wall-clock time differs.
//
// Unlike Monitor, ShardedMonitor is safe for concurrent use: mutating calls
// (AddQuery, AddStream, RemoveQuery, StepAll) serialize behind a write lock,
// while the read paths (Candidates, Stats, ExactPairs, CollectMetrics) share
// a read lock and may run concurrently with one another. Filters must honor
// the Filter contract that Candidates does not mutate observable state (or
// must synchronize internally), because concurrent readers fan out to the
// same filter instances.
type ShardedMonitor struct {
	mu       sync.RWMutex
	filters  []Filter
	workers  int   // per-shard evaluation workers handed to ParallelFilters
	loads    []int // streams placed per shard, for least-loaded placement
	shardOf  map[StreamID]int
	queries  map[QueryID]*graph.Graph
	matchers map[QueryID]*iso.Matcher
	streams  map[StreamID]*graph.Graph
	nextQ    QueryID
	nextS    StreamID
	sealed   bool
	stats    Stats
	metrics  *EngineMetrics
}

// ShardedOptions configures a ShardedMonitor beyond the defaults.
type ShardedOptions struct {
	// Shards is the filter instance count; 0 uses GOMAXPROCS.
	Shards int
	// Workers bounds the per-shard evaluation pool handed to filters that
	// implement ParallelFilter. 0 sizes it to max(1, GOMAXPROCS/shards),
	// so the shard fan-out times the in-shard fan-out tracks the machine's
	// parallelism instead of oversubscribing it; 1 forces the sequential
	// in-shard path. Filters that are not ParallelFilters ignore it.
	Workers int
}

// NewShardedMonitor creates shards filter instances (0 uses GOMAXPROCS)
// with default per-shard evaluation workers.
func NewShardedMonitor(factory FilterFactory, shards int) *ShardedMonitor {
	return NewShardedMonitorWith(factory, ShardedOptions{Shards: shards})
}

// NewShardedMonitorWith creates a sharded engine with explicit options.
func NewShardedMonitorWith(factory FilterFactory, opts ShardedOptions) *ShardedMonitor {
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / shards
		if workers < 1 {
			workers = 1
		}
	}
	m := &ShardedMonitor{
		workers:  workers,
		loads:    make([]int, shards),
		shardOf:  make(map[StreamID]int),
		queries:  make(map[QueryID]*graph.Graph),
		matchers: make(map[QueryID]*iso.Matcher),
		streams:  make(map[StreamID]*graph.Graph),
	}
	for i := 0; i < shards; i++ {
		f := factory()
		if pf, ok := f.(ParallelFilter); ok {
			pf.SetWorkers(workers)
		}
		m.filters = append(m.filters, f)
	}
	return m
}

// Workers reports the per-shard evaluation worker bound.
func (m *ShardedMonitor) Workers() int { return m.workers }

// Shards reports the number of filter instances.
func (m *ShardedMonitor) Shards() int { return len(m.filters) }

// QueryCount and StreamCount report workload sizes.
func (m *ShardedMonitor) QueryCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.queries)
}

func (m *ShardedMonitor) StreamCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.streams)
}

// SetMetrics attaches registry instruments; subsequent StepAll rounds record
// into them. A nil argument detaches.
func (m *ShardedMonitor) SetMetrics(em *EngineMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = em
}

// AddQuery registers a pattern with every shard. As with Monitor, queries
// after the first stream require the filters to be DynamicFilters.
//
// Registration is all-or-nothing: when a shard rejects the query, the shards
// that already accepted it roll it back (via DynamicFilter.RemoveQuery when
// the filter supports removal), so no shard is left holding a query the
// others never saw.
func (m *ShardedMonitor) AddQuery(q *graph.Graph) (QueryID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		if _, ok := m.filters[0].(DynamicFilter); !ok {
			return 0, fmt.Errorf("core: filter %s: %w", m.filters[0].Name(), ErrSealed)
		}
	}
	id := m.nextQ
	if err := m.addQueryLocked(id, q); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddQuery registers a query under an explicit ID — the restore path
// used by snapshot loading and WAL replay. It skips the seal check: the log
// only ever contains operations that were accepted.
func (m *ShardedMonitor) replayAddQuery(id QueryID, q *graph.Graph) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addQueryLocked(id, q)
}

// addQueryLocked registers a query on every shard all-or-nothing: when a
// shard rejects the query, the shards that already accepted it roll it back
// (via DynamicFilter.RemoveQuery when the filter supports removal), so no
// shard is left holding a query the others never saw. Callers hold m.mu.
func (m *ShardedMonitor) addQueryLocked(id QueryID, q *graph.Graph) error {
	if _, dup := m.queries[id]; dup {
		return fmt.Errorf("core: duplicate query id %d", id)
	}
	for k, f := range m.filters {
		if err := f.AddQuery(id, q); err != nil {
			for j := k - 1; j >= 0; j-- {
				df, ok := m.filters[j].(DynamicFilter)
				if !ok {
					// Non-dynamic filters cannot be rolled back; this can
					// only happen pre-seal, where the engine is still
					// unusable until a consistent AddQuery succeeds, and
					// identical instances almost always fail on shard 0
					// (before any shard accepted) anyway.
					break
				}
				if rerr := df.RemoveQuery(id); rerr != nil {
					return fmt.Errorf("core: shard %d rejected query (%v); rollback on shard %d failed: %w", k, err, j, rerr)
				}
			}
			return fmt.Errorf("core: shard %d: %w", k, err)
		}
	}
	m.queries[id] = q.Clone()
	m.matchers[id] = iso.NewMatcher(m.queries[id])
	if id >= m.nextQ {
		m.nextQ = id + 1
	}
	return nil
}

// RemoveQuery deregisters a pattern from every shard (DynamicFilter only).
func (m *ShardedMonitor) RemoveQuery(id QueryID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.queries[id]; !ok {
		return fmt.Errorf("core: %w %d", ErrUnknownQuery, id)
	}
	for _, f := range m.filters {
		df, ok := f.(DynamicFilter)
		if !ok {
			return fmt.Errorf("core: filter %s query removal: %w", f.Name(), ErrUnsupported)
		}
		if err := df.RemoveQuery(id); err != nil {
			return err
		}
	}
	delete(m.queries, id)
	delete(m.matchers, id)
	return nil
}

// AddStream registers a stream on the least-loaded shard (fewest streams,
// ties broken by lowest shard index, so placement is deterministic).
func (m *ShardedMonitor) AddStream(g0 *graph.Graph) (StreamID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextS
	if err := m.addStreamLocked(id, g0); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddStream registers a stream under an explicit ID — the restore path
// used by snapshot loading and WAL replay. Placement re-runs the same
// deterministic least-loaded rule, so a replayed engine reproduces the
// original shard assignment as long as operations arrive in log order.
func (m *ShardedMonitor) replayAddStream(id StreamID, g0 *graph.Graph) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.addStreamLocked(id, g0)
}

// addStreamLocked places a stream on the least-loaded shard (fewest streams,
// ties broken by lowest shard index, so placement is deterministic). Callers
// hold m.mu.
func (m *ShardedMonitor) addStreamLocked(id StreamID, g0 *graph.Graph) error {
	if _, dup := m.streams[id]; dup {
		return fmt.Errorf("core: duplicate stream id %d", id)
	}
	m.sealed = true
	shard := 0
	for i := 1; i < len(m.loads); i++ {
		if m.loads[i] < m.loads[shard] {
			shard = i
		}
	}
	if err := m.filters[shard].AddStream(id, g0); err != nil {
		return err
	}
	m.loads[shard]++
	m.shardOf[id] = shard
	m.streams[id] = g0.Clone()
	if id >= m.nextS {
		m.nextS = id + 1
	}
	return nil
}

// StepAll advances one global timestamp, applying each stream's change set
// on its shard; shards run concurrently.
//
// As with Monitor.StepAll, the step is atomic with respect to validation:
// every change set is applied to a clone of its canonical graph first, and
// any failure rejects the whole batch before a single shard sees an
// operation. Only validated batches fan out, so a mid-batch error can never
// leave some shards stepped and others not.
func (m *ShardedMonitor) StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	staged, norms, err := stageChanges(m.streams, changes)
	if err != nil {
		return nil, err
	}
	perShard := make([]map[StreamID]graph.ChangeSet, len(m.filters))
	for id, norm := range norms {
		shard := m.shardOf[id] // staging verified the stream exists
		if perShard[shard] == nil {
			perShard[shard] = make(map[StreamID]graph.ChangeSet)
		}
		perShard[shard][id] = norm
	}

	start := time.Now()
	if err := m.applyShards(perShard); err != nil {
		return nil, err
	}
	applyDur := time.Since(start)
	start = time.Now()
	cands := m.collect()
	collectDur := time.Since(start)
	m.stats.FilterTime += applyDur + collectDur

	// Swap in the staged post-state graphs as the new canonical graphs
	// (outside the timed section, matching Monitor's accounting of filter
	// time only).
	for id, g := range staged {
		m.streams[id] = g
	}
	m.stats.Timestamps++
	m.stats.CandidatePairs += int64(len(cands))
	m.stats.TotalPairs += int64(len(m.streams) * len(m.queries))
	m.metrics.observeStep(applyDur, collectDur, len(cands), m.stats, len(m.streams), len(m.queries))
	return cands, nil
}

// applyShards applies each shard's validated change sets on one goroutine
// per shard and joins them, returning the first shard error in shard order.
// Callers hold m.mu.
//
//nnt:nonblocking waits only for the shard appliers, which run the filters' compute-bound Apply paths and take no locks
func (m *ShardedMonitor) applyShards(perShard []map[StreamID]graph.ChangeSet) error {
	errs := make([]error, len(m.filters))
	var wg sync.WaitGroup
	for i, f := range m.filters {
		if perShard[i] == nil {
			continue
		}
		wg.Add(1)
		go func(i int, f Filter) {
			defer wg.Done()
			if err := applyBatch(f, perShard[i]); err != nil {
				errs[i] = fmt.Errorf("core: shard %d: %w", i, err)
			}
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect merges the shards' candidate sets concurrently. Callers hold at
// least a read lock; the per-shard goroutines only invoke the filters'
// Candidates, which the Filter contract requires to be read-safe.
//
//nnt:nonblocking waits only for the shards' Candidates fan-out, which is compute-bound and lock-free by the Filter contract
func (m *ShardedMonitor) collect() []Pair {
	parts := make([][]Pair, len(m.filters))
	var wg sync.WaitGroup
	for i, f := range m.filters {
		wg.Add(1)
		go func(i int, f Filter) {
			defer wg.Done()
			parts[i] = f.Candidates()
		}(i, f)
	}
	wg.Wait()
	var out []Pair
	for _, p := range parts {
		out = append(out, p...)
	}
	return SortPairs(out)
}

// Candidates returns the current merged candidate set.
func (m *ShardedMonitor) Candidates() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.collect()
}

// exactPairs computes ground truth over the canonical graphs; callers hold
// at least a read lock.
func (m *ShardedMonitor) exactPairs() []Pair {
	var out []Pair
	for sid, g := range m.streams {
		for qid, matcher := range m.matchers {
			if matcher.Contains(g) {
				out = append(out, Pair{Stream: sid, Query: qid})
			}
		}
	}
	return SortPairs(out)
}

// ExactPairs computes ground truth over the canonical graphs.
func (m *ShardedMonitor) ExactPairs() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.exactPairs()
}

// VerifyNoFalseNegatives returns any exact pairs missing from the merged
// candidate set.
func (m *ShardedMonitor) VerifyNoFalseNegatives() []Pair {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cands := make(map[Pair]bool)
	for _, p := range m.collect() {
		cands[p] = true
	}
	var missed []Pair
	for _, p := range m.exactPairs() {
		if !cands[p] {
			missed = append(missed, p)
		}
	}
	return missed
}

// Stats returns accumulated statistics.
func (m *ShardedMonitor) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// checkpointState exposes the logical state for checkpointing; the maps and
// graphs are shared, not copied — the durable engine excludes writers for
// the duration of serialization.
func (m *ShardedMonitor) checkpointState() engineState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return engineState{queries: m.queries, streams: m.streams, nextQ: m.nextQ, nextS: m.nextS}
}

// nextIDs reports the IDs the next AddQuery/AddStream would assign.
func (m *ShardedMonitor) nextIDs() (QueryID, StreamID) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nextQ, m.nextS
}

// setNextIDs raises the ID allocators (never lowers them), restoring
// top-of-range gaps a checkpoint recorded.
func (m *ShardedMonitor) setNextIDs(q QueryID, s StreamID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q > m.nextQ {
		m.nextQ = q
	}
	if s > m.nextS {
		m.nextS = s
	}
}

// CollectMetrics implements obs.Collector: the per-shard emissions of
// collector filters are forwarded (the obs.Gather caller sums duplicate
// names across shards), plus shard-level placement gauges.
func (m *ShardedMonitor) CollectMetrics(emit func(name string, value float64)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	emit("nntstream_engine_shards", float64(len(m.filters)))
	emit("nntstream_engine_shard_workers", float64(m.workers))
	maxLoad := 0
	for _, l := range m.loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	emit("nntstream_engine_shard_streams_max", float64(maxLoad))
	for _, f := range m.filters {
		if c, ok := f.(obs.Collector); ok {
			c.CollectMetrics(emit)
		}
	}
}
