package core

import (
	"fmt"
	"time"

	"nntstream/internal/graph"
	"nntstream/internal/iso"
	"nntstream/internal/obs"
)

// Monitor drives a Filter over a workload of queries and streams, keeps the
// canonical stream graphs for verification, and accumulates timing and
// effectiveness statistics.
//
// Monitor is not safe for concurrent mutation; callers (see internal/server)
// serialize writes. Concurrent read-only calls (Candidates, Stats) are safe
// provided no mutating call runs at the same time and the wrapped filter's
// Candidates does not mutate observable state (the Filter contract).
type Monitor struct {
	filter   Filter
	queries  map[QueryID]*graph.Graph
	matchers map[QueryID]*iso.Matcher
	streams  map[StreamID]*graph.Graph
	nextQ    QueryID
	nextS    StreamID
	sealed   bool // set once the first stream is added; no more queries
	stats    Stats
	metrics  *EngineMetrics
}

// Stats accumulates per-run measurements.
type Stats struct {
	// Timestamps is the number of StepAll/Step rounds processed.
	Timestamps int
	// FilterTime is the total wall time spent inside the filter's Apply
	// and Candidates calls.
	FilterTime time.Duration
	// CandidatePairs sums the number of reported pairs over all rounds.
	CandidatePairs int64
	// TotalPairs sums streams×queries over all rounds.
	TotalPairs int64
}

// AvgTimePerTimestamp returns FilterTime divided by rounds.
func (s Stats) AvgTimePerTimestamp() time.Duration {
	if s.Timestamps == 0 {
		return 0
	}
	return s.FilterTime / time.Duration(s.Timestamps)
}

// CandidateRatio is the fraction of all (stream, query) pairs reported as
// candidates, averaged over the run — the paper's "candidate size" metric.
func (s Stats) CandidateRatio() float64 {
	if s.TotalPairs == 0 {
		return 0
	}
	return float64(s.CandidatePairs) / float64(s.TotalPairs)
}

// NewMonitor wraps a filter.
func NewMonitor(f Filter) *Monitor {
	return &Monitor{
		filter:   f,
		queries:  make(map[QueryID]*graph.Graph),
		matchers: make(map[QueryID]*iso.Matcher),
		streams:  make(map[StreamID]*graph.Graph),
	}
}

// Filter returns the wrapped filter.
func (m *Monitor) Filter() Filter { return m.filter }

// SetMetrics attaches registry instruments; subsequent StepAll rounds record
// into them. A nil argument detaches.
func (m *Monitor) SetMetrics(em *EngineMetrics) { m.metrics = em }

// CollectMetrics implements obs.Collector by delegating to the wrapped
// filter when it is itself a collector.
func (m *Monitor) CollectMetrics(emit func(name string, value float64)) {
	if c, ok := m.filter.(obs.Collector); ok {
		c.CollectMetrics(emit)
	}
}

// AddQuery registers a query pattern. The paper's base model fixes the
// query set before streaming starts; filters implementing DynamicFilter
// (its stated future work) also accept queries while streams are live.
func (m *Monitor) AddQuery(q *graph.Graph) (QueryID, error) {
	if m.sealed {
		if _, ok := m.filter.(DynamicFilter); !ok {
			return 0, fmt.Errorf("core: filter %s: %w", m.filter.Name(), ErrSealed)
		}
	}
	// The ID is allocated only on success so a failed add leaks nothing.
	id := m.nextQ
	if err := m.replayAddQuery(id, q); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddQuery registers a query under an explicit ID — the restore path
// used by snapshot loading and WAL replay, which must reproduce historical ID
// assignments exactly (including gaps left by removed queries). It skips the
// seal check: the log only ever contains operations that were accepted, so
// replay trusts it.
func (m *Monitor) replayAddQuery(id QueryID, q *graph.Graph) error {
	if _, dup := m.queries[id]; dup {
		return fmt.Errorf("core: duplicate query id %d", id)
	}
	if err := m.filter.AddQuery(id, q); err != nil {
		return err
	}
	m.queries[id] = q.Clone()
	m.matchers[id] = iso.NewMatcher(m.queries[id])
	if id >= m.nextQ {
		m.nextQ = id + 1
	}
	return nil
}

// RemoveQuery deregisters a pattern. It requires a DynamicFilter.
func (m *Monitor) RemoveQuery(id QueryID) error {
	df, ok := m.filter.(DynamicFilter)
	if !ok {
		return fmt.Errorf("core: filter %s query removal: %w", m.filter.Name(), ErrUnsupported)
	}
	if _, ok := m.queries[id]; !ok {
		return fmt.Errorf("core: %w %d", ErrUnknownQuery, id)
	}
	if err := df.RemoveQuery(id); err != nil {
		return err
	}
	delete(m.queries, id)
	delete(m.matchers, id)
	return nil
}

// AddStream registers a stream with starting graph g0.
func (m *Monitor) AddStream(g0 *graph.Graph) (StreamID, error) {
	m.sealed = true
	id := m.nextS
	if err := m.replayAddStream(id, g0); err != nil {
		return 0, err
	}
	return id, nil
}

// replayAddStream registers a stream under an explicit ID — the restore path
// used by snapshot loading and WAL replay.
func (m *Monitor) replayAddStream(id StreamID, g0 *graph.Graph) error {
	if _, dup := m.streams[id]; dup {
		return fmt.Errorf("core: duplicate stream id %d", id)
	}
	if err := m.filter.AddStream(id, g0); err != nil {
		return err
	}
	m.sealed = true
	m.streams[id] = g0.Clone()
	if id >= m.nextS {
		m.nextS = id + 1
	}
	return nil
}

// QueryCount and StreamCount report workload sizes.
func (m *Monitor) QueryCount() int  { return len(m.queries) }
func (m *Monitor) StreamCount() int { return len(m.streams) }

// StreamGraph returns the canonical current graph of a stream. Callers must
// not mutate it.
func (m *Monitor) StreamGraph(id StreamID) *graph.Graph { return m.streams[id] }

// Query returns a registered query graph. Callers must not mutate it.
func (m *Monitor) Query(id QueryID) *graph.Graph { return m.queries[id] }

// StepAll advances one global timestamp: each entry applies a change set to
// one stream (streams without an entry are unchanged), then the filter's
// candidate set is collected. It returns the candidates and records stats.
//
// The step is atomic with respect to validation: every change set is first
// applied to a clone of its canonical graph, and any failure rejects the
// whole batch before the filter sees a single operation, so a mid-batch
// error can never leave the filter and the canonical graphs diverged. Only
// after all clones validate is the batch handed to the filter, and only
// after the filter accepts it are the validated clones swapped in as the
// new canonical graphs.
func (m *Monitor) StepAll(changes map[StreamID]graph.ChangeSet) ([]Pair, error) {
	staged, norms, err := stageChanges(m.streams, changes)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := applyBatch(m.filter, norms); err != nil {
		return nil, fmt.Errorf("core: filter %s %w", m.filter.Name(), err)
	}
	applyDur := time.Since(start)
	for id, g := range staged {
		m.streams[id] = g
	}
	start = time.Now()
	cands := m.filter.Candidates()
	collectDur := time.Since(start)
	m.stats.FilterTime += applyDur + collectDur
	m.stats.Timestamps++
	m.stats.CandidatePairs += int64(len(cands))
	m.stats.TotalPairs += int64(len(m.streams) * len(m.queries))
	m.metrics.observeStep(applyDur, collectDur, len(cands), m.stats, len(m.streams), len(m.queries))
	return cands, nil
}

// Step advances a single stream by one timestamp.
func (m *Monitor) Step(id StreamID, cs graph.ChangeSet) ([]Pair, error) {
	return m.StepAll(map[StreamID]graph.ChangeSet{id: cs})
}

// stageChanges validates a StepAll batch against the canonical graphs
// without mutating them: each change set is normalized and applied to a
// clone. On success it returns the staged post-state graphs and the
// normalized change sets; on any failure nothing has been touched, which is
// what makes StepAll all-or-nothing up to the filter boundary.
func stageChanges(streams map[StreamID]*graph.Graph, changes map[StreamID]graph.ChangeSet) (map[StreamID]*graph.Graph, map[StreamID]graph.ChangeSet, error) {
	staged := make(map[StreamID]*graph.Graph, len(changes))
	norms := make(map[StreamID]graph.ChangeSet, len(changes))
	for id, cs := range changes {
		g, ok := streams[id]
		if !ok {
			return nil, nil, fmt.Errorf("core: %w %d", ErrUnknownStream, id)
		}
		norm := cs.Normalize()
		clone := g.Clone()
		if err := norm.Apply(clone); err != nil {
			return nil, nil, fmt.Errorf("core: invalid change set for stream %d: %w", id, err)
		}
		staged[id] = clone
		norms[id] = norm
	}
	return staged, norms, nil
}

// Candidates returns the filter's current candidate pairs without advancing
// time or recording stats.
func (m *Monitor) Candidates() []Pair { return m.filter.Candidates() }

// ExactPairs computes the ground-truth joinable pairs with subgraph
// isomorphism over the canonical graphs. It is exponential in the worst
// case and intended for evaluation, not the monitoring hot path.
func (m *Monitor) ExactPairs() []Pair {
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

// VerifyNoFalseNegatives checks that every exact pair is reported by the
// filter, returning the missed pairs (empty means the filter is sound at
// this timestamp).
func (m *Monitor) VerifyNoFalseNegatives() []Pair {
	cands := make(map[Pair]bool)
	for _, p := range m.filter.Candidates() {
		cands[p] = true
	}
	var missed []Pair
	for _, p := range m.ExactPairs() {
		if !cands[p] {
			missed = append(missed, p)
		}
	}
	return missed
}

// FalsePositives returns the currently reported pairs that are not exact
// matches.
func (m *Monitor) FalsePositives() []Pair {
	exact := make(map[Pair]bool)
	for _, p := range m.ExactPairs() {
		exact[p] = true
	}
	var fps []Pair
	for _, p := range m.filter.Candidates() {
		if !exact[p] {
			fps = append(fps, p)
		}
	}
	return SortPairs(fps)
}

// Stats returns accumulated statistics.
func (m *Monitor) Stats() Stats { return m.stats }

// ResetStats zeroes the statistics (e.g. after a warm-up phase).
func (m *Monitor) ResetStats() { m.stats = Stats{} }

// engineState is the logical state a checkpoint persists: the query and
// canonical stream graphs plus the ID allocators. Filters are deterministic
// functions of this state and are rebuilt on restore.
type engineState struct {
	queries map[QueryID]*graph.Graph
	streams map[StreamID]*graph.Graph
	nextQ   QueryID
	nextS   StreamID
}

// checkpointState exposes the monitor's logical state for checkpointing. The
// returned maps and graphs are shared, not copied: the caller (the durable
// engine) holds its write-exclusion lock across serialization.
func (m *Monitor) checkpointState() engineState {
	return engineState{queries: m.queries, streams: m.streams, nextQ: m.nextQ, nextS: m.nextS}
}

// nextIDs reports the IDs the next AddQuery/AddStream would assign — the
// durable engine logs an operation's ID before applying it.
func (m *Monitor) nextIDs() (QueryID, StreamID) { return m.nextQ, m.nextS }

// setNextIDs raises the ID allocators (never lowers them), restoring
// top-of-range gaps a checkpoint recorded (e.g. the highest query was
// removed before the checkpoint).
func (m *Monitor) setNextIDs(q QueryID, s StreamID) {
	if q > m.nextQ {
		m.nextQ = q
	}
	if s > m.nextS {
		m.nextS = s
	}
}

// applyBatch hands one timestamp's validated change sets to a filter:
// whole, when it is a BatchApplier that fans the (stream, query)
// re-evaluation out internally, else stream by stream. Both engines step
// through it and swap their staged graphs in only once it returns nil.
func applyBatch(f Filter, changes map[StreamID]graph.ChangeSet) error {
	if ba, ok := f.(BatchApplier); ok {
		if err := ba.ApplyAll(changes); err != nil {
			return fmt.Errorf("batch apply: %w", err)
		}
		return nil
	}
	for id, cs := range changes {
		if err := f.Apply(id, cs); err != nil {
			return fmt.Errorf("apply on stream %d: %w", id, err)
		}
	}
	return nil
}
