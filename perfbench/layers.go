package main

import (
	"fmt"
	"sort"
	"time"

	"nntstream/internal/factor"
	"nntstream/internal/npv"
	"nntstream/internal/qindex"
)

// layerResult is the outcome of a traced run.
type layerResult struct {
	metrics           map[string]metric
	attempted, failed int
	spans             int
	err               error // the traced run's gate
}

// counters is a reading of the process-global counters of the packed
// kernel, the query index and the factor memo.
type counters struct {
	domTests, sigRejects       int64
	qixCandidates, qixPruned   int64
	factorEvals, factorLookups int64
	factorRejects              int64
}

func readCounters() counters {
	var c counters
	c.domTests, c.sigRejects = npv.KernelCounters()
	c.qixCandidates, c.qixPruned = qindex.Counters()
	c.factorEvals, c.factorLookups, c.factorRejects = factor.Counters()
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		domTests: c.domTests - o.domTests, sigRejects: c.sigRejects - o.sigRejects,
		qixCandidates: c.qixCandidates - o.qixCandidates, qixPruned: c.qixPruned - o.qixPruned,
		factorEvals: c.factorEvals - o.factorEvals, factorLookups: c.factorLookups - o.factorLookups,
		factorRejects: c.factorRejects - o.factorRejects,
	}
}

// runTraced runs w untraced, then traced (same seed and schedule), then
// replays the stages, and derives the per-layer metrics. The global counters
// are read around the traced production run only.
func runTraced(w *workload, workdir, spansPath string) (*layerResult, error) {
	base, err := runProduction(w, workdir, 1, nil)
	if err != nil {
		return nil, err
	}
	if err := validate(w, base); err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	tr := newTracer()
	before := readCounters()
	traced, err := runProduction(w, workdir, 1, tr)
	if err != nil {
		return nil, err
	}
	delta := readCounters().sub(before)
	filterMetrics := tr.collectFilters()
	lr := &layerResult{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed}
	lr.err = validate(w, traced)

	spans := tr.Spans()
	lr.spans = len(spans)
	if err := writeSpans(spansPath, spans); err != nil {
		return nil, err
	}
	rp, err := stageReplay(w)
	if err != nil {
		return nil, err
	}
	lr.metrics = layerMetrics(spans, delta, filterMetrics, rp)
	addOverhead(lr.metrics, base, traced)
	lr.metrics["join.candidate_ratio"] = metric{ratio(float64(traced.pairs), float64(traced.slots)), "ratio"}
	return lr, nil
}

// collectFilters sums the filters' CollectMetrics emissions; for the factor
// table, which every shard holds a copy of, it keeps the largest.
func (t *tracer) collectFilters() map[string]float64 {
	t.mu.Lock()
	filters := append([]*tracedFilter(nil), t.filters...)
	t.mu.Unlock()
	out := make(map[string]float64)
	for _, f := range filters {
		f.CollectMetrics(func(name string, v float64) {
			if name == "nntstream_factor_factors" {
				out[name] = max(out[name], v)
				return
			}
			out[name] += v
		})
	}
	return out
}

// spanStats summarises the spans of one name.
type spanStats struct {
	calls       int
	total, self time.Duration
	durs        []time.Duration
	bytes       int64
}

func (s *spanStats) ms() float64     { return float64(s.total) / float64(time.Millisecond) }
func (s *spanStats) selfMS() float64 { return float64(s.self) / float64(time.Millisecond) }

// summarize groups spans by name and computes self times: a span's
// duration minus the union of its children's intervals within it.
func summarize(spans []Span) map[string]*spanStats {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStats)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.calls++
		st.total += time.Duration(s.dur())
		st.self += time.Duration(selfTime(s, children[s.ID]))
		st.durs = append(st.durs, time.Duration(s.dur()))
		st.bytes += s.Bytes
	}
	return out
}

// selfTime is s's duration minus the part covered by its children.
func selfTime(s Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return s.dur() - covered
}

// shardSkew is the mean over engine steps of the slowest shard's ApplyAll
// divided by the mean shard's.
func shardSkew(spans []Span) float64 {
	steps := make(map[int64]bool)
	for _, s := range spans {
		if s.Name == "core.step" {
			steps[s.ID] = true
		}
	}
	applies := make(map[int64][]int64)
	for _, s := range spans {
		if s.Name == "join.apply" && steps[s.Parent] {
			applies[s.Parent] = append(applies[s.Parent], s.dur())
		}
	}
	var sum float64
	n := 0
	for _, ds := range applies {
		var tot, hi int64
		for _, d := range ds {
			tot += d
			hi = max(hi, d)
		}
		if tot > 0 {
			sum += float64(hi) / (float64(tot) / float64(len(ds)))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration, n int64) float64 {
	return ratio(float64(d)/float64(time.Microsecond), float64(n))
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(spans []Span, c counters, fm map[string]float64, rp *replayResult) map[string]metric {
	st := summarize(spans)
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	srvIngest, srvRead, srvAdmin := get("server.ingest"), get("server.read"), get("server.admin")
	step := get("core.step")
	write, sync := get("wal.write"), get("wal.sync")
	apply, cands := get("join.apply"), get("join.candidates")
	writerRequests := srvIngest.calls + srvAdmin.calls
	requestSyncs := 0
	for _, s := range spans {
		if s.Name == "wal.sync" && s.Req != 0 {
			requestSyncs++
		}
	}
	joinReplayMS := float64(rp.joinTotal()) / float64(time.Millisecond)

	m := map[string]metric{
		"server.ingest.calls":       {float64(srvIngest.calls), "count"},
		"server.ingest.self_ms":     {srvIngest.selfMS(), "ms"},
		"server.ingest.p50_ms":      {percentile(srvIngest.durs, 0.50), "ms"},
		"server.ingest.p99_ms":      {percentile(srvIngest.durs, 0.99), "ms"},
		"server.read.calls":         {float64(srvRead.calls), "count"},
		"server.read.busy_ms":       {srvRead.ms(), "ms"},
		"server.read.p99_ms":        {percentile(srvRead.durs, 0.99), "ms"},
		"server.decode.us_per_step": {us(rp.decode, rp.steps), "us"},

		"core.step.calls":   {float64(step.calls), "count"},
		"core.step.self_ms": {step.selfMS(), "ms"},
		"core.step.p50_ms":  {percentile(step.durs, 0.50), "ms"},
		"core.step.p99_ms":  {percentile(step.durs, 0.99), "ms"},
		"core.shard_skew":   {shardSkew(spans), "ratio"},

		"wal.write.calls":        {float64(write.calls), "count"},
		"wal.write.bytes":        {float64(write.bytes), "bytes"},
		"wal.write.ms":           {write.ms(), "ms"},
		"wal.fsync.calls":        {float64(sync.calls), "count"},
		"wal.fsync.ms":           {sync.ms(), "ms"},
		"wal.fsync.p99_ms":       {percentile(sync.durs, 0.99), "ms"},
		"wal.fsyncs_per_request": {ratio(float64(requestSyncs), float64(writerRequests)), "ratio"},

		"join.apply.calls":     {float64(apply.calls), "count"},
		"join.apply.ms":        {apply.ms(), "ms"},
		"join.apply.p99_ms":    {percentile(apply.durs, 0.99), "ms"},
		"join.candidates.ms":   {cands.ms(), "ms"},
		"join.add_query.ms":    {get("join.add_query").ms(), "ms"},
		"join.remove_query.ms": {get("join.remove_query").ms(), "ms"},
		"join.pool.tasks":      {fm["nntstream_join_pool_parallel_tasks_total"], "count"},
		"join.pool.wait_ms":    {fm["nntstream_join_pool_task_wait_seconds_total"] * 1e3, "ms"},
		"join.dom_updates":     {fm["nntstream_dsc_dom_updates_total"], "count"},
		"join.unattributed_ms": {apply.ms() - joinReplayMS, "ms"},
		"replay.join_ms":       {joinReplayMS, "ms"},

		"nnt.apply.us_per_op": {us(rp.nnt, rp.ops), "us"},
		"nnt.nodes":           {fm["nntstream_filter_nnt_nodes"], "count"},

		"npv.seal.us_per_step":        {us(rp.seal, rp.steps), "us"},
		"npv.dirty_vertices_per_step": {ratio(float64(rp.dirty), float64(rp.steps)), "count"},
		"npv.dominates.us_per_step":   {us(rp.dominates, rp.steps), "us"},
		"npv.dominance_tests":         {float64(c.domTests), "count"},
		"npv.sig_reject_ratio":        {ratio(float64(c.sigRejects), float64(c.domTests)), "ratio"},

		"qindex.affected.us_per_call": {us(rp.qindex, rp.qindexCalls), "us"},
		"qindex.candidates":           {float64(c.qixCandidates), "count"},
		"qindex.prune_ratio":          {ratio(float64(c.qixPruned), float64(c.qixCandidates+c.qixPruned)), "ratio"},

		"factor.memo.us_per_step": {us(rp.memo, rp.steps), "us"},
		"factor.count":            {fm["nntstream_factor_factors"], "count"},
		"factor.evals":            {float64(c.factorEvals), "count"},
		"factor.lookups":          {float64(c.factorLookups), "count"},
		"factor.reject_ratio":     {ratio(float64(c.factorRejects), float64(c.factorLookups)), "ratio"},
	}
	return m
}

// addOverhead records the tracing overhead: traced minus untraced
// end-to-end figures of the same seed and schedule.
func addOverhead(m map[string]metric, base, traced *runResult) {
	b, t := endToEnd(base), endToEnd(traced)
	bu, tu := unbounded(base), unbounded(traced)
	m["trace.overhead.ingest_p50_ms"] = metric{t["ingest_p50_ms"].Value - b["ingest_p50_ms"].Value, "ms"}
	m["trace.overhead.ingest_p99_ms"] = metric{tu["ingest_p99_ms"].Value - bu["ingest_p99_ms"].Value, "ms"}
	m["trace.overhead.read_p99_ms"] = metric{tu["read_p99_ms"].Value - bu["read_p99_ms"].Value, "ms"}
	m["trace.overhead.capacity_frac"] = metric{
		1 - ratio(t["capacity_ops_per_s"].Value, b["capacity_ops_per_s"].Value), "ratio"}
}
