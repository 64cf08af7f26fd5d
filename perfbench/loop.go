package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// maxLatenessP99 is the validity bound on the generator: when the p99 of
// how late a request went out (after it was due and the connection was
// free) exceeds it, the generator rather than the server set the schedule,
// and the run is invalid.
const maxLatenessP99 = 50 * time.Millisecond

// loopStats is what one generator loop observed.
type loopStats struct {
	// latency holds each request's latency by kind: from its due time
	// (open loop) or its send time (closed loop) to the end of its response.
	latency [numKinds][]time.Duration
	// start holds, parallel to latency, the time each latency is timed
	// from.
	start [numKinds][]time.Time
	// lateness holds how late each request went out: send time minus the
	// later of its due time and the previous response on the connection.
	lateness  []time.Duration
	attempted int
	failed    int
	ops       int64 // edge ops carried by successful ingest requests
	// pairs sums the candidate pairs the acknowledged ingest steps
	// reported; slots sums streams × registered queries over those steps.
	pairs, slots int64
	elapsed      time.Duration
	errs         []error // the first few failures, for the report
}

func (s *loopStats) record(rq *request, start time.Time, lat time.Duration, pairs int, err error) {
	s.attempted++
	s.latency[rq.kind] = append(s.latency[rq.kind], lat)
	s.start[rq.kind] = append(s.start[rq.kind], start)
	if err != nil {
		s.failed++
		if len(s.errs) < 5 {
			s.errs = append(s.errs, fmt.Errorf("%s %s: %w", rq.method, rq.path, err))
		}
		return
	}
	s.ops += int64(rq.ops)
	s.pairs += int64(pairs)
	s.slots += int64(rq.slots)
}

// merge folds o into s.
func (s *loopStats) merge(o *loopStats) {
	for k := range o.latency {
		s.latency[k] = append(s.latency[k], o.latency[k]...)
		s.start[k] = append(s.start[k], o.start[k]...)
	}
	s.lateness = append(s.lateness, o.lateness...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.ops += o.ops
	s.pairs += o.pairs
	s.slots += o.slots
	s.elapsed += o.elapsed
	s.errs = append(s.errs, o.errs...)
}

// sendFunc sends one request and checks its answer; an acknowledged ingest
// step returns the candidate pairs it reported.
type sendFunc func(rq *request) (pairs int, err error)

// openLoop sends next(0), next(1), … on one connection, request i due at
// start + i/rate, until next reports no more requests or stop is closed.
// Each latency is timed from the due time, so a stall also counts against
// every request queued behind it. sleepUntil waits for a due time; tests
// substitute one that oversleeps.
func openLoop(next func(i int) (*request, bool), rate float64, send sendFunc,
	sleepUntil func(time.Time), stop <-chan struct{}) *loopStats {
	st := &loopStats{}
	start := time.Now()
	free := start
	for i := 0; ; i++ {
		rq, ok := next(i)
		if !ok {
			break
		}
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		select {
		case <-stop:
			st.elapsed = time.Since(start)
			return st
		default:
		}
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		st.lateness = append(st.lateness, sent.Sub(ready))
		pairs, err := send(rq)
		free = time.Now()
		st.record(rq, due, free.Sub(due), pairs, err)
	}
	st.elapsed = time.Since(start)
	return st
}

// closedLoop sends reqs back to back on one connection.
func closedLoop(reqs []request, send sendFunc) *loopStats {
	st := &loopStats{}
	start := time.Now()
	for i := range reqs {
		t0 := time.Now()
		pairs, err := send(&reqs[i])
		st.record(&reqs[i], t0, time.Since(t0), pairs, err)
	}
	st.elapsed = time.Since(start)
	return st
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// client is one keep-alive connection to the server under test.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends rq and returns the status and body.
func (c *client) do(rq *request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, c.base+rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// send issues rq and checks the answer the server must give it.
func (c *client) send(rq *request) (int, error) {
	status, data, err := c.do(rq)
	if err != nil {
		return 0, err
	}
	want := http.StatusOK
	if rq.kind == kindAddQuery || rq.kind == kindAddStream {
		want = http.StatusCreated
	}
	if status != want {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(data))
	}
	switch rq.kind {
	case kindIngest:
		var ack struct{ Steps, Ops, Pairs int }
		if err := json.Unmarshal(data, &ack); err != nil {
			return 0, fmt.Errorf("ingest ack: %w", err)
		}
		if ack.Steps != 1 || ack.Ops != rq.ops {
			return 0, fmt.Errorf("ingest ack %+v, want 1 step and %d ops", ack, rq.ops)
		}
		return ack.Pairs, nil
	case kindAddQuery, kindAddStream:
		var ack struct{ ID int }
		if err := json.Unmarshal(data, &ack); err != nil {
			return 0, fmt.Errorf("registration ack: %w", err)
		}
		if ack.ID != rq.id {
			return 0, fmt.Errorf("assigned id %d, want %d", ack.ID, rq.id)
		}
	}
	return 0, nil
}

// latencyWhere returns the latencies of kind k whose start satisfies keep.
func (s *loopStats) latencyWhere(k reqKind, keep func(time.Time) bool) []time.Duration {
	var out []time.Duration
	for i, t := range s.start[k] {
		if keep(t) {
			out = append(out, s.latency[k][i])
		}
	}
	return out
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds in
// milliseconds; ds need not be sorted. It returns 0 for no samples.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return float64(s[rank]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
