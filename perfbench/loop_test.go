package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer acknowledges every ingest request with one step; the stallAt-th
// request (0-based) first waits stall.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"steps":1,"ops":0,"pairs":0}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func ingestSchedule(n int) func(i int) (*request, bool) {
	rq := request{kind: kindIngest, method: "POST", path: "/v1/ingest", body: []byte("{}\n"), id: -1}
	return func(i int) (*request, bool) { return &rq, i < n }
}

// TestOpenLoopCountsStall: a server that stalls once delays every request
// queued behind the stall, and latency timed from the due time shows it,
// while the generator itself is not late.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate    = 200 // one request due every 5ms
		stallAt = 10
		stall   = 200 * time.Millisecond
	)
	c := newClient(stubServer(t, stallAt, stall).URL)
	defer c.close()
	st := openLoop(ingestSchedule(60), rate, c.send, sleepUntil, nil)
	if st.failed != 0 {
		t.Fatalf("%d failures: %v", st.failed, st.errs)
	}
	lat := st.latency[kindIngest]
	if len(lat) != 60 || len(st.lateness) != 60 {
		t.Fatalf("%d latencies, %d lateness samples; want 60 each", len(lat), len(st.lateness))
	}
	// Request stallAt+k was due k intervals after the stalled one, so it
	// waited about stall - k*5ms before it could even be sent.
	for k := 1; k <= 20; k++ {
		want := stall - time.Duration(k)*5*time.Millisecond
		if got := lat[stallAt+k]; got < want-5*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least %v (the stall ahead of it)", stallAt+k, got, want)
		}
	}
	if got := lat[stallAt-1]; got > stall/4 {
		t.Errorf("request before the stall: latency %v, want far below %v", got, stall)
	}
	if p99 := percentile(st.lateness, 0.99); p99 > float64(maxLatenessP99/time.Millisecond) {
		t.Errorf("generator lateness p99 %.3f ms: the stall was charged to the generator", p99)
	}
	if err := checkLateness(st, "writer"); err != nil {
		t.Errorf("punctual run judged invalid: %v", err)
	}
}

// TestLateGeneratorInvalid: a generator that oversleeps every due time
// reports the lateness, and the run fails as invalid.
func TestLateGeneratorInvalid(t *testing.T) {
	c := newClient(stubServer(t, -1, 0).URL)
	defer c.close()
	oversleep := func(due time.Time) { sleepUntil(due.Add(2 * maxLatenessP99)) }
	// At 10/s each request is due long after the previous answer, so the
	// oversleep is all lateness.
	st := openLoop(ingestSchedule(10), 10, c.send, oversleep, nil)
	if p99 := percentile(st.lateness, 0.99); p99 < float64(2*maxLatenessP99/time.Millisecond) {
		t.Fatalf("lateness p99 %.3f ms, want at least %v", p99, 2*maxLatenessP99)
	}
	if err := checkLateness(st, "writer"); err == nil {
		t.Fatal("a generator running late was not judged invalid")
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 1000; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(ds, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 ms = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(ds, 0.5); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
}
