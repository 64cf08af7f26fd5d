package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/graph"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// Span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer started. Spans of one HTTP request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard,omitempty"` // 1-based filter instance of join spans
	Bytes  int64  `json:"bytes,omitempty"` // payload of wal.write
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer records spans at the layer boundaries the benchmark can reach from
// outside the program: an HTTP middleware (server), a decorator over the
// engine (core), a decorator over each filter (join) and a wrapper around the
// WAL file (wal).
//
// Go has no goroutine-local context and the engine's interfaces carry none,
// so a child finds its parent through "open span" slots. That is exact for
// the benchmark's traffic: one writer and one reader connection, and the
// server applies every engine call under its readers-writer lock, so at most
// one writer request, one reader request and one engine call are open at a
// time. Filter and WAL calls nest inside the open engine call.
type tracer struct {
	origin  time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64
	// write and read hold the open server span of the writer and the
	// reader connection; engine the open engine call.
	write, read, engine atomic.Pointer[Span]

	mu      sync.Mutex
	spans   []Span
	filters []*tracedFilter
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the span open in parent (a root when none is).
func (t *tracer) begin(name string, parent *atomic.Pointer[Span]) *Span {
	s := &Span{ID: t.nextID.Add(1), Name: name}
	if parent != nil {
		if p := parent.Load(); p != nil {
			s.Parent, s.Req = p.ID, p.Req
		}
	}
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *Span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// Spans returns the recorded spans in completion order.
func (t *tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// middleware wraps the server's handler: every request is a root span with
// a new request id.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, slot := "server.admin", &t.write
		switch {
		case r.Method == http.MethodGet:
			name, slot = "server.read", &t.read
		case r.URL.Path == "/v1/ingest":
			name = "server.ingest"
		}
		s := t.begin(name, nil)
		s.Req = t.nextReq.Add(1)
		slot.Store(s)
		defer func() {
			slot.CompareAndSwap(s, nil)
			t.end(s)
		}()
		h.ServeHTTP(w, r)
	})
}

// call runs fn as a span named name under parent, and publishes it as the
// open engine call while fn runs.
func (t *tracer) call(name string, parent *atomic.Pointer[Span], fn func()) {
	s := t.begin(name, parent)
	t.engine.Store(s)
	fn()
	t.engine.CompareAndSwap(s, nil)
	t.end(s)
}

// tracedEngine decorates the server.Engine and server.BatchStepper surface
// of the durable engine.
type tracedEngine struct {
	t *tracer
	d *core.DurableEngine
}

var (
	_ server.Engine       = (*tracedEngine)(nil)
	_ server.BatchStepper = (*tracedEngine)(nil)
	_ server.QueryRemover = (*tracedEngine)(nil)
)

func (e *tracedEngine) AddQuery(q *graph.Graph) (id core.QueryID, err error) {
	e.t.call("core.add_query", &e.t.write, func() { id, err = e.d.AddQuery(q) })
	return
}

func (e *tracedEngine) RemoveQuery(id core.QueryID) (err error) {
	e.t.call("core.remove_query", &e.t.write, func() { err = e.d.RemoveQuery(id) })
	return
}

func (e *tracedEngine) AddStream(g0 *graph.Graph) (id core.StreamID, err error) {
	e.t.call("core.add_stream", &e.t.write, func() { id, err = e.d.AddStream(g0) })
	return
}

func (e *tracedEngine) StepAll(changes map[core.StreamID]graph.ChangeSet) (ps []core.Pair, err error) {
	e.t.call("core.step", &e.t.write, func() { ps, err = e.d.StepAll(changes) })
	return
}

func (e *tracedEngine) StepAllBatch(batch []map[core.StreamID]graph.ChangeSet) (applied, pairs int, err error) {
	e.t.call("core.step", &e.t.write, func() { applied, pairs, err = e.d.StepAllBatch(batch) })
	return
}

func (e *tracedEngine) Candidates() (ps []core.Pair) {
	e.t.call("core.candidates", &e.t.read, func() { ps = e.d.Candidates() })
	return
}

func (e *tracedEngine) Stats() core.Stats                 { return e.d.Stats() }
func (e *tracedEngine) SetMetrics(em *core.EngineMetrics) { e.d.SetMetrics(em) }

// wrapFactory decorates every filter the factory builds.
func (t *tracer) wrapFactory(factory core.FilterFactory) core.FilterFactory {
	return func() core.Filter {
		f := &tracedFilter{t: t, inner: factory()}
		t.addFilter(f)
		return f
	}
}

func (t *tracer) addFilter(f *tracedFilter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f.shard = len(t.filters) + 1
	t.filters = append(t.filters, f)
}

// tracedFilter decorates a core.Filter; the optional interfaces pass
// through to the wrapped filter.
type tracedFilter struct {
	t     *tracer
	inner core.Filter
	shard int
}

var (
	_ core.DynamicFilter  = (*tracedFilter)(nil)
	_ core.BatchApplier   = (*tracedFilter)(nil)
	_ core.ParallelFilter = (*tracedFilter)(nil)
)

func (f *tracedFilter) span(name string, fn func()) {
	s := f.t.begin(name, &f.t.engine)
	s.Shard = f.shard
	fn()
	f.t.end(s)
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

func (f *tracedFilter) AddQuery(id core.QueryID, q *graph.Graph) (err error) {
	f.span("join.add_query", func() { err = f.inner.AddQuery(id, q) })
	return
}

func (f *tracedFilter) RemoveQuery(id core.QueryID) (err error) {
	df, ok := f.inner.(core.DynamicFilter)
	if !ok {
		return fmt.Errorf("filter %s: %w", f.inner.Name(), core.ErrUnsupported)
	}
	f.span("join.remove_query", func() { err = df.RemoveQuery(id) })
	return
}

func (f *tracedFilter) AddStream(id core.StreamID, g0 *graph.Graph) (err error) {
	f.span("join.add_stream", func() { err = f.inner.AddStream(id, g0) })
	return
}

func (f *tracedFilter) Apply(id core.StreamID, cs graph.ChangeSet) (err error) {
	f.span("join.apply", func() { err = f.inner.Apply(id, cs) })
	return
}

func (f *tracedFilter) ApplyAll(changes map[core.StreamID]graph.ChangeSet) (err error) {
	ba, ok := f.inner.(core.BatchApplier)
	if !ok {
		for id, cs := range changes {
			if err := f.Apply(id, cs); err != nil {
				return err
			}
		}
		return nil
	}
	f.span("join.apply", func() { err = ba.ApplyAll(changes) })
	return
}

func (f *tracedFilter) Candidates() (ps []core.Pair) {
	f.span("join.candidates", func() { ps = f.inner.Candidates() })
	return
}

func (f *tracedFilter) SetWorkers(n int) {
	if pf, ok := f.inner.(core.ParallelFilter); ok {
		pf.SetWorkers(n)
	}
}

// CollectMetrics implements obs.Collector by passing through.
func (f *tracedFilter) CollectMetrics(emit func(name string, value float64)) {
	if c, ok := f.inner.(interface {
		CollectMetrics(func(string, float64))
	}); ok {
		c.CollectMetrics(emit)
	}
}

// wrapFile is the DurableOptions.WrapFile hook: it times the WAL's writes
// and fsyncs.
func (t *tracer) wrapFile(f wal.LogFile) wal.LogFile { return &tracedFile{LogFile: f, t: t} }

type tracedFile struct {
	wal.LogFile
	t *tracer
}

func (f *tracedFile) Write(p []byte) (n int, err error) {
	s := f.t.begin("wal.write", &f.t.engine)
	s.Bytes = int64(len(p))
	n, err = f.LogFile.Write(p)
	f.t.end(s)
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.t.begin("wal.sync", &f.t.engine)
	err := f.LogFile.Sync()
	f.t.end(s)
	return err
}

// writeSpans stores spans as a JSON array.
func writeSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
