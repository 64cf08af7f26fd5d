package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nntstream/internal/core"
	"nntstream/internal/join"
	"nntstream/internal/obs"
	"nntstream/internal/server"
	"nntstream/internal/wal"
)

// stack is the production single-node service, wired as cmd/serve wires it
// with -data-dir: the DSC filter at join.DefaultDepth, one shard per
// GOMAXPROCS, fsync always, served over loopback HTTP.
type stack struct {
	durable *core.DurableEngine
	hs      *http.Server
	served  chan error
	base    string
}

func openStack(dir string, tr *tracer) (*stack, error) {
	registry := obs.NewRegistry()
	factory := core.FilterFactory(func() core.Filter { return join.NewDSC(join.DefaultDepth) })
	opts := core.DurableOptions{
		Shards:             runtime.GOMAXPROCS(0),
		Fsync:              wal.SyncAlways,
		FsyncInterval:      wal.DefaultSyncInterval,
		CheckpointInterval: 5 * time.Minute,
		Metrics:            wal.NewMetrics(registry),
	}
	if tr != nil {
		factory = tr.wrapFactory(factory)
		opts.WrapFile = tr.wrapFile
	}
	d, err := core.OpenDurableEngine(dir, factory, opts)
	if err != nil {
		return nil, fmt.Errorf("opening engine: %w", err)
	}
	var engine server.Engine = d
	if tr != nil {
		engine = &tracedEngine{t: tr, d: d}
	}
	srv := server.NewWithRegistry(engine, registry)
	srv.SetIngestLimits(server.IngestLimits{ReadTimeout: 10 * time.Second})
	handler := srv.Handler()
	if tr != nil {
		handler = tr.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	s := &stack{
		durable: d,
		hs: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the HTTP server, waits for it to stop serving, and closes
// the engine.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := server.Drain(ctx, s.hs)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.durable.Close())
}

// runResult is what one production run measured.
type runResult struct {
	setupS              []float64
	open, reads, closed *loopStats
	attempted, failed   int
	errs                []error
	// pairs and slots sum the ingest acknowledgements of the measured
	// stack (see loopStats).
	pairs, slots int64
	candidates   []core.Pair
	stateMB      float64
	// capacity is applied edge ops per second of the closed loop, with
	// the machine's steal taken off each chunk's time; rawCapacity is the
	// same without that; stealFrac is the closed loop's steal ÷ its time.
	capacity, rawCapacity, stealFrac float64
	// windows are the open phases cut by steal rate (see calmFilter).
	windows []window
}

// add folds a loop's counts into the run.
func (r *runResult) add(st *loopStats) {
	r.attempted += st.attempted
	r.failed += st.failed
	r.errs = append(r.errs, st.errs...)
	r.pairs += st.pairs
	r.slots += st.slots
}

// runProduction measures one run of w against a fresh stack in a fresh
// data dir under workdir. Set-up (empty dir to first ingest acknowledged)
// is repeated setups times, each time from an empty dir; the last stack
// serves the rest of the run. tr, when non-nil, traces the last stack.
func runProduction(w *workload, workdir string, setups int, tr *tracer) (*runResult, error) {
	res := &runResult{}
	var (
		st      *stack
		writer  *client
		heap0   uint64
		lastDir string
	)
	defer func() {
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
	}()
	for i := 0; i < setups; i++ {
		last := i == setups-1
		dir, err := os.MkdirTemp(workdir, "data-")
		if err != nil {
			return nil, err
		}
		var trace *tracer
		if last {
			lastDir = dir
			trace = tr
			heap0 = liveHeap()
		}
		t0 := time.Now()
		st, err = openStack(dir, trace)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		writer = newClient(st.base)
		setup := closedLoop(w.setup, writer.send)
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
		if !last {
			// Only the measured stack's acknowledgements count.
			setup.pairs, setup.slots = 0, 0
		}
		res.add(setup)
		if !last {
			writer.close()
			err := st.close()
			os.RemoveAll(dir)
			if err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		writer.close()
		if err := st.close(); err != nil {
			res.errs = append(res.errs, err)
			res.failed++
		}
	}()

	res.add(closedLoop(w.warm, writer.send))

	// Each round runs an open-loop part, with the reader polling alongside
	// on its own connection until the writer is done, then a closed-loop
	// part cut into capacity chunks.
	reader := newClient(st.base)
	defer reader.close()
	res.open, res.reads, res.closed = &loopStats{}, &loopStats{}, &loopStats{}
	var rates, rawRates []float64
	var stolen time.Duration
	for _, r := range w.rounds {
		open, reads, wins := openPhase(w, r.open, writer, reader)
		res.windows = append(res.windows, wins...)
		res.open.merge(open)
		res.reads.merge(reads)
		for i := 0; i < chunksPerRound; i++ {
			s0, _ := stealClock()
			part := closedLoop(r.closed[i*len(r.closed)/chunksPerRound:(i+1)*len(r.closed)/chunksPerRound], writer.send)
			s1, _ := stealClock()
			stolen += s1 - s0
			rates = append(rates, float64(part.ops)/ranFor(part.elapsed, s1-s0).Seconds())
			rawRates = append(rawRates, float64(part.ops)/part.elapsed.Seconds())
			res.closed.merge(part)
		}
	}
	res.capacity, res.rawCapacity = median(rates), median(rawRates)
	res.stealFrac = ratio(stolen.Seconds(), res.closed.elapsed.Seconds())
	res.add(res.open)
	res.add(res.reads)
	res.add(res.closed)

	final := request{kind: kindRead, method: "GET", path: "/v1/candidates", id: -1}
	res.attempted++
	status, data, err := reader.do(&final)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		res.candidates, err = parsePairs(data)
	}
	if err != nil {
		res.failed++
		res.errs = append(res.errs, fmt.Errorf("final GET /v1/candidates: %w", err))
	}
	res.stateMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	return res, nil
}

// openPhase sends reqs open-loop on the writer while the reader polls
// GET /v1/candidates, and returns both loops' figures and the phase's
// steal windows.
func openPhase(w *workload, reqs []request, writer, reader *client) (open, reads *loopStats, wins []window) {
	sampler := startStealSampler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		read := request{kind: kindRead, method: "GET", path: "/v1/candidates", id: -1}
		reads = openLoop(func(int) (*request, bool) { return &read, true },
			w.readRate, reader.send, sleepUntil, stop)
	}()
	open = openLoop(func(i int) (*request, bool) {
		if i >= len(reqs) {
			return nil, false
		}
		return &reqs[i], true
	}, w.openRate, writer.send, sleepUntil, nil)
	close(stop)
	wg.Wait()
	return open, reads, sampler.finish()
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func parsePairs(data []byte) ([]core.Pair, error) {
	var resp struct {
		Pairs []server.WirePair `json:"pairs"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	out := make([]core.Pair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		out[i] = core.Pair{Stream: core.StreamID(p.Stream), Query: core.QueryID(p.Query)}
	}
	return core.SortPairs(out), nil
}

func mkdirAll(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return abs, os.MkdirAll(abs, 0o755)
}
