// Command perfbench is the end-to-end benchmark of the ingest → candidates
// path. It hosts the production single-node service over loopback HTTP and
// drives it with one generated workload: set-up, an open-loop phase with a
// concurrent reader, a closed-loop phase, and a correctness gate against a
// from-scratch reference. See README.md for the metrics and workloads.
//
//	perfbench --workload small-batches --seed 1 --seconds 45 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once traced, replays the stages
// single-threaded, and prints the per-layer metrics. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// The exit code is non-zero when the correctness gate fails or the run is
// invalid (the generator ran late).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a timed run sets up from an empty data dir;
// setup_s is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: small-batches, dense-streams, many-queries")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 45, "run length the phases are sized to")
	trace := flag.Int("trace", 0, "1: traced per-layer run instead of the timed run")
	workdir := flag.String("workdir", ".bench_build", "directory for data dirs and span files")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *trace == 1, *workdir)
	if res != nil {
		printResult(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, workdir string) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	workdir, err := mkdirAll(workdir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	w, err := buildWorkload(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d queries, %d streams, %d timestamps, %d writer requests (generated in %.1fs)\n",
		w.name, seed, len(w.queries), len(w.streams), w.steps, len(w.writerRequests()), time.Since(t0).Seconds())

	if !traced {
		prod, err := runProduction(w, workdir, setupRepeats, nil)
		if err != nil {
			return nil, err
		}
		res := &result{Attempted: prod.attempted, Failed: prod.failed, Metrics: endToEnd(prod)}
		printTable(res.Metrics)
		fmt.Println("reported without a bound:")
		printTable(unbounded(prod))
		err = validate(w, prod)
		res.Correct = err == nil
		return res, err
	}

	spansPath := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed))
	lr, err := runTraced(w, workdir, spansPath)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: lr.attempted, Failed: lr.failed, Metrics: lr.metrics}
	printTable(res.Metrics)
	fmt.Printf("spans: %d written to %s\n", lr.spans, spansPath)
	res.Correct = lr.err == nil
	return res, lr.err
}

// chunksPerRound cuts each round's closed-loop part; the capacity figure is
// the median over all chunks, so a short stall elsewhere on the machine
// moves a chunk, not the figure.
const chunksPerRound = 6

// endToEnd derives the bounded end-to-end metrics of a production run. The
// latency medians are over the requests due in the calm windows.
func endToEnd(p *runResult) map[string]metric {
	calm := calmFilter(p.windows)
	return map[string]metric{
		"setup_s":            {median(p.setupS), "s"},
		"ingest_p50_ms":      {percentile(p.open.latencyWhere(kindIngest, calm), 0.50), "ms"},
		"read_p50_ms":        {percentile(p.reads.latencyWhere(kindRead, calm), 0.50), "ms"},
		"capacity_ops_per_s": {p.capacity, "ops/s"},
		"state_mb":           {p.stateMB, "MB"},
	}
}

// unbounded derives the end-to-end figures a run reports without a
// regression bound. The p99 latencies rest on the slowest 1% of about a
// thousand requests, which on a shared host follow its stalls: they moved
// by two to four times the largest allowed bound between runs of one
// commit. The candidate ratio is a property of the seed's data (the
// correctness gate holds the candidates themselves exactly), and the
// failure fraction is zero on any valid run (failures fail the run). The
// raw closed-loop capacity (steal not taken off), the closed loop's steal
// share and the latency medians over all windows are printed so that the
// steal adjustments can be checked.
func unbounded(p *runResult) map[string]metric {
	return map[string]metric{
		"ingest_p50_all_ms":      {percentile(p.open.latency[kindIngest], 0.50), "ms"},
		"read_p50_all_ms":        {percentile(p.reads.latency[kindRead], 0.50), "ms"},
		"ingest_p99_ms":          {percentile(p.open.latency[kindIngest], 0.99), "ms"},
		"capacity_raw_ops_per_s": {p.rawCapacity, "ops/s"},
		"closed_steal_frac":      {p.stealFrac, "ratio"},
		"read_p99_ms":            {percentile(p.reads.latency[kindRead], 0.99), "ms"},
		"candidate_ratio":        {ratio(float64(p.pairs), float64(p.slots)), "ratio"},
		"failed_frac":            {ratio(float64(p.failed), float64(p.attempted)), "ratio"},
	}
}

// validate is the run's gate: no failed request, a punctual generator, and
// served candidates equal to the reference.
func validate(w *workload, p *runResult) error {
	calm := calmFilter(p.windows)
	fmt.Printf("samples: %d open-loop ingest (%d in calm windows), %d reads (%d)\n",
		len(p.open.latency[kindIngest]), len(p.open.latencyWhere(kindIngest, calm)),
		len(p.reads.latency[kindRead]), len(p.reads.latencyWhere(kindRead, calm)))
	if p.failed > 0 {
		return fmt.Errorf("%d of %d requests failed: %v", p.failed, p.attempted, errors.Join(p.errs...))
	}
	fmt.Printf("closed loop: %d requests in %.2fs (%.1f req/s, %.2f ops/req)\n", p.closed.attempted,
		p.closed.elapsed.Seconds(), float64(p.closed.attempted)/p.closed.elapsed.Seconds(),
		float64(p.closed.ops)/float64(p.closed.attempted))
	wl, rl := percentile(p.open.lateness, 0.99), percentile(p.reads.lateness, 0.99)
	fmt.Printf("generator lateness p99: writer %.3f ms, reader %.3f ms (bound %v)\n", wl, rl, maxLatenessP99)
	if err := checkLateness(p.open, "writer"); err != nil {
		return err
	}
	if err := checkLateness(p.reads, "reader"); err != nil {
		return err
	}
	if err := checkFinal(w, p.candidates); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	fmt.Println("correctness gate: candidates equal the map-kernel reference and contain every VF2 match")
	return nil
}

// checkLateness rejects a loop whose generator ran late.
func checkLateness(st *loopStats, who string) error {
	if p99 := percentile(st.lateness, 0.99); p99 > float64(maxLatenessP99)/float64(time.Millisecond) {
		return fmt.Errorf("invalid run: %s generator lateness p99 %.3f ms exceeds %v", who, p99, maxLatenessP99)
	}
	return nil
}

func printTable(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func printResult(r *result) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	data, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(data)))
}
