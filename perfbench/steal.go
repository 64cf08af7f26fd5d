package main

import (
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// userHZ is the unit of the times in /proc/stat (USER_HZ, 100 on Linux).
const userHZ = 100

// stealClock reads the time the hypervisor ran something else while this
// machine's virtual CPUs wanted to run: the steal column of /proc/stat's
// aggregate cpu line. On a shared virtual machine, steal is the largest
// source of run-to-run noise in a throughput figure, and it comes and goes
// over minutes; on the 2-vCPU host the benchmark was written on it ran from
// 1% to 11% of the closed loop's time between runs of one commit.
//
// The aggregate line counts every CPU of the machine, which is what the
// closed loop keeps busy on the host the benchmark is sized for (two vCPUs,
// GOMAXPROCS = nproc). ok is false where the file is missing or unreadable,
// and steal is then taken to be zero.
func stealClock() (steal time.Duration, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ticks) * time.Second / userHZ, true
}

// ranFor is the part of a wall-clock interval the machine was not stolen:
// elapsed minus the steal over it. Steal on either vCPU stalls the closed
// loop, whose every request hops between the client, the server and the
// shard goroutines, so the whole steal is taken off. It is floored at half
// the interval, so that a reading taken across a long stall cannot make a
// chunk look arbitrarily fast.
func ranFor(elapsed, steal time.Duration) time.Duration {
	return max(elapsed-steal, elapsed/2)
}

// The open-loop latency medians are taken over the calm part of the open
// loop: the open phases are cut into windows of calmWindow, and only
// requests due in a window whose steal rate is no more than that of the
// calmest calmShare of windows count. Steal inflates a request's latency
// more than its share of the time (every request wakes goroutines on both
// vCPUs, and waits for whichever is stolen), and it cannot be read per
// request at /proc/stat's 10 ms resolution; windows of a second can. On the
// host the benchmark was written on, a dense-streams run at 27% steal read
// ingest_p50_ms 10.8 ms over all requests and 8.0 over its calm quarter,
// against 6.6-7.1 for runs at 1-3% steal.
const (
	calmWindow = time.Second
	calmShare  = 0.25
	// stealEvery is how often the sampler checks whether a window is
	// over; a window closes at the first check calmWindow after it opened.
	stealEvery = 100 * time.Millisecond
)

// window is a span of the open loop and its steal rate (stolen time per
// wall time, summed over the machine's vCPUs).
type window struct {
	from, to time.Time
	rate     float64
}

// stealSampler cuts an open phase into windows while it runs, reading the
// steal clock as each window opens and closes.
type stealSampler struct {
	stop chan struct{}
	done chan []window
}

func startStealSampler() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan []window, 1)}
	go func() {
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		var wins []window
		from := time.Now()
		s0, _ := stealClock()
		for {
			stopped := false
			select {
			case <-s.stop:
				stopped = true
			case <-tick.C:
			}
			now := time.Now()
			if stopped || now.Sub(from) >= calmWindow {
				s1, _ := stealClock()
				if now.After(from) {
					wins = append(wins, window{from, now, float64(s1-s0) / float64(now.Sub(from))})
				}
				from, s0 = now, s1
			}
			if stopped {
				s.done <- wins
				return
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns its windows.
func (s *stealSampler) finish() []window {
	close(s.stop)
	return <-s.done
}

// calmFilter returns whether a time falls in one of the calm windows: those
// whose steal rate is no more than the calmShare quantile of all windows'.
// With no windows, every time counts.
func calmFilter(wins []window) func(time.Time) bool {
	if len(wins) == 0 {
		return func(time.Time) bool { return true }
	}
	rates := make([]float64, len(wins))
	for i, w := range wins {
		rates[i] = w.rate
	}
	sort.Float64s(rates)
	limit := rates[max(0, int(math.Ceil(calmShare*float64(len(rates))))-1)]
	var calm []window
	for _, w := range wins {
		if w.rate <= limit {
			calm = append(calm, w)
		}
	}
	sort.Slice(calm, func(i, j int) bool { return calm[i].from.Before(calm[j].from) })
	return func(t time.Time) bool {
		i := sort.Search(len(calm), func(i int) bool { return calm[i].to.After(t) })
		return i < len(calm) && !t.Before(calm[i].from)
	}
}
