package main

import (
	"testing"
	"time"
)

func TestRanForTakesStealOffAndFloorsAtHalf(t *testing.T) {
	for _, c := range []struct{ elapsed, steal, want time.Duration }{
		{time.Second, 0, time.Second},
		{time.Second, 100 * time.Millisecond, 900 * time.Millisecond},
		{time.Second, 2 * time.Second, 500 * time.Millisecond},
	} {
		if got := ranFor(c.elapsed, c.steal); got != c.want {
			t.Errorf("ranFor(%v, %v) = %v, want %v", c.elapsed, c.steal, got, c.want)
		}
	}
}

func TestStealClockNeverGoesBack(t *testing.T) {
	s0, ok := stealClock()
	if !ok {
		t.Skip("no /proc/stat steal column on this machine")
	}
	time.Sleep(20 * time.Millisecond)
	if s1, _ := stealClock(); s1 < s0 || s0 < 0 {
		t.Fatalf("steal clock read %v then %v", s0, s1)
	}
}

func TestCalmFilterKeepsTheQuietestQuarterOfWindows(t *testing.T) {
	t0 := time.Now()
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	// Eight one-second windows; the two with the least steal are the calm
	// quarter, and a tie with the limit counts too.
	rates := []float64{0.20, 0.01, 0.15, 0.30, 0.01, 0.02, 0.25, 0.10}
	var wins []window
	for i, r := range rates {
		wins = append(wins, window{from: at(float64(i)), to: at(float64(i + 1)), rate: r})
	}
	calm := calmFilter(wins)
	for i, r := range rates {
		if got, want := calm(at(float64(i)+0.5)), r <= 0.01; got != want {
			t.Errorf("window %d (steal %.2f): calm = %v, want %v", i, r, got, want)
		}
	}
	if calm(at(-1)) || calm(at(9)) {
		t.Error("a time outside every window counted as calm")
	}
	if keepAll := calmFilter(nil); !keepAll(t0) {
		t.Error("with no windows, every time must count")
	}
}

func TestStealSamplerCoversThePhase(t *testing.T) {
	if _, ok := stealClock(); !ok {
		t.Skip("no /proc/stat steal column on this machine")
	}
	begin := time.Now()
	s := startStealSampler()
	time.Sleep(calmWindow + 500*time.Millisecond)
	wins := s.finish()
	// About a window and a half: one full window, then the rest up to the
	// stop (one window if the ticker ran late enough).
	if len(wins) < 1 || len(wins) > 2 {
		t.Fatalf("%d windows over %v, want 1 or 2", len(wins), time.Since(begin))
	}
	if wins[0].from.Before(begin) || wins[len(wins)-1].to.After(time.Now()) {
		t.Errorf("windows %v lie outside the phase", wins)
	}
	for i, w := range wins {
		if i > 0 && !w.from.Equal(wins[i-1].to) {
			t.Errorf("window %d starts at %v, not where window %d ended", i, w.from, i-1)
		}
		if w.rate < 0 {
			t.Errorf("negative steal rate %v", w.rate)
		}
	}
}
