package main

import (
	"runtime"
	"testing"
)

func TestResolveShards(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ flag, want int }{
		{0, procs},  // the default: one shard per GOMAXPROCS
		{-3, procs}, // nonsense counts fall back to the default
		{1, 1},      // explicit unsharded
		{6, 6},
	} {
		if got := resolveShards(tc.flag); got != tc.want {
			t.Errorf("resolveShards(%d) = %d; want %d", tc.flag, got, tc.want)
		}
	}
}
