package main

import (
	"runtime"
	"sort"
	"time"
)

// epoch anchors nanotime; differences of time.Since readings use the
// monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// median returns the median of xs (the mean of the middle two when the
// count is even), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// liveHeapMiB forces full collections and returns the live heap in MiB.
// The second collection empties the sync.Pool victim caches the first one
// left behind.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// splitmix64 is the seed mixer every derived cell seed goes through.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deriveSeed gives cell i of a workload its seed: a pure function of the
// workload seed, so the same --seed rebuilds the same inputs.
func deriveSeed(seed uint64, workload string, i int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	// Keep seeds below 2^32 so they read cleanly in reports and job specs.
	return splitmix64(splitmix64(seed^h)+uint64(i)) >> 32
}
