package sim

import (
	"errors"
	"fmt"

	"twl/internal/attack"
	"twl/internal/obs"
	"twl/internal/trace"
	"twl/internal/wl"
)

// PerfConfig controls a performance (Figure 9) run.
type PerfConfig struct {
	// Requests is how many memory requests to simulate per scheme.
	Requests int
	// MaxBandwidthMBps anchors the memory-boundedness model (the most
	// bandwidth-hungry benchmark in the suite; vips at 3309 MBps).
	MaxBandwidthMBps float64
	// Metrics, when non-nil, receives per-request latency histograms and
	// blocked-request counters labeled by scheme and benchmark — the raw
	// distributional material behind the Figure 9 means.
	Metrics *obs.Registry
}

// DefaultPerfConfig returns the configuration used by the Figure 9 bench.
func DefaultPerfConfig() PerfConfig {
	return PerfConfig{Requests: 2_000_000, MaxBandwidthMBps: 3309}
}

// PerfResult reports a scheme's execution time normalized to NOWL.
type PerfResult struct {
	Scheme    string
	Benchmark string
	// MemCycles is the accumulated memory-request latency.
	MemCycles int64
	// BaselineMemCycles is NOWL's latency on the identical request stream.
	BaselineMemCycles int64
	// Normalized is the modeled execution-time ratio vs NOWL (≥ 1).
	Normalized float64
	// Queue is the utilization view: the same request stream replayed
	// against a single-server channel with the benchmark's demand cadence.
	// Swap blocking compounds here in a way bare latency sums do not.
	Queue QueueStats
	// BaselineQueue is NOWL's queue view for comparison.
	BaselineQueue QueueStats
}

// memoryBoundedness models how much of a benchmark's execution time is
// memory time, from its write bandwidth: bandwidth-saturating benchmarks
// (vips) are almost fully memory-bound; trickle writers (streamcluster)
// hide nearly all memory latency behind compute. The affine floor keeps
// every benchmark at least mildly sensitive, matching the non-zero
// overheads Figure 9 shows even for low-bandwidth benchmarks.
func memoryBoundedness(bench trace.Benchmark, maxMBps float64) float64 {
	mu := 0.40 + 0.55*(bench.WriteBandwidthMBps/maxMBps)
	if mu > 1 {
		mu = 1
	}
	return mu
}

// RunPerf measures a scheme's normalized execution time on a benchmark.
// build constructs the scheme under test over a fresh device; buildBaseline
// constructs the NOWL reference over an identical device. Both schemes see
// the identical request sequence (same generator seed).
//
// The model: exec = compute + mem, with compute = mem_nowl × (1−μ)/μ where
// μ is the benchmark's memory-boundedness. Then
//
//	normalized = (compute + mem_scheme) / (compute + mem_nowl)
//	           = 1 + μ × (mem_scheme − mem_nowl)/mem_nowl.
//
// This replaces the paper's gem5+NVMain full-system runs (DESIGN.md,
// substitution 2); the per-request latencies themselves come from the
// Table 1 timing and each scheme's reported Cost.
func RunPerf(bench trace.Benchmark, pages int, seed uint64, cfg PerfConfig,
	build func() (wl.Scheme, error), buildBaseline func() (wl.Scheme, error)) (PerfResult, error) {
	if cfg.Requests <= 0 {
		return PerfResult{}, errors.New("sim: PerfConfig.Requests must be positive")
	}
	if cfg.MaxBandwidthMBps <= 0 {
		return PerfResult{}, errors.New("sim: PerfConfig.MaxBandwidthMBps must be positive")
	}
	mem, services, name, err := measure(bench, pages, seed, cfg.Requests, cfg.Metrics, build)
	if err != nil {
		return PerfResult{}, err
	}
	base, baseServices, _, err := measure(bench, pages, seed, cfg.Requests, cfg.Metrics, buildBaseline)
	if err != nil {
		return PerfResult{}, err
	}
	if base <= 0 {
		return PerfResult{}, errors.New("sim: baseline accumulated no memory cycles")
	}
	mu := memoryBoundedness(bench, cfg.MaxBandwidthMBps)
	normalized := 1 + mu*float64(mem-base)/float64(base)
	if normalized < 1 {
		// A scheme cannot beat the no-op baseline; tiny negative deltas can
		// only come from modeling noise, clamp them.
		normalized = 1
	}
	res := PerfResult{
		Scheme:            name,
		Benchmark:         bench.Name,
		MemCycles:         mem,
		BaselineMemCycles: base,
		Normalized:        normalized,
	}
	// Queue view: requests arrive at the cadence the benchmark's bandwidth
	// implies — one page-sized request every PageSize/BW seconds. The write
	// fraction scales the count of wear-relevant requests to total traffic.
	interarrival := interarrivalCycles(bench)
	if interarrival > 0 {
		if res.Queue, err = QueuedPerf(services, interarrival); err != nil {
			return PerfResult{}, err
		}
		if res.BaselineQueue, err = QueuedPerf(baseServices, interarrival); err != nil {
			return PerfResult{}, err
		}
	}
	return res, nil
}

// interarrivalCycles derives the request cadence from the benchmark's write
// bandwidth: writes arrive at BW/PageSize per second, and total requests at
// writes/WriteFraction; at 2 GHz that spacing in cycles is
// clock × PageSize × WriteFraction / BW.
func interarrivalCycles(bench trace.Benchmark) int64 {
	const clockHz = 2e9
	const pageSize = 4096
	bw := bench.WriteBandwidthMBps * 1e6
	if bw <= 0 || bench.WriteFraction <= 0 {
		return 0
	}
	return int64(clockHz * pageSize * bench.WriteFraction / bw)
}

// measure replays the benchmark stream through a freshly built scheme and
// returns accumulated memory cycles plus the per-request service times.
// When reg is non-nil the run also records, labeled with the scheme name,
// its requests by op, its blocked requests and a per-request latency
// histogram, plus a scheme- and benchmark-labeled request counter. The loop
// counts in locals and flushes them into reg once the stream ends.
func measure(bench trace.Benchmark, pages int, seed uint64, requests int,
	reg *obs.Registry, build func() (wl.Scheme, error)) (int64, []int64, string, error) {
	s, err := build()
	if err != nil {
		return 0, nil, "", err
	}
	if s.Device().Pages() < pages {
		return 0, nil, "", fmt.Errorf("sim: scheme device has %d pages, need >= %d", s.Device().Pages(), pages)
	}
	name := s.Name()
	g, err := trace.NewSynthetic(bench, pages, seed)
	if err != nil {
		return 0, nil, "", err
	}
	timing := s.Device().Timing()
	var cycles int64
	var writes, blocked uint64
	services := make([]int64, 0, requests)
	src := FromWorkload(g)
	var fb attack.Feedback
	for i := 0; i < requests; i++ {
		addr, write := src.Next(fb)
		var cost wl.Cost
		if write {
			cost = s.Write(addr, uint64(i))
			writes++
		} else {
			_, cost = s.Read(addr)
		}
		if cost.Blocked {
			blocked++
		}
		c := cost.Cycles(timing)
		cycles += c
		services = append(services, c)
	}
	if reg != nil {
		recordPerf(reg, name, bench.Name, writes, blocked, services)
	}
	return cycles, services, name, nil
}

// recordPerf flushes one measurement run's request counts and per-request
// service times into reg.
func recordPerf(reg *obs.Registry, scheme, bench string, writes, blocked uint64, services []int64) {
	label := obs.L("scheme", scheme)
	reg.Help("twl_scheme_requests_total", "logical requests served by the scheme, by op")
	reg.Help("twl_scheme_blocked_total", "requests delayed behind an internal swap phase")
	reg.Help("twl_scheme_request_cycles", "per-request latency in CPU cycles")
	reg.Counter("twl_scheme_requests_total", label, obs.L("op", "write")).Add(writes)
	reg.Counter("twl_scheme_requests_total", label, obs.L("op", "read")).Add(uint64(len(services)) - writes)
	reg.Counter("twl_scheme_blocked_total", label).Add(blocked)
	latency := reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), label)
	for _, c := range services {
		latency.Observe(float64(c))
	}
	reg.Help("twl_perf_requests_total", "performance-run requests, by scheme and benchmark")
	reg.Counter("twl_perf_requests_total", label, obs.L("benchmark", bench)).Add(uint64(len(services)))
}
