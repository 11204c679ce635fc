package sim

import (
	"math"
	"testing"

	"twl/internal/attack"
	"twl/internal/core"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/nowl"
	"twl/internal/wl/wltest"
)

func TestFromTraceLoops(t *testing.T) {
	recs := []trace.Record{{Op: trace.Write, Addr: 1}, {Op: trace.Read, Addr: 2}}
	src, err := FromTrace(recs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for loop := 0; loop < 3; loop++ {
		a, w := src.Next(attack.Feedback{})
		if a != 1 || !w {
			t.Fatalf("loop %d first = %d,%v", loop, a, w)
		}
		a, w = src.Next(attack.Feedback{})
		if a != 2 || w {
			t.Fatalf("loop %d second = %d,%v", loop, a, w)
		}
	}
}

func TestFromTraceFoldsAddresses(t *testing.T) {
	recs := []trace.Record{{Op: trace.Write, Addr: 100}}
	src, err := FromTrace(recs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := src.Next(attack.Feedback{}); a != 100%8 {
		t.Fatalf("address %d, want %d", a, 100%8)
	}
}

func TestFromTraceValidation(t *testing.T) {
	if _, err := FromTrace(nil, 8); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := FromTrace([]trace.Record{{Op: trace.Write}}, 0); err == nil {
		t.Fatal("zero pages accepted")
	}
}

func TestRunLifetimeNOWLRepeat(t *testing.T) {
	// NOWL under repeat attack dies after exactly the target page's
	// endurance, normalized = E_page / ΣE.
	dev := wltest.NewDeviceEndurance(t, 64, 5000, 1)
	s := nowl.New(dev)
	st, err := attack.New(attack.DefaultConfig(attack.Repeat, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(s, FromAttack(st), LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Capped {
		t.Fatal("repeat attack on NOWL did not kill the device")
	}
	if res.FailedPage != 0 {
		t.Fatalf("failed page %d, want 0 (repeat target)", res.FailedPage)
	}
	if res.DemandWrites != dev.Endurance(0) {
		t.Fatalf("died after %d writes, endurance is %d", res.DemandWrites, dev.Endurance(0))
	}
	wantNorm := float64(dev.Endurance(0)) / float64(dev.TotalEndurance())
	if math.Abs(res.Normalized-wantNorm) > 1e-12 {
		t.Fatalf("normalized %v, want %v", res.Normalized, wantNorm)
	}
}

func TestRunLifetimeRecordsCost(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 64, 300, 2)
	e, err := core.New(dev, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	st, err := attack.New(attack.DefaultConfig(attack.Scan, 64, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(e, FromAttack(st), LifetimeConfig{CheckEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles accumulated")
	}
	if res.DeviceWrites != res.DemandWrites+res.SwapWrites {
		t.Fatalf("wear not conserved: %d != %d + %d",
			res.DeviceWrites, res.DemandWrites, res.SwapWrites)
	}
	if res.Scheme != "TWL_swp" {
		t.Fatalf("scheme name %q", res.Scheme)
	}
}

func TestRunLifetimeCap(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 64, wltest.EffectivelyInfinite, 3)
	s := nowl.New(dev)
	st, _ := attack.New(attack.DefaultConfig(attack.Random, 64, 1))
	res, err := RunLifetime(s, FromAttack(st), LifetimeConfig{MaxDemandWrites: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Capped || res.DemandWrites != 5000 {
		t.Fatalf("cap not honored: %+v", res)
	}
}

func TestRunLifetimeRejectsDeadDevice(t *testing.T) {
	dev := wltest.NewDeviceEndurance(t, 4, 1, 4)
	s := nowl.New(dev)
	s.Write(0, 1) // kills page 0
	st, _ := attack.New(attack.DefaultConfig(attack.Repeat, 4, 1))
	if _, err := RunLifetime(s, FromAttack(st), LifetimeConfig{}); err == nil {
		t.Fatal("run on failed device accepted")
	}
}

// TestNOWLNormalizedMatchesCalibration: replaying a synthetic benchmark on
// NOWL must die at roughly the benchmark's Table 2 concentration ratio —
// the calibration contract of the trace generator.
func TestNOWLNormalizedMatchesCalibration(t *testing.T) {
	const pages = 512
	bench, err := trace.BenchmarkByName("canneal") // ratio ≈ 0.0172
	if err != nil {
		t.Fatal(err)
	}
	dev := wltest.NewDeviceEndurance(t, pages, 20000, 5)
	s := nowl.New(dev)
	g, err := trace.NewSynthetic(bench, pages, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLifetime(s, FromWorkload(g), LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := bench.ConcentrationRatio()
	if res.Normalized < want/2 || res.Normalized > want*2 {
		t.Fatalf("NOWL normalized lifetime %v, want within 2× of %v", res.Normalized, want)
	}
}

func TestIdealYearsMatchesTable2(t *testing.T) {
	geom := pcm.DefaultGeometry()
	// vips: 3309 MBps → Table 2 says 16 years.
	years := IdealYears(geom, 1e8, 3309e6)
	if math.Abs(years-16)/16 > 0.05 {
		t.Fatalf("vips ideal years = %v, want ~16 (Table 2)", years)
	}
	// blackscholes: 121 MBps → 446 years.
	years = IdealYears(geom, 1e8, 121e6)
	if math.Abs(years-446)/446 > 0.05 {
		t.Fatalf("blackscholes ideal years = %v, want ~446", years)
	}
	// The Figure 6 attack: 8 GB/s → 6.6 years.
	years = IdealYears(geom, 1e8, 8e9)
	if math.Abs(years-6.6)/6.6 > 0.05 {
		t.Fatalf("8GB/s ideal years = %v, want ~6.6 (Figure 6)", years)
	}
}

func TestYearsScalesNormalized(t *testing.T) {
	r := LifetimeResult{Normalized: 0.5}
	if got := r.Years(6.6); math.Abs(got-3.3) > 1e-12 {
		t.Fatalf("Years = %v, want 3.3", got)
	}
}

func TestRunPerfTWLOverheadSmall(t *testing.T) {
	const pages = 512
	bench, _ := trace.BenchmarkByName("vips")
	cfg := PerfConfig{Requests: 300000, MaxBandwidthMBps: 3309}
	build := func() (wl.Scheme, error) {
		return core.New(wltest.NewDevice(t, pages, 11), core.DefaultConfig(3))
	}
	baseline := func() (wl.Scheme, error) {
		return nowl.New(wltest.NewDevice(t, pages, 11)), nil
	}
	res, err := RunPerf(bench, pages, 21, cfg, build, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if res.Normalized < 1 {
		t.Fatalf("normalized %v < 1", res.Normalized)
	}
	// TWL on vips: paper reports 2.7% — allow a generous band but require
	// "negligible" (< 10%).
	if res.Normalized > 1.10 {
		t.Fatalf("TWL overhead %v too large", res.Normalized-1)
	}
	if res.Normalized == 1.0 {
		t.Fatal("TWL shows exactly zero overhead; cost accounting is broken")
	}
}

// blockyScheme is NOWL reporting every third write as blocked, to exercise
// the blocked counter.
type blockyScheme struct {
	wl.Scheme
	n int
}

func (b *blockyScheme) Name() string { return "Blocky" }

func (b *blockyScheme) Write(la int, tag uint64) wl.Cost {
	cost := b.Scheme.Write(la, tag)
	b.n++
	cost.Blocked = b.n%3 == 0
	return cost
}

// TestRunPerfRecordsMetrics: with a registry, RunPerf records every request
// of the scheme's run and of the baseline's — by op, blocked, and in a
// latency histogram whose sum is the run's memory cycles — plus the
// benchmark-labeled request counter.
func TestRunPerfRecordsMetrics(t *testing.T) {
	const pages, requests, seed = 64, 3000, 21
	bench, err := trace.BenchmarkByName("vips")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg := PerfConfig{Requests: requests, MaxBandwidthMBps: 3309, Metrics: reg}
	build := func() (wl.Scheme, error) {
		return &blockyScheme{Scheme: nowl.New(wltest.NewDevice(t, pages, 11))}, nil
	}
	baseline := func() (wl.Scheme, error) {
		return nowl.New(wltest.NewDevice(t, pages, 11)), nil
	}
	res, err := RunPerf(bench, pages, seed, cfg, build, baseline)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewSynthetic(bench, pages, seed)
	if err != nil {
		t.Fatal(err)
	}
	src := FromWorkload(g)
	var writes uint64
	for i := 0; i < requests; i++ {
		if _, w := src.Next(attack.Feedback{}); w {
			writes++
		}
	}
	if writes == 0 || writes == requests {
		t.Fatalf("stream has %d writes in %d requests; need both ops", writes, requests)
	}
	for _, c := range []struct {
		scheme  string
		blocked uint64
		cycles  int64
	}{
		{"Blocky", writes / 3, res.MemCycles},
		{"NOWL", 0, res.BaselineMemCycles},
	} {
		label := obs.L("scheme", c.scheme)
		w := reg.Counter("twl_scheme_requests_total", label, obs.L("op", "write")).Value()
		r := reg.Counter("twl_scheme_requests_total", label, obs.L("op", "read")).Value()
		if w != writes || r != requests-writes {
			t.Errorf("%s: writes=%d reads=%d, want %d/%d", c.scheme, w, r, writes, requests-writes)
		}
		if b := reg.Counter("twl_scheme_blocked_total", label).Value(); b != c.blocked {
			t.Errorf("%s: blocked=%d, want %d", c.scheme, b, c.blocked)
		}
		h := reg.Histogram("twl_scheme_request_cycles", obs.DefaultLatencyBuckets(), label).Snapshot()
		if h.Count != requests || h.Sum != float64(c.cycles) {
			t.Errorf("%s: latency count=%d sum=%v, want %d/%d", c.scheme, h.Count, h.Sum, requests, c.cycles)
		}
		if p := reg.Counter("twl_perf_requests_total", label, obs.L("benchmark", "vips")).Value(); p != requests {
			t.Errorf("%s: perf requests=%d, want %d", c.scheme, p, requests)
		}
	}
}

func TestRunPerfValidation(t *testing.T) {
	bench, _ := trace.BenchmarkByName("vips")
	bad := PerfConfig{Requests: 0, MaxBandwidthMBps: 3309}
	_, err := RunPerf(bench, 64, 1, bad, nil, nil)
	if err == nil {
		t.Fatal("zero requests accepted")
	}
	bad = PerfConfig{Requests: 10, MaxBandwidthMBps: 0}
	if _, err := RunPerf(bench, 64, 1, bad, nil, nil); err == nil {
		t.Fatal("zero max bandwidth accepted")
	}
}

func TestMemoryBoundednessOrdering(t *testing.T) {
	vips, _ := trace.BenchmarkByName("vips")
	sc, _ := trace.BenchmarkByName("streamcluster")
	muV := memoryBoundedness(vips, 3309)
	muS := memoryBoundedness(sc, 3309)
	if muV <= muS {
		t.Fatalf("vips boundedness %v not above streamcluster %v", muV, muS)
	}
	if muV > 1 || muS < 0.3 {
		t.Fatalf("boundedness out of expected band: %v %v", muV, muS)
	}
}

// TestRunPerfQueueView: the queue statistics populate and make sense — the
// bandwidth-saturating benchmark loads the channel far harder than the
// trickle writer, and a scheme's queue is at least as busy as NOWL's.
func TestRunPerfQueueView(t *testing.T) {
	const pages = 256
	run := func(name string) PerfResult {
		bench, err := trace.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := PerfConfig{Requests: 60000, MaxBandwidthMBps: 3309}
		build := func() (wl.Scheme, error) {
			return core.New(wltest.NewDevice(t, pages, 11), core.DefaultConfig(3))
		}
		baseline := func() (wl.Scheme, error) {
			return nowl.New(wltest.NewDevice(t, pages, 11)), nil
		}
		res, err := RunPerf(bench, pages, 21, cfg, build, baseline)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	vips := run("vips")
	sc := run("streamcluster")
	if vips.Queue.Served == 0 || sc.Queue.Served == 0 {
		t.Fatal("queue view not populated")
	}
	if vips.Queue.Utilization <= sc.Queue.Utilization {
		t.Fatalf("vips utilization %v not above streamcluster %v",
			vips.Queue.Utilization, sc.Queue.Utilization)
	}
	if vips.Queue.BusyCycles < vips.BaselineQueue.BusyCycles {
		t.Fatalf("scheme busy %d below baseline %d",
			vips.Queue.BusyCycles, vips.BaselineQueue.BusyCycles)
	}
}
