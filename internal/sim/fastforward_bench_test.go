package sim

import (
	"testing"

	"twl/internal/attack"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// benchSchemes are the fast-forward (RunWriter/SweepWriter) schemes; the
// benchmark compares each against its own per-request baseline.
var benchSchemes = []string{"NOWL", "StartGap", "SR", "SR2", "BWL", "TWL_swp", "TWL_ap", "TWL_rand", "WRL"}

// benchLifetime times full lifetime runs (to first page failure) at the
// SmallSystem scale: 512 pages, mean endurance 5000, σ = 11%.
func benchLifetime(b *testing.B, scheme string, mode attack.Mode, disableFF bool) {
	b.Helper()
	var writes uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev := wltest.NewDeviceEndurance(b, 512, 5000, 1)
		s, err := wl.Build(scheme, dev, 1)
		if err != nil {
			b.Fatal(err)
		}
		st, err := attack.New(attack.DefaultConfig(mode, s.LogicalPages(), 1))
		if err != nil {
			b.Fatal(err)
		}
		src := FromAttack(st)
		b.StartTimer()
		res, err := RunLifetime(s, src, LifetimeConfig{DisableFastForward: disableFF})
		if err != nil {
			b.Fatal(err)
		}
		writes += res.DemandWrites
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}

// BenchmarkFastForward is the hot-loop benchmark pair behind BENCH_PR2.json
// (cmd/benchff regenerates the committed numbers): each scheme × attack runs
// once through the fast-forward path and once pinned to the per-request
// path. `make check` runs this with -benchtime=1x as a smoke test.
func BenchmarkFastForward(b *testing.B) {
	for _, mode := range []attack.Mode{attack.Repeat, attack.Scan} {
		for _, scheme := range benchSchemes {
			b.Run(mode.String()+"/"+scheme+"/fast", func(b *testing.B) {
				benchLifetime(b, scheme, mode, false)
			})
			b.Run(mode.String()+"/"+scheme+"/perwrite", func(b *testing.B) {
				benchLifetime(b, scheme, mode, true)
			})
		}
	}
}
