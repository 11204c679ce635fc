// Command twlsim runs a single wear-leveling lifetime simulation and prints
// the outcome: scheme, workload (attack or PARSEC benchmark), normalized
// lifetime, extrapolated years, swap overhead and wear statistics.
//
// Examples:
//
//	twlsim -scheme TWL_swp -attack inconsistent
//	twlsim -scheme BWL -bench canneal -pages 4096 -endurance 40000
//	twlsim -scheme TWL_swp -attack scan -metrics     # append a metrics report
//	twlsim -scheme SR -attack repeat -trace run.jsonl -trace-every 50000
//	twlsim -bench vips -pprof prof                   # prof.cpu.pprof + prof.heap.pprof
//	twlsim -scheme SR -attack repeat -checkpoint run.ckpt         # crash-safe run
//	twlsim -scheme SR -attack repeat -checkpoint run.ckpt -resume # pick it back up
//	twlsim -config                      # print the simulated configuration
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twl"
	"twl/internal/cliutil"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/report"
	"twl/internal/sim"
	"twl/internal/trace"
)

func main() {
	var (
		scheme     = flag.String("scheme", "TWL_swp", "wear-leveling scheme (see -config for the list)")
		attackMode = flag.String("attack", "", "attack workload: repeat, random, scan, inconsistent")
		bench      = flag.String("bench", "", "PARSEC benchmark workload (Table 2 name)")
		pages      = flag.Int("pages", 0, "simulated pages (default: DefaultSystem)")
		endurance  = flag.Float64("endurance", 0, "mean endurance in writes (default: DefaultSystem)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		bandwidth  = flag.Float64("bw", twl.Fig6AttackBandwidth, "write bandwidth in B/s for year conversion")
		config     = flag.Bool("config", false, "print the simulated configuration and exit")
		paranoid   = flag.Bool("paranoid", false, "check scheme invariants during the run")
		heatmap    = flag.Bool("heatmap", false, "print the final wear heatmap (wear/endurance per page)")
		metrics    = flag.Bool("metrics", false, "print a metrics report (request counters, latency histogram) after the run")
		traceFile  = flag.String("trace", "", "write structured JSONL progress events to this file")
		traceEvery = flag.Uint64("trace-every", 0, "emit a trace progress event every N demand writes (0: default)")
		pprofPfx   = flag.String("pprof", "", "capture CPU+heap profiles to PREFIX.cpu.pprof / PREFIX.heap.pprof")
		ckptFile   = flag.String("checkpoint", "", "periodically checkpoint the run to this file (crash-safe, atomically replaced)")
		ckptEvery  = flag.Uint64("checkpoint-every", 0, "checkpoint every N demand writes (0: default cadence)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
		spareFrac  = flag.Float64("spare-frac", 0, "provision this fraction of pages as spares and retire failed pages onto them (0: stop at first failure)")
		retireThr  = flag.Float64("retire-threshold", 0, "with -spare-frac, end the run once this fraction of pages is retired (0: run until the pool is exhausted)")
		curveFile  = flag.String("curve", "", "with -spare-frac, write the capacity-vs-writes curve to this CSV file")
	)
	flag.Parse()

	if *config {
		printConfig()
		return
	}
	cliutil.Check("twlsim", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.NonNegativeInt("-pages", *pages),
		cliutil.NonNegativeFloat("-endurance", *endurance),
		cliutil.Exclusive("-attack", *attackMode != "", "-bench", *bench != ""),
		cliutil.Requires("-resume", *resume, "-checkpoint", *ckptFile != ""),
		cliutil.Fraction("-spare-frac", *spareFrac, true),
		cliutil.Fraction("-retire-threshold", *retireThr, true),
		cliutil.Requires("-retire-threshold", *retireThr != 0, "-spare-frac", *spareFrac != 0),
		cliutil.Requires("-curve", *curveFile != "", "-spare-frac", *spareFrac != 0),
	))

	if *pprofPfx != "" {
		stop, err := obs.StartProfile(*pprofPfx)
		fatal(err)
		defer func() { fatal(stop()) }()
	}

	sys := twl.DefaultSystem(*seed)
	if *pages > 0 {
		sys.Pages = *pages
	}
	if *endurance > 0 {
		sys.MeanEndurance = *endurance
	}
	if *spareFrac > 0 {
		sys = sys.WithSpareFraction(*spareFrac)
	}

	// The cell is built exactly as the library's (and twlsimd's) attack and
	// benchmark cells are, so a twlsim run reproduces their numbers.
	var s twl.Scheme
	var src sim.Source
	var ideal float64
	switch {
	case *attackMode != "":
		mode, err := twl.ParseAttackMode(*attackMode)
		fatal(err)
		s, src, err = twl.NewAttackCell(sys, *scheme, mode)
		fatal(err)
		ideal = twl.IdealYears(*bandwidth)
		fmt.Printf("workload: %s attack at %.3g B/s (ideal lifetime %.2f years)\n",
			mode, *bandwidth, ideal)
	default:
		name := *bench
		if name == "" {
			name = "canneal"
		}
		b, err := trace.BenchmarkByName(name)
		fatal(err)
		s, src, err = twl.NewBenchCell(sys, *scheme, b.Name)
		fatal(err)
		ideal = twl.IdealYears(b.WriteBandwidthMBps * 1e6)
		fmt.Printf("workload: PARSEC %s at %.0f MB/s (ideal lifetime %.1f years, footprint %d pages)\n",
			b.Name, b.WriteBandwidthMBps, ideal, trace.Footprint(b, sys.Pages))
	}
	if *spareFrac > 0 {
		var err error
		s, err = twl.Retire(s, twl.RetireConfig{CapacityThreshold: *retireThr})
		fatal(err)
	}
	dev := s.Device()

	cfg := sim.LifetimeConfig{}
	if *paranoid {
		cfg.CheckEvery = 100000
	}
	if *metrics {
		cfg.Metrics = twl.NewMetrics()
	}
	if *traceFile != "" {
		// A resumed run continues the interrupted run's event stream, so the
		// trace file is appended to rather than truncated.
		mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		if *resume {
			mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		}
		f, err := os.OpenFile(*traceFile, mode, 0o644)
		fatal(err)
		defer func() { fatal(f.Close()) }()
		tr := twl.NewRunTracer(f, *traceEvery)
		cfg.Trace = tr
		defer func() { fatal(tr.Err()) }()
	}
	if *ckptFile != "" {
		cfg.Checkpoint = &sim.CheckpointConfig{
			Path:   *ckptFile,
			Every:  *ckptEvery,
			Resume: *resume,
		}
	}
	res, err := sim.RunLifetime(s, src, cfg)
	fatal(err)

	tb := report.NewTable(fmt.Sprintf("Lifetime simulation: %s over %d pages (mean endurance %.3g)",
		res.Scheme, sys.Pages, sys.MeanEndurance), "metric", "value")
	tb.AddRowf("demand writes", fmt.Sprintf("%d", res.DemandWrites))
	tb.AddRowf("device writes", fmt.Sprintf("%d", res.DeviceWrites))
	tb.AddRowf("swap writes", fmt.Sprintf("%d", res.SwapWrites))
	tb.AddRowf("swap/write ratio", fmt.Sprintf("%.4f", float64(res.SwapWrites)/float64(max64(res.DemandWrites, 1))))
	tb.AddRowf("normalized lifetime", fmt.Sprintf("%.4f", res.Normalized))
	tb.AddRowf("lifetime (years)", fmt.Sprintf("%.2f", res.Years(ideal)))
	switch {
	case res.Capped:
		tb.AddRowf("note", "run hit the write cap without a failure")
	case *spareFrac > 0:
		// FailedPage is the failure the spare pool could no longer absorb —
		// often a spare index (>= sys.Pages).
		tb.AddRowf("final failed page", fmt.Sprintf("%d (endurance %d)", res.FailedPage, dev.Endurance(res.FailedPage)))
	default:
		tb.AddRowf("first failed page", fmt.Sprintf("%d (endurance %d)", res.FailedPage, dev.Endurance(res.FailedPage)))
	}
	if *spareFrac > 0 {
		tb.AddRowf("spare pool", fmt.Sprintf("%d pages (%.1f%% of %d)", res.SparePages, *spareFrac*100, sys.Pages))
		tb.AddRowf("retired pages", fmt.Sprintf("%d", res.RetiredPages))
		tb.AddRowf("spares used", fmt.Sprintf("%d / %d", res.SparesUsed, res.SparePages))
		switch {
		case res.FailCause != nil:
			tb.AddRowf("end cause", res.FailCause.Error())
		case res.Capped:
			tb.AddRowf("end cause", "write cap")
		}
	}
	fatal(tb.Render(os.Stdout))

	if *curveFile != "" {
		cs, ok := twl.CapacityOf(s)
		if !ok {
			fatal(fmt.Errorf("scheme reports no capacity curve"))
		}
		fatal(writeCurve(*curveFile, cs))
		fmt.Printf("\ncapacity curve: %d retirement events written to %s\n", len(cs.Curve), *curveFile)
	}

	if *heatmap {
		fractions := make([]float64, dev.Pages())
		for p := 0; p < dev.Pages(); p++ {
			fractions[p] = float64(dev.Wear(p)) / float64(dev.Endurance(p))
		}
		fmt.Println()
		fatal(report.NewHeatmap("Wear / endurance by physical page", fractions, 64).Render(os.Stdout))
	}

	if cfg.Metrics != nil {
		fmt.Println()
		fatal(cfg.Metrics.WriteText(os.Stdout))
	}
}

func printConfig() {
	sys := twl.DefaultSystem(1)
	geom := pcm.DefaultGeometry()
	timing := pcm.DefaultTiming()
	tb := report.NewTable("Simulated configuration (Table 1)", "parameter", "value")
	tb.AddRowf("full-size PCM", fmt.Sprintf("%d GB, %d B pages, %d B lines, %d ranks, %d banks",
		geom.Capacity()>>30, geom.PageSize, geom.LineSize, geom.Ranks, geom.Banks))
	tb.AddRowf("read/set/reset latency", fmt.Sprintf("%d/%d/%d cycles at %.0f GHz",
		timing.ReadCycles, timing.SetCycles, timing.ResetCycles, timing.ClockHz/1e9))
	tb.AddRowf("endurance model", fmt.Sprintf("Gaussian, mean 1e8, sigma 11%% (scaled: mean %.3g over %d pages)",
		sys.MeanEndurance, sys.Pages))
	tb.AddRowf("TWL inter-pair swap interval", "128")
	tb.AddRowf("TWL toss-up interval", "32")
	tb.AddRowf("RNG / control / table latency", "4 / 5 / 10 cycles")
	tb.AddRowf("schemes", strings.Join(twl.SchemeNames(), ", "))
	fatal(tb.Render(os.Stdout))
	fmt.Println()
	for _, d := range twl.SchemeDocs() {
		fmt.Println("  " + d)
	}
}

// writeCurve dumps the capacity-vs-writes curve as CSV: one row per
// retirement event, at the demand-write count where it fired.
func writeCurve(path string, cs twl.CapacityStats) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := fmt.Fprintln(f, "demand_writes,retired_pages,spares_used"); err != nil {
		return err
	}
	for _, p := range cs.Curve {
		if _, err := fmt.Fprintf(f, "%d,%d,%d\n", p.DemandWrites, p.Retired, p.SparesUsed); err != nil {
			return err
		}
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "twlsim:", err)
		os.Exit(1)
	}
}
