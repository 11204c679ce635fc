package twl

import (
	"fmt"
	"math"
	"runtime"

	"twl/internal/attack"
	"twl/internal/core"
	"twl/internal/exec"
	"twl/internal/hwcost"
	"twl/internal/pcm"
	"twl/internal/sim"
	"twl/internal/stats"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/nowl"
	"twl/internal/wl/secref"
)

// Fig6AttackBandwidth is the attack write bandwidth of Section 5.2:
// "a nonstop write stream with an approximate 8 GB/s write bandwidth,
// which indicates an ideal lifetime of 6.6 years".
const Fig6AttackBandwidth = 8e9

// lifetimeScheme builds a scheme for a lifetime (run-to-failure) experiment.
// It matches NewScheme except for Security Refresh, whose refresh interval
// is rescaled with the endurance: SR's leveling progress per page lifetime
// is (endurance)/(pages × interval), a dimensionless rate that must be
// preserved when the simulation scales endurance down — otherwise SR would
// be artificially crippled (interval 128 at full scale corresponds to a far
// finer interval on a 20000-write array). See EXPERIMENTS.md, "Scaling".
func lifetimeScheme(name string, dev *Device, seed uint64, sys SystemConfig) (Scheme, error) {
	if name == "SR" {
		cfg := secref.DefaultTwoLevelConfig(sys.Pages, sys.MeanEndurance, seed)
		return secref.NewTwoLevel(dev, cfg)
	}
	return NewScheme(name, dev, seed)
}

// ------------------------------------------------------------------------
// Grid cells: the single-cell runners every scheduler shares.
// ------------------------------------------------------------------------

// RunAttackCell runs one scheme × attack lifetime cell with exactly the
// construction RunFig6 uses for each bar — the same device, the same
// derived seeds (scheme at Seed+7, attack at Seed+11) and the same SR
// interval rescaling — so any scheduler that executes cells independently
// (the parallel grid runner, the twlsimd service) reproduces a Figure 6
// cell byte-for-byte, including its metrics and trace payloads when lc
// carries sinks.
func RunAttackCell(sys SystemConfig, scheme string, mode AttackMode, lc LifetimeConfig) (LifetimeResult, error) {
	s, src, err := NewAttackCell(sys, scheme, mode)
	if err != nil {
		return LifetimeResult{}, err
	}
	return sim.RunLifetime(s, src, lc)
}

// NewAttackCell constructs RunAttackCell's scheme and attack stream over a
// fresh device from sys, for callers that run the cell themselves (with a
// retirement decorator on top, say).
func NewAttackCell(sys SystemConfig, scheme string, mode AttackMode) (Scheme, sim.Source, error) {
	dev, err := sys.NewDevice()
	if err != nil {
		return nil, nil, err
	}
	s, err := lifetimeScheme(scheme, dev, sys.Seed+7, sys)
	if err != nil {
		return nil, nil, err
	}
	st, err := attack.New(attack.DefaultConfig(mode, sys.Pages, sys.Seed+11))
	if err != nil {
		return nil, nil, err
	}
	return s, sim.FromAttack(st), nil
}

// RunBenchCell is RunAttackCell's benchmark counterpart: one scheme ×
// PARSEC-workload lifetime cell, constructed exactly as RunFig8 builds each
// bar (scheme at Seed+13, synthetic workload at Seed+17).
func RunBenchCell(sys SystemConfig, scheme, bench string, lc LifetimeConfig) (LifetimeResult, error) {
	s, src, err := NewBenchCell(sys, scheme, bench)
	if err != nil {
		return LifetimeResult{}, err
	}
	return sim.RunLifetime(s, src, lc)
}

// NewBenchCell constructs RunBenchCell's scheme and workload over a fresh
// device from sys.
func NewBenchCell(sys SystemConfig, scheme, bench string) (Scheme, sim.Source, error) {
	b, err := trace.BenchmarkByName(bench)
	if err != nil {
		return nil, nil, err
	}
	dev, err := sys.NewDevice()
	if err != nil {
		return nil, nil, err
	}
	s, err := lifetimeScheme(scheme, dev, sys.Seed+13, sys)
	if err != nil {
		return nil, nil, err
	}
	g, err := trace.NewSynthetic(b, sys.Pages, sys.Seed+17)
	if err != nil {
		return nil, nil, err
	}
	return s, sim.FromWorkload(g), nil
}

// ------------------------------------------------------------------------
// Table 2: PARSEC write bandwidths, ideal lifetimes, lifetimes w/o WL.
// ------------------------------------------------------------------------

// Table2Row is one benchmark row of Table 2: the paper's reported values
// alongside this reproduction's computed/simulated ones.
type Table2Row struct {
	Benchmark          string
	WriteBandwidthMBps float64
	IdealYears         float64 // computed from bandwidth and capacity
	PaperIdealYears    float64
	NoWLYears          float64 // simulated: NOWL lifetime, scaled to years
	PaperNoWLYears     float64
}

// RunTable2 regenerates Table 2: the ideal lifetime from the bandwidth
// model and the no-wear-leveling lifetime by replaying each benchmark's
// synthetic trace on a NOWL system until first failure.
func RunTable2(sys SystemConfig) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range trace.PARSEC() {
		ideal := IdealYears(b.WriteBandwidthMBps * 1e6)
		dev, err := sys.NewDevice()
		if err != nil {
			return nil, err
		}
		g, err := trace.NewSynthetic(b, sys.Pages, sys.Seed+1)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunLifetime(nowl.New(dev), sim.FromWorkload(g), sim.LifetimeConfig{})
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", b.Name, err)
		}
		rows = append(rows, Table2Row{
			Benchmark:          b.Name,
			WriteBandwidthMBps: b.WriteBandwidthMBps,
			IdealYears:         ideal,
			PaperIdealYears:    b.IdealLifetimeYears,
			NoWLYears:          res.Years(ideal),
			PaperNoWLYears:     b.NoWLLifetimeYears,
		})
	}
	return rows, nil
}

// ------------------------------------------------------------------------
// Figure 6: lifetime under attacks.
// ------------------------------------------------------------------------

// Fig6Config controls the attack-lifetime grid.
type Fig6Config struct {
	// Schemes to evaluate; defaults to the paper's five bars.
	Schemes []string
	// Modes to evaluate; defaults to all four attacks.
	Modes []AttackMode
	// BandwidthBytesPerSec converts normalized lifetime to years.
	BandwidthBytesPerSec float64
	// Metrics, when non-nil, receives per-cell timing and worker
	// utilization for the grid run.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives one event per completed cell.
	Trace *Tracer
}

// DefaultFig6Config returns the paper's Figure 6 setup.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Schemes:              []string{"BWL", "SR", "TWL_ap", "TWL_swp", "NOWL"},
		Modes:                attack.Modes(),
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
}

// Fig6Cell is one bar of Figure 6.
type Fig6Cell struct {
	Scheme     string
	Mode       AttackMode
	Normalized float64
	Years      float64
	// Seconds is the lifetime in seconds (the paper quotes BWL's collapse
	// under the inconsistent attack as "98 seconds").
	Seconds float64
}

// Fig6Result is the full Figure 6 grid.
type Fig6Result struct {
	IdealYears float64
	Schemes    []string
	Modes      []AttackMode
	// Cells[scheme][mode.String()] is one bar.
	Cells map[string]map[string]Fig6Cell
	// Gmean[scheme] is the geometric mean over the four attacks (the
	// figure's Gmean group).
	Gmean map[string]float64
}

// RunFig6 regenerates Figure 6: lifetime under the four attacks for each
// scheme, at the Section 5.2 attack bandwidth.
func RunFig6(sys SystemConfig, cfg Fig6Config) (*Fig6Result, error) {
	if len(cfg.Schemes) == 0 || len(cfg.Modes) == 0 {
		return nil, fmt.Errorf("twl: Fig6Config needs schemes and modes")
	}
	if cfg.BandwidthBytesPerSec <= 0 {
		return nil, fmt.Errorf("twl: Fig6Config needs a positive bandwidth")
	}
	ideal := IdealYears(cfg.BandwidthBytesPerSec)
	out := &Fig6Result{
		IdealYears: ideal,
		Schemes:    cfg.Schemes,
		Modes:      cfg.Modes,
		Cells:      map[string]map[string]Fig6Cell{},
		Gmean:      map[string]float64{},
	}
	// All cells are independent simulations; run them in parallel and
	// assemble deterministically afterwards.
	grid := make([][]Fig6Cell, len(cfg.Schemes))
	var tasks []exec.Task
	for i, name := range cfg.Schemes {
		grid[i] = make([]Fig6Cell, len(cfg.Modes))
		for j, mode := range cfg.Modes {
			i, j, name, mode := i, j, name, mode
			tasks = append(tasks, exec.Task{Name: fmt.Sprintf("fig6/%s/%v", name, mode), Run: func() error {
				res, err := RunAttackCell(sys, name, mode, LifetimeConfig{})
				if err != nil {
					return fmt.Errorf("fig6 %s/%v: %w", name, mode, err)
				}
				grid[i][j] = Fig6Cell{
					Scheme:     name,
					Mode:       mode,
					Normalized: res.Normalized,
					Years:      res.Years(ideal),
					Seconds:    res.Years(ideal) * sim.SecondsPerYear,
				}
				return nil
			}})
		}
	}
	if completed, err := exec.Run(runtime.GOMAXPROCS(0), cfg.Metrics, cfg.Trace, nil, tasks); err != nil {
		return nil, fmt.Errorf("twl: fig6 grid aborted with %d/%d cells done: %w",
			exec.Count(completed), len(tasks), err)
	}
	for i, name := range cfg.Schemes {
		out.Cells[name] = map[string]Fig6Cell{}
		var years []float64
		for j, mode := range cfg.Modes {
			out.Cells[name][mode.String()] = grid[i][j]
			years = append(years, math.Max(grid[i][j].Years, 1e-9))
		}
		g, err := stats.GeoMean(years)
		if err != nil {
			return nil, err
		}
		out.Gmean[name] = g
	}
	return out, nil
}

// ------------------------------------------------------------------------
// Figure 7: choosing the toss-up interval.
// ------------------------------------------------------------------------

// Fig7Config controls the toss-up interval sweep.
type Fig7Config struct {
	// Intervals to sweep (paper: 1..128 in powers of two).
	Intervals []int
	// RequestsPerBenchmark bounds the Figure 7a swap-ratio measurement.
	RequestsPerBenchmark int
	// Benchmarks to average over (default: all of PARSEC).
	Benchmarks []string
	// BandwidthBytesPerSec converts the Figure 7b scan lifetime to years.
	BandwidthBytesPerSec float64
}

// DefaultFig7Config returns the paper's sweep.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		Intervals:            []int{1, 2, 4, 8, 16, 32, 64, 128},
		RequestsPerBenchmark: 300000,
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
}

// Fig7Point is one x-position of Figure 7: the swap/write ratio (panel a,
// Gmean over PARSEC) and the scan-attack lifetime (panel b).
type Fig7Point struct {
	Interval          int
	SwapWriteRatio    float64
	ScanLifetimeYears float64
}

// MinimumLifetimeYears is the server-replacement-cycle floor the paper uses
// to pick the interval ("three to four years"): the chosen interval must
// keep the worst-case (scan) lifetime above it.
const MinimumLifetimeYears = 3.0

// RunFig7 regenerates Figure 7's two panels for each toss-up interval.
func RunFig7(sys SystemConfig, cfg Fig7Config) ([]Fig7Point, error) {
	if len(cfg.Intervals) == 0 {
		return nil, fmt.Errorf("twl: Fig7Config needs intervals")
	}
	if cfg.RequestsPerBenchmark <= 0 {
		return nil, fmt.Errorf("twl: Fig7Config needs RequestsPerBenchmark > 0")
	}
	benchNames := cfg.Benchmarks
	if len(benchNames) == 0 {
		for _, b := range trace.PARSEC() {
			benchNames = append(benchNames, b.Name)
		}
	}
	ideal := IdealYears(cfg.BandwidthBytesPerSec)
	var points []Fig7Point
	for _, interval := range cfg.Intervals {
		twlCfg := core.DefaultConfig(sys.Seed + 3)
		twlCfg.TossUpInterval = interval

		// Panel (a): swap/write ratio, geometric mean over PARSEC.
		var ratios []float64
		for _, bn := range benchNames {
			b, err := trace.BenchmarkByName(bn)
			if err != nil {
				return nil, err
			}
			dev, err := sys.NewDevice()
			if err != nil {
				return nil, err
			}
			e, err := core.New(dev, twlCfg)
			if err != nil {
				return nil, err
			}
			g, err := trace.NewSynthetic(b, sys.Pages, sys.Seed+5)
			if err != nil {
				return nil, err
			}
			for i := 0; i < cfg.RequestsPerBenchmark; i++ {
				addr, write := g.Next()
				if write {
					_ = e.Write(addr, uint64(i)) // ratio experiment: only Stats matter
				}
			}
			ratios = append(ratios, math.Max(e.Stats().SwapWriteRatio(), 1e-9))
		}
		ratio, err := stats.GeoMean(ratios)
		if err != nil {
			return nil, err
		}

		// Panel (b): lifetime under the scan attack.
		dev, err := sys.NewDevice()
		if err != nil {
			return nil, err
		}
		e, err := core.New(dev, twlCfg)
		if err != nil {
			return nil, err
		}
		st, err := attack.New(attack.DefaultConfig(attack.Scan, sys.Pages, sys.Seed+9))
		if err != nil {
			return nil, err
		}
		res, err := sim.RunLifetime(e, sim.FromAttack(st), sim.LifetimeConfig{})
		if err != nil {
			return nil, fmt.Errorf("fig7 interval %d: %w", interval, err)
		}
		points = append(points, Fig7Point{
			Interval:          interval,
			SwapWriteRatio:    ratio,
			ScanLifetimeYears: res.Years(ideal),
		})
	}
	return points, nil
}

// ------------------------------------------------------------------------
// Figure 8: normalized lifetime on PARSEC.
// ------------------------------------------------------------------------

// Fig8Config controls the benchmark-lifetime experiment.
type Fig8Config struct {
	// Schemes to evaluate; defaults to the paper's four bars.
	Schemes []string
	// Benchmarks (default: all of PARSEC).
	Benchmarks []string
	// Metrics, when non-nil, receives per-cell timing and worker
	// utilization for the grid run.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives one event per completed cell.
	Trace *Tracer
}

// DefaultFig8Config returns the paper's Figure 8 setup.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{Schemes: []string{"BWL", "SR", "TWL_swp", "NOWL"}}
}

// Fig8Row is one benchmark group of Figure 8: normalized lifetime (fraction
// of ideal) per scheme.
type Fig8Row struct {
	Benchmark  string
	Normalized map[string]float64
}

// Fig8Result carries the rows plus the cross-benchmark averages the paper
// quotes ("SR ≈ 44%, BWL 75.6%, TWL 79.6%").
type Fig8Result struct {
	Rows []Fig8Row
	// Mean[scheme] is the arithmetic mean of normalized lifetime over the
	// benchmarks.
	Mean map[string]float64
}

// RunFig8 regenerates Figure 8 by replaying each benchmark on each scheme
// until first failure.
func RunFig8(sys SystemConfig, cfg Fig8Config) (*Fig8Result, error) {
	if len(cfg.Schemes) == 0 {
		return nil, fmt.Errorf("twl: Fig8Config needs schemes")
	}
	benchNames := cfg.Benchmarks
	if len(benchNames) == 0 {
		for _, b := range trace.PARSEC() {
			benchNames = append(benchNames, b.Name)
		}
	}
	// All cells are independent simulations; run them in parallel and
	// assemble deterministically afterwards.
	grid := make([][]float64, len(benchNames))
	var tasks []exec.Task
	for i, bn := range benchNames {
		// Validate the name before queueing cells, so a typo fails the grid
		// up front rather than mid-run.
		if _, err := trace.BenchmarkByName(bn); err != nil {
			return nil, err
		}
		grid[i] = make([]float64, len(cfg.Schemes))
		for j, name := range cfg.Schemes {
			i, j, bn, name := i, j, bn, name
			tasks = append(tasks, exec.Task{Name: fmt.Sprintf("fig8/%s/%s", bn, name), Run: func() error {
				res, err := RunBenchCell(sys, name, bn, LifetimeConfig{})
				if err != nil {
					return fmt.Errorf("fig8 %s/%s: %w", bn, name, err)
				}
				grid[i][j] = res.Normalized
				return nil
			}})
		}
	}
	if completed, err := exec.Run(runtime.GOMAXPROCS(0), cfg.Metrics, cfg.Trace, nil, tasks); err != nil {
		return nil, fmt.Errorf("twl: fig8 grid aborted with %d/%d cells done: %w",
			exec.Count(completed), len(tasks), err)
	}
	out := &Fig8Result{Mean: map[string]float64{}}
	sums := map[string]float64{}
	for i, bn := range benchNames {
		row := Fig8Row{Benchmark: bn, Normalized: map[string]float64{}}
		for j, name := range cfg.Schemes {
			row.Normalized[name] = grid[i][j]
			sums[name] += grid[i][j]
		}
		out.Rows = append(out.Rows, row)
	}
	for _, name := range cfg.Schemes {
		out.Mean[name] = sums[name] / float64(len(benchNames))
	}
	return out, nil
}

// ------------------------------------------------------------------------
// Figure 9: normalized execution time on PARSEC.
// ------------------------------------------------------------------------

// Fig9Config controls the performance experiment.
type Fig9Config struct {
	// Schemes to evaluate; defaults to the paper's three lines.
	Schemes []string
	// Benchmarks (default: all of PARSEC).
	Benchmarks []string
	// Requests per benchmark per scheme.
	Requests int
	// Metrics, when non-nil, receives scheme-labeled per-request latency
	// histograms and blocked-request counters from every measurement run.
	Metrics *MetricsRegistry
}

// DefaultFig9Config returns the paper's Figure 9 setup.
func DefaultFig9Config() Fig9Config {
	return Fig9Config{
		Schemes:  []string{"BWL", "SR", "TWL_swp"},
		Requests: 1_000_000,
	}
}

// Fig9Row is one benchmark group of Figure 9: execution time normalized to
// NOWL per scheme.
type Fig9Row struct {
	Benchmark  string
	Normalized map[string]float64
}

// Fig9Result carries rows plus per-scheme arithmetic means (paper: TWL
// 1.90%, BWL 6.48%, SR 1.97% average overhead).
type Fig9Result struct {
	Rows []Fig9Row
	Mean map[string]float64
}

// RunFig9 regenerates Figure 9 using the latency model of sim.RunPerf. The
// schemes run with the paper's production parameters (SR interval 128) —
// unlike the lifetime figures there is no endurance scaling to compensate
// for, since no page needs to die.
func RunFig9(sys SystemConfig, cfg Fig9Config) (*Fig9Result, error) {
	if len(cfg.Schemes) == 0 {
		return nil, fmt.Errorf("twl: Fig9Config needs schemes")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("twl: Fig9Config needs Requests > 0")
	}
	benchNames := cfg.Benchmarks
	if len(benchNames) == 0 {
		for _, b := range trace.PARSEC() {
			benchNames = append(benchNames, b.Name)
		}
	}
	// Make sure no page wears out mid-measurement regardless of Requests.
	perfSys := sys
	perfSys.MeanEndurance = math.Max(sys.MeanEndurance, 100*float64(cfg.Requests)/float64(sys.Pages))

	perfCfg := sim.PerfConfig{Requests: cfg.Requests, MaxBandwidthMBps: 3309, Metrics: cfg.Metrics}
	out := &Fig9Result{Mean: map[string]float64{}}
	sums := map[string]float64{}
	for _, bn := range benchNames {
		b, err := trace.BenchmarkByName(bn)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Benchmark: bn, Normalized: map[string]float64{}}
		for _, name := range cfg.Schemes {
			name := name
			build := func() (wl.Scheme, error) {
				dev, err := perfSys.NewDevice()
				if err != nil {
					return nil, err
				}
				return NewScheme(name, dev, perfSys.Seed+19)
			}
			baseline := func() (wl.Scheme, error) {
				dev, err := perfSys.NewDevice()
				if err != nil {
					return nil, err
				}
				return nowl.New(dev), nil
			}
			res, err := sim.RunPerf(b, perfSys.Pages, perfSys.Seed+23, perfCfg, build, baseline)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s/%s: %w", bn, name, err)
			}
			row.Normalized[name] = res.Normalized
			sums[name] += res.Normalized
		}
		out.Rows = append(out.Rows, row)
	}
	for _, name := range cfg.Schemes {
		out.Mean[name] = sums[name] / float64(len(benchNames))
	}
	return out, nil
}

// ------------------------------------------------------------------------
// Section 5.4: design overhead.
// ------------------------------------------------------------------------

// HardwareCostReport is the Section 5.4 design-overhead summary.
type HardwareCostReport struct {
	Storage      hwcost.StorageCost
	TotalBits    int
	StorageRatio float64
	Logic        hwcost.LogicCost
}

// ------------------------------------------------------------------------
// Lifetime beyond first failure: spare-pool retirement under attack.
// ------------------------------------------------------------------------

// DefaultSpareFraction is the spare-pool provisioning used when a
// retirement experiment is given a system without one (3% of the visible
// pages, inside the typical 2–5% band).
const DefaultSpareFraction = 0.03

// RetirementConfig controls a lifetime-beyond-first-failure run.
type RetirementConfig struct {
	// Scheme under test; defaults to TWL_swp.
	Scheme string
	// Mode is the attack; defaults to AttackInconsistent — the paper's
	// hardest pattern, and the one whose post-failure behavior the spare
	// pool changes most (the attacker's traffic follows the remap onto the
	// spares).
	Mode AttackMode
	// SpareFraction provisions the spare pool when the system config has
	// SparePages == 0 (default DefaultSpareFraction).
	SpareFraction float64
	// CapacityThreshold ends the run once this fraction of visible pages is
	// retired (0 = run until the spare pool itself is exhausted).
	CapacityThreshold float64
	// BandwidthBytesPerSec converts write counts to years (default
	// Fig6AttackBandwidth).
	BandwidthBytesPerSec float64
	// Metrics, when non-nil, receives the run's counters plus the
	// twl_retire_* series.
	Metrics *MetricsRegistry
	// Trace, when non-nil, receives the run's progress events (with retired
	// and spares_used fields) and the end event.
	Trace *Tracer
}

// DefaultRetirementConfig returns the TWL-vs-inconsistent-attack setup.
func DefaultRetirementConfig() RetirementConfig {
	return RetirementConfig{
		Scheme:               "TWL_swp",
		Mode:                 AttackInconsistent,
		SpareFraction:        DefaultSpareFraction,
		BandwidthBytesPerSec: Fig6AttackBandwidth,
	}
}

// RetirementResult summarizes a run past its first failure.
type RetirementResult struct {
	Scheme string
	Mode   AttackMode
	// Result is the underlying lifetime summary (FailCause, RetiredPages,
	// SparesUsed, SparePages are filled by the simulator).
	Result LifetimeResult
	// Curve is the capacity-vs-writes curve: one point per retirement
	// event, at the demand-write count where it fired.
	Curve []CapacityPoint
	// FirstFailureWrites is the demand-write count of the first page
	// failure — the run's lifetime under the old (first-failure)
	// definition.
	FirstFailureWrites uint64
	// ExtensionRatio is final demand writes / FirstFailureWrites: how much
	// lifetime the spare pool bought under the new definition.
	ExtensionRatio float64
	// FirstFailureYears and FinalYears convert both lifetime definitions at
	// the configured bandwidth.
	FirstFailureYears float64
	FinalYears        float64
	// MeanGapWrites is the mean demand-write gap between successive
	// retirement events.
	MeanGapWrites float64
	// Accel compares the mean retirement gap in the first half of the
	// events against the second half (first/second). Above 1, failures
	// arrive faster as the run ages — the attack accelerates once its
	// traffic concentrates on the spare pool. Zero when the run had fewer
	// than three gaps to compare.
	Accel float64
}

// RunRetirement runs one scheme under one attack with the retirement
// decorator attached, past the first page failure and on to capacity
// exhaustion (or the demand cap), and reports how the lifetime extends and
// how quickly the remaining capacity erodes.
func RunRetirement(sys SystemConfig, cfg RetirementConfig) (*RetirementResult, error) {
	if cfg.Scheme == "" {
		cfg.Scheme = "TWL_swp"
	}
	if cfg.BandwidthBytesPerSec <= 0 {
		cfg.BandwidthBytesPerSec = Fig6AttackBandwidth
	}
	if sys.SparePages == 0 {
		frac := cfg.SpareFraction
		if frac == 0 {
			frac = DefaultSpareFraction
		}
		sys = sys.WithSpareFraction(frac)
	}
	dev, err := sys.NewDevice()
	if err != nil {
		return nil, err
	}
	inner, err := lifetimeScheme(cfg.Scheme, dev, sys.Seed+7, sys)
	if err != nil {
		return nil, err
	}
	s, err := Retire(inner, RetireConfig{CapacityThreshold: cfg.CapacityThreshold})
	if err != nil {
		return nil, err
	}
	src, err := NewAttack(cfg.Mode, s.LogicalPages(), sys.Seed+11)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunLifetime(s, src, sim.LifetimeConfig{Metrics: cfg.Metrics, Trace: cfg.Trace})
	if err != nil {
		return nil, fmt.Errorf("retirement %s/%v: %w", cfg.Scheme, cfg.Mode, err)
	}
	cs, _ := CapacityOf(s)

	ideal := IdealYears(cfg.BandwidthBytesPerSec)
	out := &RetirementResult{
		Scheme: cfg.Scheme,
		Mode:   cfg.Mode,
		Result: res,
		Curve:  cs.Curve,
	}
	totalEnd := float64(dev.TotalEndurance())
	if len(cs.Curve) > 0 {
		out.FirstFailureWrites = cs.Curve[0].DemandWrites
		out.FirstFailureYears = float64(out.FirstFailureWrites) / totalEnd * ideal
		out.FinalYears = res.Years(ideal)
		if out.FirstFailureWrites > 0 {
			out.ExtensionRatio = float64(res.DemandWrites) / float64(out.FirstFailureWrites)
		}
	}
	if gaps := retirementGaps(cs.Curve); len(gaps) > 0 {
		var sum float64
		for _, g := range gaps {
			sum += g
		}
		out.MeanGapWrites = sum / float64(len(gaps))
		if len(gaps) >= 3 {
			first, second := gaps[:len(gaps)/2], gaps[len(gaps)/2:]
			out.Accel = mean(first) / mean(second)
		}
	}
	return out, nil
}

// retirementGaps returns the demand-write distances between successive
// retirement events.
func retirementGaps(curve []CapacityPoint) []float64 {
	if len(curve) < 2 {
		return nil
	}
	gaps := make([]float64, len(curve)-1)
	for i := 1; i < len(curve); i++ {
		gaps[i-1] = float64(curve[i].DemandWrites - curve[i-1].DemandWrites)
	}
	return gaps
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// HardwareCost regenerates the Section 5.4 numbers for the full-size 32 GB
// system: 80 bits per 4 KB page (2.5e-3 storage ratio) and 840 logic gates.
func HardwareCost() HardwareCostReport {
	s, err := hwcost.Storage(hwcost.DefaultStorageConfig())
	if err != nil {
		// The default configuration is statically valid; this cannot
		// happen short of a programming error.
		panic(err)
	}
	return HardwareCostReport{
		Storage:      s,
		TotalBits:    s.TotalBits(),
		StorageRatio: s.Ratio(pcm.DefaultGeometry().PageSize),
		Logic:        hwcost.Logic(),
	}
}
