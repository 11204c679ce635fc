package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"twl"
	"twl/internal/sim"
)

// Device sizes. The small regime keeps per-page state cache-resident (TWL
// at ~85 B/page × 4Ki pages fits the host's 2 MiB L2); the large regime is
// 1Mi pages in the default storage layout, where per-write cost is set by
// cache misses.
const (
	smallPages     = 4096
	smallEndurance = 500
	largePages     = 1 << 20
	largeEndurance = 2000
	// largeRandomCap caps the unsharded random cell: a random stream over
	// 1Mi pages would otherwise run for ~10^9 writes before a failure.
	largeRandomCap = 2_000_000
	// largeShardedCap caps the sharded run below every shard's lifetime, so
	// its work is the same for every seed. Run to failure, the exact phase
	// re-runs every shard up to the earliest failure, and that work varies
	// by a third from seed to seed.
	largeShardedCap = 128 << 20
	// largeShards is the full geometry's ranks × banks.
	largeShards = 128
)

func system(pages int, endurance float64, seed uint64) twl.SystemConfig {
	return twl.SystemConfig{
		Pages:         pages,
		PageSize:      4096,
		MeanEndurance: endurance,
		SigmaFraction: 0.11,
		Seed:          seed,
	}
}

// fig6Schemes and the other cell lists are fixed here rather than derived
// from twl.SchemeNames(), so registering a scheme does not change a
// workload.
var (
	fig6Schemes   = []string{"BWL", "SR", "TWL_ap", "TWL_swp", "NOWL", "TWL_rand", "WRL", "StartGap", "OD3P", "RBSG", "SR2"}
	fig6Modes     = []twl.AttackMode{twl.AttackRepeat, twl.AttackScan, twl.AttackInconsistent}
	parsecSchemes = []string{"BWL", "SR", "TWL_swp", "NOWL"}
	// vips, canneal and streamcluster span Table 2's locality range.
	parsecBenches = []string{"vips", "canneal", "streamcluster"}
)

// cellSpec is one lifetime cell, built through the facade.
type cellSpec struct {
	ID     string
	Scheme string
	Mode   twl.AttackMode
	Bench  string // non-empty: a PARSEC source instead of an attack
	Sys    twl.SystemConfig
	Cap    uint64 // MaxDemandWrites; 0 runs to first failure
	// Sinks attaches metrics and a run tracer as twlsim -metrics -trace
	// does, the tracer writing into a counting writer that discards.
	Sinks bool
}

func fig6Cells(seed uint64) []cellSpec {
	var cells []cellSpec
	for _, s := range fig6Schemes {
		for _, m := range fig6Modes {
			i := len(cells)
			cells = append(cells, cellSpec{
				ID:     fmt.Sprintf("%s/%s/%s", wFig6, s, m),
				Scheme: s,
				Mode:   m,
				Sys:    system(smallPages, smallEndurance, deriveSeed(seed, wFig6, i)),
				Sinks:  true,
			})
		}
	}
	return cells
}

func parsecCells(seed uint64) []cellSpec {
	var cells []cellSpec
	for _, s := range parsecSchemes {
		for _, b := range parsecBenches {
			i := len(cells)
			cells = append(cells, cellSpec{
				ID:     fmt.Sprintf("%s/%s/%s", wParsec, s, b),
				Scheme: s,
				Bench:  b,
				Sys:    system(smallPages, smallEndurance, deriveSeed(seed, wParsec, i)),
			})
		}
	}
	return cells
}

func largeRandomCell(seed uint64) cellSpec {
	return cellSpec{
		ID:     wLarge + "/TWL_swp/random",
		Scheme: "TWL_swp",
		Mode:   twl.AttackRandom,
		Sys:    system(largePages, largeEndurance, deriveSeed(seed, wLarge, 0)),
		Cap:    largeRandomCap,
	}
}

func largeShardedID() string { return wLarge + "/TWL_swp/inconsistent/sharded" }

func largeShardedSys(seed uint64) twl.SystemConfig {
	return system(largePages, largeEndurance, deriveSeed(seed, wLarge, 1))
}

// runMode selects how a cell is run: bare (no sinks, no wrappers), normal
// (as the workload defines it) or traced (normal plus timing wrappers and
// spans).
type runMode int

const (
	modeBare runMode = iota
	modeNormal
	modeTraced
)

// cellRun is the outcome of one cell.
type cellRun struct {
	SetupNS int64
	SimNS   int64
	HeapMiB float64 // live heap added by the set-up
	Res     twl.LifetimeResult
	// Sinks: registry updates (counter increments plus histogram
	// observations) and trace bytes.
	RegUpdates uint64
	TraceBytes int64
	// Traced only.
	Scheme *timedScheme
	Source *srcTimes
}

// countWriter counts and discards.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runCell builds and runs one cell. Set-up is timed from the start of
// device construction to the hand-off to the simulator. In normal mode the
// live heap the set-up added is read (after forced collections) before and
// after it, outside both timings.
func runCell(c cellSpec, mode runMode, log *spanLog, parent int) (cellRun, error) {
	var out cellRun
	var heap0 float64
	if mode == modeNormal {
		heap0 = liveHeapMiB()
	}
	var cellSpan, setupSpan *span
	if mode == modeTraced {
		cellSpan = log.begin(parent, "cell", c.ID)
		setupSpan = log.begin(cellSpan.ID, "setup", c.ID)
	}
	t0 := nanotime()
	sp := log.begin(spanID(setupSpan), "twl.setup.device", c.ID)
	dev, err := c.Sys.NewDevice()
	sp.end()
	if err != nil {
		return out, err
	}
	sp = log.begin(spanID(setupSpan), "twl.setup.scheme", c.ID)
	s, err := twl.NewScheme(c.Scheme, dev, c.Sys.Seed+7)
	sp.end()
	if err != nil {
		return out, err
	}
	sp = log.begin(spanID(setupSpan), "twl.setup.source", c.ID)
	var src sim.Source
	if c.Bench != "" {
		var b twl.Benchmark
		if b, err = twl.BenchmarkByName(c.Bench); err == nil {
			src, err = twl.NewWorkload(b, logicalPages(s), c.Sys.Seed+11)
		}
	} else {
		src, err = twl.NewAttack(c.Mode, logicalPages(s), c.Sys.Seed+11)
	}
	sp.end()
	if err != nil {
		return out, err
	}
	t1 := nanotime()
	setupSpan.end()
	out.SetupNS = t1 - t0
	if mode == modeNormal {
		out.HeapMiB = liveHeapMiB() - heap0
	}

	lc := twl.LifetimeConfig{MaxDemandWrites: c.Cap}
	var reg *twl.MetricsRegistry
	var cw countWriter
	if c.Sinks && mode != modeBare {
		reg = twl.NewMetrics()
		lc.Metrics = reg
		lc.Trace = twl.NewRunTracer(&cw, 0)
	}
	if mode == modeTraced {
		out.Scheme, s = newTimedScheme(s)
		if src, out.Source, err = wrapSource(src); err != nil {
			return out, err
		}
	}
	simSpan := log.begin(spanID(cellSpan), "simulate", c.ID)
	t2 := nanotime()
	res, err := twl.RunLifetimeWith(s, src, lc)
	t3 := nanotime()
	simSpan.end()
	cellSpan.end()
	out.SimNS = t3 - t2
	out.Res = res
	if err != nil {
		return out, err
	}
	if mode == modeTraced {
		simSpan.Writes = res.DemandWrites
		simSpan.Layers = map[string]*layerTimer{
			"wl.write":         &out.Scheme.write,
			"wl.read":          &out.Scheme.read,
			"wl.write_run":     &out.Scheme.run,
			"wl.write_sweep":   &out.Scheme.sweep,
			"source.next":      &out.Source.next,
			"source.next_bulk": &out.Source.bulk,
			"source.observe":   &out.Source.observe,
		}
	}
	if reg != nil {
		if out.RegUpdates, err = registryUpdates(reg); err != nil {
			return out, err
		}
		if err := lc.Trace.Err(); err != nil {
			return out, err
		}
		out.TraceBytes = cw.n
	}
	return out, nil
}

// registryUpdates sums every counter's value and every histogram's
// observation count.
func registryUpdates(reg *twl.MetricsRegistry) (uint64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0, err
	}
	var series []struct {
		Kind  string   `json:"kind"`
		Value *float64 `json:"value"`
		Count *uint64  `json:"count"`
	}
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range series {
		switch {
		case s.Kind == "counter" && s.Value != nil:
			n += uint64(*s.Value)
		case s.Kind == "histogram" && s.Count != nil:
			n += *s.Count
		}
	}
	return n, nil
}

// shardedRun is the outcome of the large-device sharded part.
type shardedRun struct {
	NS  int64
	Res *twl.ShardedResult
	// CellSeconds holds the per-shard cell times from the tracer (traced
	// mode only), summed over the scout and exact phases.
	CellSeconds map[string]float64
}

// runSharded runs TWL_swp × inconsistent through RunShardedLifetime. Its
// set-up (endurance map, per-shard devices and schemes) happens inside the
// call, so its time counts under writes_per_s, not setup_s. The worker
// count is the runtime's GOMAXPROCS.
func runSharded(sys twl.SystemConfig, traced bool, log *spanLog, parent int) (shardedRun, error) {
	cfg := twl.ShardedConfig{Scheme: "TWL_swp", Mode: twl.AttackInconsistent, Shards: largeShards, MaxDemandWrites: largeShardedCap}
	var buf bytes.Buffer
	if traced {
		cfg.Trace = twl.NewRunTracer(&buf, 0)
	}
	sp := log.begin(parent, "twl.sharded", largeShardedID())
	t0 := nanotime()
	res, err := twl.RunShardedLifetime(sys, cfg)
	out := shardedRun{NS: nanotime() - t0, Res: res}
	sp.end()
	if err != nil || !traced {
		return out, err
	}
	out.CellSeconds = map[string]float64{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev struct {
			Event   string  `json:"event"`
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
		}
		if err := dec.Decode(&ev); err != nil {
			return out, fmt.Errorf("perfbench: sharded trace: %w", err)
		}
		if ev.Event == "cell" {
			shard := ev.Name
			if i := bytes.LastIndexByte([]byte(shard), '/'); i > 0 {
				shard = shard[:i]
			}
			out.CellSeconds[shard] += ev.Seconds
		}
	}
	return out, nil
}
