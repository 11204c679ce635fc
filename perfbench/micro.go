package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"twl"
	"twl/internal/attack"
	"twl/internal/cache"
	"twl/internal/core"
	"twl/internal/obs"
	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/rng"
	"twl/internal/snap"
	"twl/internal/tables"
	"twl/internal/trace"
	"twl/internal/wl"
)

// Layer microbenchmarks: direct calls into each layer's public functions,
// in both regimes (".small": the fig6/parsec device size; ".large": the
// large-device size). Devices here carry a 10^8 mean endurance so that no
// page fails under the repeated writes.

// microReps repetitions of each loop; the median per-op time is reported.
// Whole-structure constructions at the large size take ~0.5 s each and get
// setupReps.
const (
	microReps = 5
	setupReps = 3
)

// sink keeps measured results live.
var sink uint64

// measure times n calls of f per repetition and returns the median ns per
// call and the heap allocations per call (counted over the first
// repetition).
func measure(reps, n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	ns := make([]float64, 0, reps)
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps; r++ {
		if r == 0 {
			runtime.ReadMemStats(&ms0)
		}
		t0 := nanotime()
		for i := 0; i < n; i++ {
			f(i)
		}
		t1 := nanotime()
		if r == 0 {
			runtime.ReadMemStats(&ms1)
		}
		ns = append(ns, float64(t1-t0)/float64(n))
	}
	return median(ns), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// randomPages returns a fixed pseudo-random page sequence (length a power of
// two) over [0, pages).
func randomPages(pages int, seed uint64) []int {
	x := rng.NewXorshift(seed)
	out := make([]int, 1<<16)
	for i := range out {
		out[i] = x.Intn(pages)
	}
	return out
}

func microDevice(pages int, seed uint64) (*pcm.Device, error) {
	return system(pages, 1e8, seed).NewDevice()
}

type micro struct {
	m    map[string]metric
	seed uint64
}

// hot records ns/op plus allocs/op, for calls on a zero-allocation path.
func (u *micro) hot(name, allocName string, n int, f func(i int)) {
	ns, allocs := measure(microReps, n, f)
	u.m[name] = metric{ns, "ns"}
	u.m[allocName] = metric{allocs, "allocs/op"}
}

func runMicro(seed uint64, m map[string]metric) error {
	u := &micro{m: m, seed: seed}
	for _, step := range []func() error{u.rng, u.pv, u.pcm, u.tables, u.core, u.sources, u.obs, u.snap, u.cache} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

func (u *micro) rng() error {
	f := rng.NewFeistel(u.seed)
	u.hot("rng.feistel_alpha_ns", "rng.feistel_alpha_allocs", 1<<20, func(int) { sink += uint64(f.Alpha()) })
	x := rng.NewXorshift(u.seed)
	u.hot("rng.xorshift_ns", "rng.xorshift_allocs", 1<<22, func(int) { sink += x.Uint64() })
	return nil
}

func (u *micro) pv() error {
	var err error
	ns, _ := measure(setupReps, 1, func(int) {
		var end []uint64
		end, err = pv.Generate(pv.Config{Pages: largePages, Mean: largeEndurance, Sigma: 0.11 * largeEndurance, Model: pv.Gaussian, Seed: u.seed})
		sink += uint64(len(end))
	})
	u.m["pv.generate_ns_per_page"] = metric{ns / largePages, "ns"}
	return err
}

func (u *micro) pcm() error {
	for _, reg := range []struct {
		suffix string
		pages  int
	}{{"small", smallPages}, {"large", largePages}} {
		dev, err := microDevice(reg.pages, u.seed)
		if err != nil {
			return err
		}
		idx := randomPages(reg.pages, u.seed)
		mask := len(idx) - 1
		u.hot("pcm.write_ns."+reg.suffix, "pcm.write_allocs."+reg.suffix, 1<<21, func(i int) {
			dev.Write(idx[i&mask], uint64(i))
		})
	}
	dev, err := microDevice(smallPages, u.seed)
	if err != nil {
		return err
	}
	idx := randomPages(smallPages-64, u.seed)
	mask := len(idx) - 1
	const run = 64
	ns, allocs := measure(microReps, 1<<16, func(i int) { dev.WriteN(idx[i&mask], uint64(i), run) })
	u.m["pcm.writen_ns_per_write"] = metric{ns / run, "ns"}
	u.m["pcm.writen_allocs"] = metric{allocs, "allocs/op"}
	ns, allocs = measure(microReps, 1<<16, func(i int) { dev.WriteRange(idx[i&mask], uint64(i), run) })
	u.m["pcm.writerange_ns_per_write"] = metric{ns / run, "ns"}
	u.m["pcm.writerange_allocs"] = metric{allocs, "allocs/op"}
	return nil
}

func (u *micro) tables() error {
	for _, reg := range []struct {
		suffix string
		pages  int
	}{{"small", smallPages}, {"large", largePages}} {
		idx := randomPages(reg.pages, u.seed)
		idx2 := randomPages(reg.pages, u.seed+1)
		mask := len(idx) - 1
		c := tables.NewCounter(reg.pages)
		u.hot("tables.counter_inc_ns."+reg.suffix, "tables.counter_inc_allocs."+reg.suffix, 1<<21, func(i int) {
			sink += uint64(c.Inc(idx[i&mask]))
		})
		p, err := tables.NewPairTable(reg.pages)
		if err != nil {
			return err
		}
		for a := 0; a+1 < reg.pages; a += 2 {
			if err := p.Bind(a, a+1); err != nil {
				return err
			}
		}
		u.hot("tables.partner_ns."+reg.suffix, "tables.partner_allocs."+reg.suffix, 1<<21, func(i int) {
			sink += uint64(p.Partner(idx[i&mask]))
		})
		r := tables.NewRemap(reg.pages)
		u.hot("tables.swap_logical_ns."+reg.suffix, "tables.swap_logical_allocs."+reg.suffix, 1<<21, func(i int) {
			r.SwapLogical(idx[i&mask], idx2[i&mask])
		})
	}
	return nil
}

func (u *micro) core() error {
	for _, reg := range []struct {
		suffix string
		pages  int
	}{{"small", smallPages}, {"large", largePages}} {
		dev, err := microDevice(reg.pages, u.seed)
		if err != nil {
			return err
		}
		var e *core.Engine
		ns, _ := measure(setupReps, 1, func(int) { e, err = core.New(dev, core.DefaultConfig(u.seed)) })
		if err != nil {
			return err
		}
		if reg.suffix == "large" {
			u.m["core.new_s.large"] = metric{ns / 1e9, "s"}
		}
		idx := randomPages(reg.pages, u.seed)
		mask := len(idx) - 1
		u.hot("core.write_ns."+reg.suffix, "core.write_allocs."+reg.suffix, 1<<20, func(i int) {
			e.Write(idx[i&mask], uint64(i))
		})
	}
	return nil
}

func (u *micro) sources() error {
	for _, mode := range twl.AttackModes() {
		st, err := attack.New(attack.DefaultConfig(mode, smallPages, u.seed))
		if err != nil {
			return err
		}
		name := "attack.next_ns." + mode.String()
		u.hot(name, "attack.next_allocs."+mode.String(), 1<<20, func(int) {
			sink += uint64(st.Next(attack.Feedback{}))
		})
	}
	for _, b := range parsecBenches {
		bench, err := trace.BenchmarkByName(b)
		if err != nil {
			return err
		}
		g, err := trace.NewSynthetic(bench, smallPages, u.seed)
		if err != nil {
			return err
		}
		u.hot("trace.next_ns."+b, "trace.next_allocs."+b, 1<<20, func(int) {
			a, _ := g.Next()
			sink += uint64(a)
		})
	}
	return nil
}

func (u *micro) obs() error {
	reg := obs.NewRegistry()
	c := reg.Counter("perfbench_counter")
	h := reg.Histogram("perfbench_histogram", obs.DefaultLatencyBuckets())
	u.hot("obs.counter_add_ns", "obs.counter_add_allocs", 1<<22, func(i int) { c.Add(uint64(i & 7)) })
	u.hot("obs.histogram_observe_ns", "obs.histogram_observe_allocs", 1<<21, func(i int) { h.Observe(float64(i & 1023)) })
	u.hot("obs.histogram_observen_ns", "obs.histogram_observen_allocs", 1<<21, func(i int) { h.ObserveN(float64(i&1023), 17) })
	var cw countWriter
	tr := obs.NewTracer(&cw, 0)
	hist := make([]int, 16)
	u.hot("obs.tracer_emit_ns", "obs.tracer_emit_allocs", 1<<15, func(i int) {
		tr.Emit("progress", obs.F("demand_writes", uint64(i)), obs.F("swaps", uint64(i/3)),
			obs.F("max_wear_fraction", 0.5), obs.F("wear_hist", hist))
	})
	return tr.Err()
}

// snap times checkpoint-file writes and reads of a checkpoint-sized payload:
// the device and TWL engine state of a small-regime cell.
func (u *micro) snap() error {
	dev, err := system(smallPages, smallEndurance, u.seed).NewDevice()
	if err != nil {
		return err
	}
	s, err := twl.NewScheme("TWL_swp", dev, u.seed)
	if err != nil {
		return err
	}
	sn, ok := s.(wl.Snapshotter)
	if !ok {
		return fmt.Errorf("perfbench: TWL_swp is not a snapshotter")
	}
	root, err := tmpRoot()
	if err != nil {
		return err
	}
	path := filepath.Join(root, fmt.Sprintf("micro-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	var size int64
	wns, _ := measure(microReps, 20, func(int) {
		size, err = snap.WriteFile(path, func(w *snap.Writer) error {
			if err := dev.Snapshot(w); err != nil {
				return err
			}
			return sn.Snapshot(w)
		})
	})
	if err != nil {
		return err
	}
	rns, _ := measure(microReps, 20, func(int) {
		err = snap.ReadFile(path, func(r *snap.Reader) error {
			if err := dev.Restore(r); err != nil {
				return err
			}
			return sn.Restore(r)
		})
	})
	if err != nil {
		return err
	}
	u.m["snap.write_mb_s"] = metric{float64(size) / (1 << 20) / (wns / 1e9), "MB/s"}
	u.m["snap.read_mb_s"] = metric{float64(size) / (1 << 20) / (rns / 1e9), "MB/s"}
	return nil
}

// cache times result-cache probes and stores of a cell-envelope-sized
// payload.
func (u *micro) cache() error {
	root, err := tmpRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, fmt.Sprintf("micro-cache-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c, err := cache.New(dir)
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	const n = 200
	keys := make([]string, n)
	for i := range keys {
		keys[i] = cache.Key(fmt.Sprintf("perfbench|%d|%d", u.seed, i))
	}
	var perr error
	put, _ := measure(microReps, 1, func(int) {
		for _, k := range keys {
			if err := c.Put(k, payload); err != nil {
				perr = err
			}
		}
	})
	if perr != nil {
		return perr
	}
	hit, _ := measure(microReps, n, func(i int) {
		if _, ok, err := c.Get(keys[i]); err != nil || !ok {
			perr = fmt.Errorf("perfbench: cache miss on a stored key (%v)", err)
		}
	})
	miss, _ := measure(microReps, n, func(i int) {
		if _, ok, err := c.Get(cache.Key(fmt.Sprintf("absent|%d", i))); err != nil || ok {
			perr = fmt.Errorf("perfbench: cache hit on an absent key (%v)", err)
		}
	})
	u.m["cache.put_us"] = metric{put / n / 1e3, "us"}
	u.m["cache.get_hit_us"] = metric{hit / 1e3, "us"}
	u.m["cache.get_miss_us"] = metric{miss / 1e3, "us"}
	return perr
}
