package rbsg

import (
	"testing"

	"twl/internal/attack"
	"twl/internal/sim"
	"twl/internal/trace"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

func build(tb testing.TB, seed uint64) wl.Scheme {
	s, err := New(wltest.NewDevice(tb, 256, seed), DefaultConfig(256, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestConformance(t *testing.T) {
	wltest.Run(t, build)
}

func TestValidation(t *testing.T) {
	dev := wltest.NewDevice(t, 256, 1)
	bad := []Config{
		{Regions: 0, BaseGapInterval: 100, BoostFactor: 4},
		{Regions: 3, BaseGapInterval: 100, BoostFactor: 4},   // 3 ∤ 256
		{Regions: 256, BaseGapInterval: 100, BoostFactor: 4}, // 1-page regions
		{Regions: 8, BaseGapInterval: 0, BoostFactor: 4},
		{Regions: 8, BaseGapInterval: 100, BoostFactor: 0},
	}
	for i, cfg := range bad {
		if _, err := New(dev, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLogicalPages(t *testing.T) {
	s := build(t, 1).(*Scheme)
	// 256 pages, 8 regions of 32 → 31 logical per region.
	if s.LogicalPages() != 8*31 {
		t.Fatalf("LogicalPages = %d, want 248", s.LogicalPages())
	}
}

// TestAdaptiveResponseUnderRepeatAttack: with the alarm-driven response
// (targeted relocation of the detected-hot address) the scheme must far
// outlive the unresponsive variant under the repeat attack.
func TestAdaptiveResponseUnderRepeatAttack(t *testing.T) {
	lifetime := func(respond bool) (uint64, *Scheme) {
		dev := wltest.NewDeviceEndurance(t, 256, 20000, 3)
		cfg := DefaultConfig(256, 5)
		if !respond {
			cfg.BoostFactor = 1
			cfg.AlarmShuffleInterval = 1 << 30 // never fires in this run
		}
		s, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := attack.New(attack.DefaultConfig(attack.Repeat, s.LogicalPages(), 7))
		if err != nil {
			t.Fatal(err)
		}
		var writes uint64
		fb := attack.Feedback{}
		for {
			la := st.Next(fb)
			cost := s.Write(la, writes)
			fb = attack.Feedback{Blocked: cost.Blocked}
			writes++
			if _, failed := dev.Failed(); failed {
				return writes, s
			}
			if writes > 50_000_000 {
				t.Fatal("no failure")
			}
		}
	}
	unresponsive, _ := lifetime(false)
	adaptive, s := lifetime(true)
	if !s.Alarmed() {
		t.Fatal("detector never alarmed under repeat attack")
	}
	if s.Shuffles() == 0 {
		t.Fatal("no targeted relocations despite alarm")
	}
	if s.BoostedMoves() == 0 {
		t.Fatal("no boosted gap moves despite alarm")
	}
	if adaptive < 2*unresponsive {
		t.Fatalf("adaptive response bought only %d vs %d writes", adaptive, unresponsive)
	}
}

// TestBenignOverheadStaysLow: on a benign workload the alarm stays down and
// the swap overhead stays at the base Start-Gap level (~1/interval).
func TestBenignOverheadStaysLow(t *testing.T) {
	dev := wltest.NewDevice(t, 256, 4)
	s, err := New(dev, DefaultConfig(256, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.BenchmarkByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewSynthetic(b, s.LogicalPages(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400000; i++ {
		addr, w := g.Next()
		if w {
			s.Write(addr, uint64(i))
		}
	}
	if s.Alarmed() {
		t.Fatal("false alarm on benign workload")
	}
	ratio := s.Stats().SwapWriteRatio()
	want := 1.0 / float64(s.cfg.BaseGapInterval)
	if ratio > 1.5*want {
		t.Fatalf("benign overhead %v, want ~%v", ratio, want)
	}
}

// TestRegionsContainRotation: a region's pages never migrate to another
// region (the invariant that keeps gap moves cheap).
func TestRegionsContainRotation(t *testing.T) {
	dev := wltest.NewDevice(t, 64, 5)
	cfg := Config{Regions: 4, BaseGapInterval: 3, BoostFactor: 2, Seed: 7}
	s, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Write(i%s.LogicalPages(), uint64(i))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFullDeviceAttacksBulkMatchesPerWrite: the random and scan attacks
// address the whole device, past the logical end (each region's gap page is
// not demand-addressable). The scheme folds those addresses back into its
// logical space, and a lifetime run through the bulk paths must stay
// bit-identical to the per-write path.
func TestFullDeviceAttacksBulkMatchesPerWrite(t *testing.T) {
	for _, mode := range []attack.Mode{attack.Random, attack.Scan} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(perWrite bool) (sim.LifetimeResult, *Scheme) {
				s := fuzzScheme(t, 100, 17, 3)
				st, err := attack.New(attack.DefaultConfig(mode, s.dev.Pages(), 11))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunLifetime(s, sim.FromAttack(st), sim.LifetimeConfig{DisableFastForward: perWrite})
				if err != nil {
					t.Fatal(err)
				}
				return res, s
			}
			slowRes, slow := run(true)
			fastRes, fast := run(false)
			if slowRes.Capped || slowRes.DemandWrites == 0 {
				t.Fatalf("per-write run did not reach a failure: %+v", slowRes)
			}
			if fastRes != slowRes {
				t.Errorf("lifetime result differs:\nfast: %+v\nslow: %+v", fastRes, slowRes)
			}
			compareSchemes(t, fast, slow)
		})
	}
}
