package twl

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"twl/internal/attack"
	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/sim"
	"twl/internal/wl"
)

// shardedTestSystem is small enough that a sharded run with every phase
// finishes in well under a second.
func shardedTestSystem(seed uint64) SystemConfig {
	sys := SmallSystem(seed)
	return sys
}

// TestShardedSingleShardMatchesDirect: with Shards=1 the orchestration is a
// plain lifetime run; reproduce it by hand through the same constructors
// and require an identical result.
func TestShardedSingleShardMatchesDirect(t *testing.T) {
	sys := shardedTestSystem(21)
	res, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "TWL_swp", Mode: AttackInconsistent, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	end, err := pv.Generate(pv.Config{
		Pages: sys.Pages, Mean: sys.MeanEndurance, Sigma: sys.SigmaFraction * sys.MeanEndurance,
		Model: pv.Gaussian, Seed: sys.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var totalEnd uint64
	for _, e := range end {
		totalEnd += e
	}
	geom := pcm.Geometry{Pages: sys.Pages, PageSize: sys.PageSize, LineSize: 128, Ranks: 1, Banks: 1}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	seed := shardSeed(sys.Seed, 0)
	s, err := wl.Build("TWL_swp", dev, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := attack.New(attack.DefaultConfig(attack.Inconsistent, sys.Pages, seed))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunLifetime(s, sim.FromAttack(st), sim.LifetimeConfig{MaxDemandWrites: 2 * totalEnd})
	if err != nil {
		t.Fatal(err)
	}

	if res.LifetimeResult != direct {
		t.Errorf("sharded (1 shard) differs from direct run:\nsharded: %+v\ndirect: %+v",
			res.LifetimeResult, direct)
	}
	if res.FailedShard != 0 || res.Shards != 1 || res.ShardPages != sys.Pages {
		t.Errorf("sharded bookkeeping: %+v", res)
	}
}

// TestShardedReproducible: two identical invocations produce identical
// merged results, regardless of worker scheduling.
func TestShardedReproducible(t *testing.T) {
	sys := shardedTestSystem(9)
	cfg := ShardedConfig{Scheme: "TWL_swp", Mode: AttackInconsistent, Shards: 8}
	a, err := RunShardedLifetime(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardedLifetime(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded run not reproducible:\nfirst: %+v\nsecond: %+v", a, b)
	}
	var sum uint64
	for _, d := range a.ShardDemand {
		sum += d
	}
	if sum != a.DemandWrites {
		t.Errorf("ShardDemand sums to %d, DemandWrites %d", sum, a.DemandWrites)
	}
	if !a.Capped && a.FailedShard < 0 {
		t.Errorf("failed run without a failed shard: %+v", a)
	}
}

// TestShardedPackedMatchesWide ties the layers together: a sharded run on
// the device and TWL engine (uint32/uint8 storage) must merge to exactly the
// result the 64-bit device and engine produced for the same configuration,
// recorded here from the last tree that still had them.
func TestShardedPackedMatchesWide(t *testing.T) {
	sys := shardedTestSystem(33)
	got, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "TWL_swp", Mode: AttackInconsistent, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	wide := ShardedResult{
		LifetimeResult: LifetimeResult{
			Scheme:       "TWL_swp",
			DemandWrites: 1695629,
			DeviceWrites: 1734649,
			SwapWrites:   39020,
			Swaps:        39020,
			FailedPage:   269,
			Normalized:   math.Float64frombits(0x3fe51e12dcae190f),
			Cycles:       3523211471,
		},
		Shards:      8,
		ShardPages:  64,
		FailedShard: 4,
		ShardDemand: []uint64{211954, 211954, 211954, 211954, 211954, 211953, 211953, 211953},
	}
	if !reflect.DeepEqual(*got, wide) {
		t.Errorf("sharded run differs from the 64-bit layout's:\ngot:  %+v\nwide: %+v", *got, wide)
	}
}

// TestShardedResume: a run writing per-shard checkpoints, then re-invoked
// with Resume, restores each shard mid-stream and still produces the
// bit-identical merged result.
func TestShardedResume(t *testing.T) {
	sys := shardedTestSystem(5)
	dir := t.TempDir()
	cfg := ShardedConfig{
		Scheme:          "TWL_swp",
		Mode:            AttackInconsistent,
		Shards:          4,
		CheckpointDir:   dir,
		CheckpointEvery: 4096,
	}
	first, err := RunShardedLifetime(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no per-shard checkpoint files were written")
	}

	cfg.Resume = true
	resumed, err := RunShardedLifetime(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, resumed) {
		t.Errorf("resumed run differs:\nfirst: %+v\nresumed: %+v", first, resumed)
	}
}

// TestShardedAnalyticBounds cross-checks the merged lifetime against the
// analytic envelope: normalized lifetime cannot exceed 1 (no scheme can
// serve more demand than the array's total endurance minus overheads), TWL
// under the inconsistent attack must stay a healthy fraction of ideal
// (the paper's headline property), and NOWL under the repeat attack must
// die at roughly the weakest page's endurance — orders of magnitude less.
func TestShardedAnalyticBounds(t *testing.T) {
	sys := shardedTestSystem(13)
	twl, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "TWL_swp", Mode: AttackInconsistent, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if twl.Capped {
		t.Fatalf("TWL run hit the 2x-endurance cap; something is wrong: %+v", twl.LifetimeResult)
	}
	if twl.Normalized > 1.0 {
		t.Errorf("TWL normalized lifetime %.3f exceeds the analytic ceiling 1.0", twl.Normalized)
	}
	if twl.Normalized < 0.2 {
		t.Errorf("TWL normalized lifetime %.3f under inconsistent attack; expected a healthy fraction of ideal", twl.Normalized)
	}
	if twl.FailedPage < 0 || twl.FailedPage >= sys.Pages {
		t.Errorf("global FailedPage %d out of range [0, %d)", twl.FailedPage, sys.Pages)
	}

	nowl, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "NOWL", Mode: AttackRepeat, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Repeat hammers one page per shard; without leveling the global first
	// failure lands near the weakest hammered page's endurance, far below
	// even one page-share of the array.
	if nowl.Normalized > twl.Normalized/10 {
		t.Errorf("NOWL normalized %.5f not well below TWL %.3f — merge or attack wiring broken",
			nowl.Normalized, twl.Normalized)
	}
}

// TestShardedValidation covers the rejected configurations.
func TestShardedValidation(t *testing.T) {
	sys := shardedTestSystem(1)

	bad := sys
	bad.SparePages = 16
	if _, err := RunShardedLifetime(bad, ShardedConfig{Scheme: "TWL_swp", Mode: AttackRepeat, Shards: 4}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("spare pages: got %v, want ErrBadConfig", err)
	}

	if _, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "TWL_swp", Mode: AttackRepeat, Shards: 7}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("non-dividing shards: got %v, want ErrBadConfig", err)
	}

	if _, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "no-such-scheme", Mode: AttackRepeat, Shards: 4}); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme: got %v, want ErrUnknownScheme", err)
	}
}

// TestShardedDefaultShardCount: Shards=0 uses the full geometry's bank
// count (4 ranks x 32 banks = 128).
func TestShardedDefaultShardCount(t *testing.T) {
	sys := shardedTestSystem(2)
	// 512 pages / 128 shards = 4 pages per shard; TWL needs even pages, so
	// this exercises tiny shards end to end.
	res, err := RunShardedLifetime(sys, ShardedConfig{Scheme: "TWL_swp", Mode: AttackRepeat})
	if err != nil {
		t.Fatal(err)
	}
	full := pcm.DefaultGeometry()
	if res.Shards != full.Ranks*full.Banks {
		t.Errorf("default Shards = %d, want %d", res.Shards, full.Ranks*full.Banks)
	}
	if res.ShardPages != sys.Pages/res.Shards {
		t.Errorf("ShardPages = %d, want %d", res.ShardPages, sys.Pages/res.Shards)
	}
}

// TestShardedStopResume: a preempted sharded run returns ErrRunStopped,
// leaves resumable per-shard checkpoints, and a resumed run without the
// hook finishes identically to one that was never preempted.
func TestShardedStopResume(t *testing.T) {
	sys := shardedTestSystem(5)
	baseline, err := RunShardedLifetime(sys, ShardedConfig{
		Scheme: "TWL_swp", Mode: AttackInconsistent, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := ShardedConfig{
		Scheme:          "TWL_swp",
		Mode:            AttackInconsistent,
		Shards:          4,
		CheckpointDir:   dir,
		CheckpointEvery: 4096,
	}
	stopCfg := cfg
	var stopped atomic.Bool
	stopCfg.Stop = func() bool {
		// Fire on the first poll; every shard then winds down at its next
		// checkpoint boundary.
		stopped.Store(true)
		return true
	}
	if _, err := RunShardedLifetime(sys, stopCfg); !errors.Is(err, ErrRunStopped) {
		t.Fatalf("preempted run: got %v, want ErrRunStopped", err)
	}
	if !stopped.Load() {
		t.Fatal("Stop hook was never polled")
	}

	cfg.Resume = true
	resumed, err := RunShardedLifetime(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Errorf("resume after preemption differs:\nbaseline: %+v\nresumed: %+v", baseline, resumed)
	}
}
