// Command bigbench runs the paper's full-geometry device through a sharded
// lifetime experiment: 8Mi pages × 4 KB = 32 GB (Table 1), 4 ranks × 32
// banks, split into one shard per bank and simulated on all cores with an
// exact deterministic merge (see twl.RunShardedLifetime). Endurance is
// scaled down from the paper's 10^8 — the normalized-lifetime metric is
// scale-free — and the scale factor is recorded in the report.
//
// The default configuration is the paper's headline scenario, TWL against
// the inconsistent-pattern attack:
//
//	go run ./cmd/bigbench -out BIGBENCH.json
//
// The run checkpoints per shard when -ckpt is set; re-running with -resume
// restores every shard from its last checkpoint and produces the
// bit-identical merged result. CI runs a reduced geometry (-pages 65536)
// as a smoke test; the full device completes in minutes on a desktop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"twl"
	"twl/internal/cliutil"
	"twl/internal/clock"
)

// report is the JSON artifact: the exact configuration, the merged result
// and the run's wall-clock economics.
type report struct {
	Bench   string `json:"bench"`
	Command string `json:"command"`
	System  struct {
		Pages          int     `json:"pages"`
		PageSize       int     `json:"page_size"`
		CapacityBytes  int64   `json:"capacity_bytes"`
		MeanEndurance  float64 `json:"mean_endurance"`
		SigmaFraction  float64 `json:"sigma_fraction"`
		EnduranceScale float64 `json:"endurance_scale_vs_paper"`
		Seed           uint64  `json:"seed"`
	} `json:"system"`
	Scheme       string   `json:"scheme"`
	Attack       string   `json:"attack"`
	Shards       int      `json:"shards"`
	ShardPages   int      `json:"shard_pages"`
	Workers      int      `json:"workers"`
	DemandWrites uint64   `json:"demand_writes"`
	FailedShard  int      `json:"failed_shard"`
	FailedPage   int      `json:"failed_page"`
	Capped       bool     `json:"capped"`
	Normalized   float64  `json:"normalized_lifetime"`
	ShardDemand  []uint64 `json:"shard_demand"`
	Seconds      float64  `json:"seconds"`
	WritesPerSec float64  `json:"demand_writes_per_sec"`
}

// paperEndurance is the per-cell endurance of the paper's Table 1 device.
const paperEndurance = 1e8

func main() {
	pages := flag.Int("pages", 1<<23, "device size in pages (default: the paper's 32 GB at 4 KB pages)")
	endurance := flag.Float64("endurance", 2000, "scaled mean endurance in writes")
	scheme := flag.String("scheme", "TWL_swp", "wear-leveling scheme")
	attackName := flag.String("attack", "inconsistent", "attack mode: repeat, random, scan, inconsistent")
	shards := flag.Int("shards", 0, "bank-group shards (0: the full geometry's 4x32)")
	seed := flag.Uint64("seed", 1, "system and scheme seed")
	ckpt := flag.String("ckpt", "", "per-shard checkpoint directory (empty: no checkpointing)")
	resume := flag.Bool("resume", false, "resume shards from their checkpoint files")
	out := flag.String("out", "BIGBENCH.json", "output JSON path (empty: stdout only)")
	flag.Parse()

	cliutil.Check("bigbench", cliutil.FirstError(
		cliutil.NoArgs(flag.Args()),
		cliutil.PositiveInt("-pages", *pages),
		cliutil.PositiveFloat("-endurance", *endurance),
		cliutil.NonNegativeInt("-shards", *shards),
		cliutil.Requires("-resume", *resume, "-ckpt", *ckpt != ""),
	))
	mode, err := twl.ParseAttackMode(*attackName)
	cliutil.Check("bigbench", err)

	sys := twl.SystemConfig{
		Pages:         *pages,
		PageSize:      4096,
		MeanEndurance: *endurance,
		SigmaFraction: 0.11,
		Seed:          *seed,
	}
	cfg := twl.ShardedConfig{
		Scheme:        *scheme,
		Mode:          mode,
		Shards:        *shards,
		CheckpointDir: *ckpt,
		Resume:        *resume,
	}

	start := clock.Now()
	res, err := twl.RunShardedLifetime(sys, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigbench: %v\n", err)
		os.Exit(1)
	}
	elapsed := clock.Since(start)

	var rep report
	rep.Bench = "full-geometry sharded lifetime (paper Table 1 device)"
	rep.Command = "go run ./cmd/bigbench"
	rep.System.Pages = sys.Pages
	rep.System.PageSize = sys.PageSize
	rep.System.CapacityBytes = int64(sys.Pages) * int64(sys.PageSize)
	rep.System.MeanEndurance = sys.MeanEndurance
	rep.System.SigmaFraction = sys.SigmaFraction
	rep.System.EnduranceScale = sys.MeanEndurance / paperEndurance
	rep.System.Seed = sys.Seed
	rep.Scheme = res.Scheme
	rep.Attack = *attackName
	rep.Shards = res.Shards
	rep.ShardPages = res.ShardPages
	rep.Workers = runtime.GOMAXPROCS(0)
	rep.DemandWrites = res.DemandWrites
	rep.FailedShard = res.FailedShard
	rep.FailedPage = res.FailedPage
	rep.Capped = res.Capped
	rep.Normalized = res.Normalized
	rep.ShardDemand = res.ShardDemand
	rep.Seconds = math.Round(elapsed.Seconds()*1000) / 1000
	if elapsed > 0 {
		rep.WritesPerSec = math.Round(float64(res.DemandWrites) / elapsed.Seconds())
	}

	fmt.Printf("%s vs %s: %d pages (%.1f GB) x %d shards, endurance %.0f\n",
		rep.Scheme, rep.Attack, sys.Pages, float64(rep.System.CapacityBytes)/1e9, res.Shards, sys.MeanEndurance)
	fmt.Printf("demand writes %d, normalized lifetime %.4f, failed shard %d page %d\n",
		res.DemandWrites, res.Normalized, res.FailedShard, res.FailedPage)
	fmt.Printf("%s wall clock on %d workers (%.0f demand writes/sec)\n",
		elapsed.Round(time.Millisecond), rep.Workers, rep.WritesPerSec)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bigbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(buf); err != nil {
			fmt.Fprintf(os.Stderr, "bigbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bigbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}
