// Command perfbench is the repository benchmark. It measures host time —
// how long this simulator takes — on three workloads, and checks the
// simulated results exactly instead of scoring them.
//
//	go run . -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Run it from the repository root (perfbench/run.py builds and runs it
// there). With -trace 0 it prints the end-to-end metrics of the named
// workload; with -trace 1 it makes a separate traced run over every
// workload, and over an in-process twlsimd campaign, that attributes time
// to layers and prints the per-layer metrics.
// The last line of output is one JSON object: correct, attempted, failed
// and metrics. -record writes the run's results into expected.json as the
// expectations for its seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed; every cell seed derives from it")
	seconds := flag.Float64("seconds", 10, "nominal run length; sets the number of passes")
	traceFlag := flag.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	recordFlag := flag.Bool("record", false, "write this run's results to perfbench/expected.json")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *traceFlag, *recordFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traceMode int, record bool) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	case traceMode != 0 && traceMode != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceMode)
	case seconds <= 0:
		return fmt.Errorf("-seconds must be positive")
	}
	ck, err := newChecker(seed)
	if err != nil {
		return err
	}
	if record {
		ck.expected = nil
	}
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# seed %d: %s\n", seed, ck.mode())

	var metrics map[string]metric
	if traceMode == 1 {
		metrics, err = tracedRun(seed, ck)
	} else {
		metrics, err = endToEnd(workload, seed, seconds, ck)
	}
	if err != nil {
		return err
	}
	for _, p := range ck.problems {
		fmt.Printf("# FAILED %s\n", p)
	}
	if record {
		if ck.failed > 0 {
			return fmt.Errorf("not recording: %d failed operations", ck.failed)
		}
		if err := writeExpected(seed, ck.got); err != nil {
			return err
		}
		fmt.Printf("# recorded %d results for seed %d\n", len(ck.got), seed)
	}
	out, err := json.Marshal(output{
		Correct:   ck.failed == 0,
		Attempted: ck.attempt,
		Failed:    ck.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func endToEnd(workload string, seed uint64, seconds float64, ck *checker) (map[string]metric, error) {
	passes := passCount(workload, seconds)
	e := runLifetimeWorkload(workload, seed, passes, ck)
	fmt.Printf("# %s: %d passes, %d measured (one sample each for setup_s, writes_per_s and cold_job_s)\n", workload, passes, len(e.wps))
	if workload == wLarge {
		fmt.Println("# large-device: the sharded run's set-up happens inside RunShardedLifetime and counts under writes_per_s, not setup_s")
	}
	if len(e.wps) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", workload)
	}
	return e.metrics(), nil
}

// tracedRun measures every workload's layers, so every per-layer metric has
// a measured value whichever workload is named, and runs the layer
// microbenchmarks.
func tracedRun(seed uint64, ck *checker) (map[string]metric, error) {
	calibrateClock()
	log := &spanLog{}
	m := map[string]metric{}
	for _, step := range []func(uint64, *checker, *spanLog, map[string]metric) error{
		traceFig6, traceParsec, traceLarge, traceCampaign,
	} {
		if err := step(seed, ck, log, m); err != nil {
			return nil, err
		}
	}
	if err := runMicro(seed, m); err != nil {
		return nil, err
	}
	path, err := log.write(filepath.Join(".bench_build", "trace"), fmt.Sprintf("spans-seed%d.jsonl", seed))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-44s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Printf("# %d spans written to %s; clock pair cost %d ns, 1 in %d calls timed\n", len(log.spans), path, clockCost, sampleEvery)
	return m, nil
}
