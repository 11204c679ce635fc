package twl

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"twl/internal/sim"
)

// The golden corpus pins the exact lifetime result of every registered
// scheme under every attack and two PARSEC workloads, plus sharded and
// retirement cells. It is the contract that replaces differential tests
// against a second implementation: any semantic drift in the device, the
// tables, a scheme or the simulator changes some cell and fails TestGolden
// with a per-field diff. Regenerate only for an intended semantic change:
//
//	go test -run '^TestGolden$' -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current tree")

const goldenPath = "testdata/golden/lifetime.json"

// goldenEntry is one cell's pinned outcome. NormalizedBits holds the IEEE
// bits of LifetimeResult.Normalized, so the comparison is bit-exact;
// Normalized repeats it readably.
type goldenEntry struct {
	Cell           string  `json:"cell"`
	DemandWrites   uint64  `json:"demand_writes"`
	FailedPage     int     `json:"failed_page"`
	SwapWrites     uint64  `json:"swap_writes"`
	Normalized     float64 `json:"normalized"`
	NormalizedBits string  `json:"normalized_bits"`
	FailCause      string  `json:"fail_cause"`
}

func goldenOf(cell string, r LifetimeResult) goldenEntry {
	g := goldenEntry{
		Cell:           cell,
		DemandWrites:   r.DemandWrites,
		FailedPage:     r.FailedPage,
		SwapWrites:     r.SwapWrites,
		Normalized:     r.Normalized,
		NormalizedBits: fmt.Sprintf("%#016x", math.Float64bits(r.Normalized)),
	}
	if r.FailCause != nil {
		g.FailCause = r.FailCause.Error()
	}
	return g
}

// goldenSources are the request streams of the corpus: the four Figure 6
// attacks and two PARSEC workloads with opposite locality.
var goldenSources = []string{"repeat", "random", "scan", "inconsistent", "vips", "canneal"}

// goldenSource builds the named stream over the scheme's logical space.
func goldenSource(name string, s Scheme, seed uint64) (sim.Source, error) {
	pages := s.Device().Pages()
	if z, ok := s.(interface{ LogicalPages() int }); ok {
		pages = z.LogicalPages()
	}
	if mode, err := ParseAttackMode(name); err == nil {
		return NewAttack(mode, pages, seed+11)
	}
	b, err := BenchmarkByName(name)
	if err != nil {
		return nil, err
	}
	return NewWorkload(b, pages, seed+17)
}

// goldenLifetimeCell runs one scheme × source cell at SmallSystem(seed);
// a retired cell provisions 3% spares and wraps the scheme in Retire.
func goldenLifetimeCell(scheme, source string, seed uint64, retired bool) (LifetimeResult, error) {
	sys := SmallSystem(seed)
	if retired {
		sys = sys.WithSpareFraction(0.03)
	}
	dev, err := sys.NewDevice()
	if err != nil {
		return LifetimeResult{}, err
	}
	s, err := NewScheme(scheme, dev, seed+7)
	if err != nil {
		return LifetimeResult{}, err
	}
	if retired {
		if s, err = Retire(s, RetireConfig{}); err != nil {
			return LifetimeResult{}, err
		}
	}
	src, err := goldenSource(source, s, seed)
	if err != nil {
		return LifetimeResult{}, err
	}
	return RunLifetime(s, src)
}

// goldenCell is one corpus entry's name and the run that produces it.
type goldenCell struct {
	name string
	run  func() (LifetimeResult, error)
}

// goldenCells enumerates the corpus in a fixed order.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, scheme := range SchemeNames() {
		for _, source := range goldenSources {
			for _, seed := range []uint64{1, 2} {
				scheme, source, seed := scheme, source, seed
				cells = append(cells, goldenCell{
					name: fmt.Sprintf("lifetime/%s/%s/seed%d", scheme, source, seed),
					run:  func() (LifetimeResult, error) { return goldenLifetimeCell(scheme, source, seed, false) },
				})
			}
		}
	}
	for _, sc := range []struct {
		scheme string
		mode   AttackMode
		shards int
		seed   uint64
	}{
		{"TWL_swp", AttackInconsistent, 4, 1},
		{"BWL", AttackScan, 8, 2},
	} {
		sc := sc
		cells = append(cells, goldenCell{
			name: fmt.Sprintf("sharded/%s/%v/shards%d/seed%d", sc.scheme, sc.mode, sc.shards, sc.seed),
			run: func() (LifetimeResult, error) {
				res, err := RunShardedLifetime(SmallSystem(sc.seed), ShardedConfig{Scheme: sc.scheme, Mode: sc.mode, Shards: sc.shards})
				if err != nil {
					return LifetimeResult{}, err
				}
				return res.LifetimeResult, nil
			},
		})
	}
	for _, rc := range []struct {
		scheme, source string
		seed           uint64
	}{
		{"TWL_swp", "inconsistent", 1},
		{"StartGap", "repeat", 2},
	} {
		rc := rc
		cells = append(cells, goldenCell{
			name: fmt.Sprintf("retire/%s/%s/seed%d", rc.scheme, rc.source, rc.seed),
			run: func() (LifetimeResult, error) {
				return goldenLifetimeCell(rc.scheme, rc.source, rc.seed, true)
			},
		})
	}
	return cells
}

// runGolden computes the corpus on the current tree, two cells at a time.
func runGolden(t *testing.T) []goldenEntry {
	t.Helper()
	cells := goldenCells()
	out := make([]goldenEntry, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, 2) // counting semaphore: two cells in flight
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c goldenCell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := c.run()
			errs[i] = err
			out[i] = goldenOf(c.name, res)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cells[i].name, err)
		}
	}
	return out
}

func readGolden(path string) ([]goldenEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// goldenByCell looks up a corpus entry by cell name.
func goldenByCell(t *testing.T, cell string) goldenEntry {
	t.Helper()
	entries, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Cell == cell {
			return e
		}
	}
	t.Fatalf("golden corpus has no cell %q", cell)
	return goldenEntry{}
}

// diffGolden lists every field that differs between two entries.
func diffGolden(want, got goldenEntry) []string {
	var d []string
	field := func(name string, w, g any) {
		if w != g {
			d = append(d, fmt.Sprintf("%s: want %v, got %v", name, w, g))
		}
	}
	field("demand_writes", want.DemandWrites, got.DemandWrites)
	field("failed_page", want.FailedPage, got.FailedPage)
	field("swap_writes", want.SwapWrites, got.SwapWrites)
	field("normalized_bits", want.NormalizedBits, got.NormalizedBits)
	field("fail_cause", want.FailCause, got.FailCause)
	return d
}

// TestGolden recomputes every corpus cell and fails with a per-cell diff on
// any drift from testdata/golden.
func TestGolden(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantBy := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantBy[e.Cell] = e
	}
	var drift []string
	for _, g := range got {
		w, ok := wantBy[g.Cell]
		if !ok {
			drift = append(drift, g.Cell+": not in corpus")
			continue
		}
		delete(wantBy, g.Cell)
		if d := diffGolden(w, g); len(d) > 0 {
			drift = append(drift, g.Cell+": "+strings.Join(d, "; "))
		}
	}
	for cell := range wantBy {
		drift = append(drift, cell+": in corpus but no longer generated")
	}
	if len(drift) > 0 {
		t.Fatalf("%d golden cells drifted (regenerate with -update only for an intended change):\n%s",
			len(drift), strings.Join(drift, "\n"))
	}
}

const fig9MetricsGoldenPath = "testdata/golden/fig9_metrics.txt"

// TestFig9MetricsGolden pins the metrics report of a Figure 9 run byte for
// byte: the scheme-labeled request, blocked and latency series RunPerf
// records for every scheme and its NOWL baseline, and the benchmark-labeled
// request counter. Regenerate only for an intended change:
//
//	go test -run '^TestFig9MetricsGolden$' -update .
func TestFig9MetricsGolden(t *testing.T) {
	sys := DefaultSystem(1)
	sys.Pages = 1024
	cfg := DefaultFig9Config()
	cfg.Requests = 20000
	cfg.Metrics = NewMetrics()
	if _, err := RunFig9(sys, cfg); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := cfg.Metrics.WriteText(&got); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(fig9MetricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fig9MetricsGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig9MetricsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Figure 9 metrics report drifted from %s (regenerate with -update only for an intended change):\ngot:\n%s",
			fig9MetricsGoldenPath, got.Bytes())
	}
}
