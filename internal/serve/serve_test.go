package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"twl"
	"twl/internal/obs"
	"twl/internal/pcm"
)

// testSpec is a grid small enough to finish in well under a second per
// cell: 256 pages at mean endurance 3000.
func testSpec() JobSpec {
	return JobSpec{
		Schemes:       []string{"TWL_swp", "NOWL"},
		Attacks:       []string{"repeat"},
		Pages:         256,
		MeanEndurance: 3000,
	}
}

func newTestServer(t *testing.T, dir string, workers int) *Server {
	t.Helper()
	srv, err := New(Config{DataDir: dir, Workers: workers, CheckpointEvery: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// postJob submits a spec and returns the response status and decoded body.
func postJob(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// getStatus fetches /jobs/{id}.
func getStatus(t *testing.T, ts *httptest.Server, id string) (int, jobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// waitJob polls until the job leaves the running state (or the deadline
// passes) and returns its final status.
func waitJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.Status != "running" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle before the deadline", id)
	return jobStatus{}
}

func submitAndWait(t *testing.T, ts *httptest.Server, spec JobSpec) jobStatus {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d (%v)", code, out)
	}
	st := waitJob(t, ts, out["id"].(string))
	if st.Status != "done" {
		t.Fatalf("job %s finished %q, want done: %+v", st.ID, st.Status, st.Counts)
	}
	return st
}

// TestJobSpecValidation: malformed grids are rejected before any cell is
// queued, with errors naming the offending field.
func TestJobSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no schemes", JobSpec{Attacks: []string{"repeat"}}, "at least one scheme"},
		{"no workloads", JobSpec{Schemes: []string{"NOWL"}}, "at least one attack or bench"},
		{"unknown scheme", JobSpec{Schemes: []string{"XWL"}, Attacks: []string{"repeat"}}, "unknown scheme"},
		{"unknown attack", JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"ddos"}}, "unknown attack"},
		{"unknown bench", JobSpec{Schemes: []string{"NOWL"}, Benches: []string{"nope"}}, "unknown benchmark"},
		{"negative shards", JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Shards: -1}, "non-negative"},
		{"indivisible shards", JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Pages: 100, Shards: 3}, "divide evenly"},
		{"bad sigma", JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, SigmaFraction: 1.5}, "SigmaFraction"},
	}
	for _, tc := range cases {
		err := tc.spec.normalize()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Scheme names canonicalize, so equivalent submissions share cell keys.
	sp := JobSpec{Schemes: []string{"twl_swp"}, Attacks: []string{"repeat"}}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	if sp.Schemes[0] != "TWL_swp" {
		t.Errorf("scheme not canonicalized: %q", sp.Schemes[0])
	}
	if len(sp.Seeds) != 1 || sp.Seeds[0] != 1 {
		t.Errorf("default seeds = %v, want [1]", sp.Seeds)
	}
}

// TestHTTPEndpoints drives every endpoint of a live server: submit, job
// list, status with the completed-cell mask, the JSONL trace stream,
// metrics, health, and the malformed-request rejections.
func TestHTTPEndpoints(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 2)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	// Malformed jobs: broken JSON, unknown fields, bad specs.
	for _, body := range []string{
		`{"schemes": [`,
		`{"schemes": ["NOWL"], "attacks": ["repeat"], "bogus_field": 1}`,
		`{"attacks": ["repeat"]}`,
		`{"schemes": ["XWL"], "attacks": ["repeat"]}`,
		`{"schemes": ["NOWL"], "attacks": ["ddos"]}`,
	} {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("malformed job %q: HTTP %d, want 400", body, code)
		}
	}

	// Unknown job id.
	if code, _ := getStatus(t, ts, "job-9999-ffffffff"); code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d, want 404", code)
	}

	st := submitAndWait(t, ts, testSpec())
	if len(st.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(st.Cells))
	}
	for i, c := range st.Cells {
		if !st.Completed[i] {
			t.Errorf("completed[%d] = false after done", i)
		}
		if c.Result == nil || c.Result.DemandWrites == 0 {
			t.Errorf("cell %s has no result", c.Source)
		}
	}
	if st.Counts[cellDone] != 2 {
		t.Errorf("counts = %v, want 2 done", st.Counts)
	}

	// Job list includes it.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID || list.Jobs[0].Done != 2 {
		t.Errorf("job list = %+v", list.Jobs)
	}

	// Trace stream: JSONL with the cell lifecycle events.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	events := map[string]int{}
	for _, line := range bytes.Split(bytes.TrimSpace(traceBody), []byte("\n")) {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		events[ev.Event]++
	}
	for _, want := range []string{"cell_queued", "cell_start", "cell_done"} {
		if events[want] != 2 {
			t.Errorf("trace has %d %s events, want 2 (all: %v)", events[want], want, events)
		}
	}

	// Metrics exposition includes the service series.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"twl_serve_jobs_total", "twl_serve_cells_total", "twl_serve_cells_running",
		"twl_serve_cache_hits_total", "twl_serve_cache_misses_total",
	} {
		if !bytes.Contains(metricsBody, []byte(series)) {
			t.Errorf("metrics output missing %s", series)
		}
	}
}

// TestCacheHitOnResubmit: an identical grid resubmitted to the same server
// is served entirely from the result cache — zero additional simulated
// cells — with byte-identical results.
func TestCacheHitOnResubmit(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 2)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := submitAndWait(t, ts, testSpec())
	simulated := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeSimulated)).Value()
	if simulated != 2 {
		t.Fatalf("first run simulated %d cells, want 2", simulated)
	}

	second := submitAndWait(t, ts, testSpec())
	if second.ID == first.ID {
		t.Fatalf("resubmission reused job id %s", first.ID)
	}
	after := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeSimulated)).Value()
	if after != simulated {
		t.Errorf("resubmission simulated %d new cells, want 0", after-simulated)
	}
	cached := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeCached)).Value()
	if cached != 2 {
		t.Errorf("cached outcomes = %d, want 2", cached)
	}
	for i, c := range second.Cells {
		if !c.Cached {
			t.Errorf("cell %s not served from cache", c.Source)
		}
		if !reflect.DeepEqual(c.Result, first.Cells[i].Result) {
			t.Errorf("cell %s cache result diverged:\n  first  %+v\n  second %+v",
				c.Source, first.Cells[i].Result, c.Result)
		}
		if c.Key != first.Cells[i].Key {
			t.Errorf("cell %s key changed across submissions", c.Source)
		}
	}
	if st := srv.CacheStats(); st.Hits < 2 {
		t.Errorf("cache stats %+v, want >= 2 hits", st)
	}
}

// TestDifferentialGrid: a grid run through the service is byte-identical
// to the same cells run directly through the one-shot entry points
// (RunAttackCell / RunBenchCell) — the service adds checkpointing and
// preemption wiring but must not change a single counter.
func TestDifferentialGrid(t *testing.T) {
	spec := JobSpec{
		Schemes:       []string{"TWL_swp", "BWL"},
		Attacks:       []string{"repeat", "inconsistent"},
		Benches:       []string{"vips"},
		Pages:         128,
		MeanEndurance: 2000,
	}
	srv := newTestServer(t, t.TempDir(), 2)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := submitAndWait(t, ts, spec)
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Cells {
		sys := norm.system(c.Seed)
		kind, name := (&cell{Source: c.Source}).sourceKind()
		var want twl.LifetimeResult
		var err error
		if kind == "attack" {
			var mode twl.AttackMode
			mode, err = twl.ParseAttackMode(name)
			if err == nil {
				want, err = twl.RunAttackCell(sys, c.Scheme, mode, twl.LifetimeConfig{})
			}
		} else {
			want, err = twl.RunBenchCell(sys, c.Scheme, name, twl.LifetimeConfig{})
		}
		if err != nil {
			t.Fatalf("direct %s/%s: %v", c.Scheme, c.Source, err)
		}
		if got := c.Result.toLifetime(); got != want {
			t.Errorf("service result diverged for %s/%s:\n  service %+v\n  direct  %+v",
				c.Scheme, c.Source, got, want)
		}
	}
}

// TestShardedDifferential: a sharded cell through the service equals
// twl.RunShardedLifetime run directly, and a bench cell of a sharded spec
// falls back to the unsharded runner.
func TestShardedDifferential(t *testing.T) {
	spec := JobSpec{
		Schemes:       []string{"TWL_swp"},
		Attacks:       []string{"inconsistent"},
		Benches:       []string{"vips"},
		Pages:         256,
		MeanEndurance: 3000,
		Shards:        4,
	}
	srv := newTestServer(t, t.TempDir(), 2)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := submitAndWait(t, ts, spec)
	sys := twl.SystemConfig{Pages: 256, PageSize: 4096, MeanEndurance: 3000, SigmaFraction: 0.11, Seed: 1}
	bench := st.Cells[1]
	if bench.Source != "bench:vips" || bench.Result.Sharded != nil {
		t.Fatalf("bench cell %s did not fall back to the unsharded path: %+v", bench.Source, bench.Result)
	}
	wantBench, err := twl.RunBenchCell(sys, "TWL_swp", "vips", twl.LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := bench.Result.toLifetime(); got != wantBench {
		t.Errorf("bench service result diverged:\n  service %+v\n  direct  %+v", got, wantBench)
	}
	c := st.Cells[0]
	if c.Result.Sharded == nil || c.Result.Sharded.Shards != 4 {
		t.Fatalf("cell did not run sharded: %+v", c.Result)
	}
	want, err := twl.RunShardedLifetime(sys, twl.ShardedConfig{Scheme: "TWL_swp", Mode: twl.AttackInconsistent, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Result.toLifetime(); got != want.LifetimeResult {
		t.Errorf("sharded service result diverged:\n  service %+v\n  direct  %+v", got, want.LifetimeResult)
	}
	if !reflect.DeepEqual(c.Result.Sharded.ShardDemand, want.ShardDemand) {
		t.Errorf("shard demand diverged: %v vs %v", c.Result.Sharded.ShardDemand, want.ShardDemand)
	}
}

// TestPreemptResume is the mid-cell kill path in miniature: a draining
// server preempts the simulation at a checkpoint boundary (ErrRunStopped),
// leaves the checkpoint on disk, and a later attempt resumes from it to
// the bit-identical result of an uninterrupted run.
func TestPreemptResume(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, dir, 1)
	defer srv.Close()

	spec := JobSpec{Schemes: []string{"TWL_swp"}, Attacks: []string{"repeat"}, Pages: 256, MeanEndurance: 3000}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{id: "test", spec: spec, cells: buildCells(spec)}
	c := j.cells[0]

	srv.draining.Store(true)
	if _, err := srv.simulate(j, c); !errors.Is(err, twl.ErrRunStopped) {
		t.Fatalf("draining simulate error = %v, want ErrRunStopped", err)
	}
	ckpt := filepath.Join(srv.ckptDir, c.Key+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after preemption: %v", err)
	}

	srv.draining.Store(false)
	res, err := srv.simulate(j, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twl.RunAttackCell(spec.system(1), "TWL_swp", twl.AttackRepeat, twl.LifetimeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.toLifetime(); got != want {
		t.Errorf("resumed result diverged:\n  resumed %+v\n  direct  %+v", got, want)
	}
}

// TestDrainRestartCompletes is the worker-kill integration path: a drained
// server persists its incomplete cells as pending, and a fresh server over
// the same data directory reloads them, finishes the job, and lands on the
// same grid a direct run produces.
func TestDrainRestartCompletes(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, dir, 2)
	ts := httptest.NewServer(srv.Handler())

	spec := JobSpec{
		Schemes:       []string{"TWL_swp", "BWL", "NOWL"},
		Attacks:       []string{"repeat", "scan"},
		Pages:         128,
		MeanEndurance: 2000,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := out["id"].(string)
	// Drain immediately: whatever is mid-cell preempts at its next
	// checkpoint, everything else stays pending.
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, dir, 2)
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	st := waitJob(t, ts2, id)
	if st.Status != "done" {
		t.Fatalf("restarted job finished %q: %+v", st.Status, st.Counts)
	}
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Cells {
		_, name := (&cell{Source: c.Source}).sourceKind()
		mode, err := twl.ParseAttackMode(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twl.RunAttackCell(norm.system(c.Seed), c.Scheme, mode, twl.LifetimeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Result.toLifetime(); got != want {
			t.Errorf("post-restart result diverged for %s/%s:\n  service %+v\n  direct  %+v",
				c.Scheme, c.Source, got, want)
		}
	}
}

// TestCancelJob: cancellation settles every cell, the job reports
// cancelled, and a cancelled job accepts no more state changes.
func TestCancelJob(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Seeds = []uint64{1, 2, 3, 4}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := out["id"].(string)
	resp, err := http.Post(ts.URL+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	st := waitJob(t, ts, id)
	if st.Status != cellCancelled {
		t.Fatalf("cancelled job status %q: %+v", st.Status, st.Counts)
	}
	if st.Counts[cellPending]+st.Counts[cellRunning] != 0 {
		t.Errorf("cancelled job still has live cells: %+v", st.Counts)
	}

	// Cancelling an unknown job 404s.
	resp, err = http.Post(ts.URL+"/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestClosedServerRejectsSubmit: after Close, submissions 503.
func TestClosedServerRejectsSubmit(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postJob(t, ts, string(b)); code != http.StatusServiceUnavailable {
		t.Errorf("submit after close: HTTP %d, want 503", code)
	}
}

// TestOversizedJobRejected: a grid expanding past MaxJobCells is a 400 and
// never becomes a job; a grid exactly at the limit validates.
func TestOversizedJobRejected(t *testing.T) {
	seeds := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(i + 1)
		}
		return out
	}
	atLimit := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat", "scan"}, Seeds: seeds(MaxJobCells / 2)}
	if err := atLimit.normalize(); err != nil {
		t.Fatalf("grid of exactly %d cells rejected: %v", MaxJobCells, err)
	}

	srv := newTestServer(t, t.TempDir(), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	over := testSpec()
	over.Seeds = seeds(MaxJobCells/2 + 1) // 2 schemes × 1 attack
	b, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusBadRequest {
		t.Fatalf("oversized job: HTTP %d (%v), want 400", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "cells") {
		t.Errorf("error %q does not name the cell limit", msg)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct{ Jobs []any }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected job was registered: %v", list.Jobs)
	}
}

// TestOversizedDeviceRejected: a job whose device exceeds MaxJobPages (the
// paper's full 32 GB geometry) is a 400 and is never persisted, so it cannot
// crash-loop the daemon from its job directory at boot; a device exactly at
// the limit validates.
func TestOversizedDeviceRejected(t *testing.T) {
	if full := pcm.DefaultGeometry().Pages; MaxJobPages != full {
		t.Fatalf("MaxJobPages = %d, want the full geometry's %d pages", MaxJobPages, full)
	}
	atLimit := testSpec()
	atLimit.Pages = MaxJobPages
	if err := atLimit.normalize(); err != nil {
		t.Fatalf("device of exactly %d pages rejected: %v", MaxJobPages, err)
	}

	dir := t.TempDir()
	srv := newTestServer(t, dir, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	over := testSpec()
	over.Pages = 1 << 24
	b, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusBadRequest {
		t.Fatalf("oversized device: HTTP %d (%v), want 400", code, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "pages") {
		t.Errorf("error %q does not name the page limit", msg)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected job left %d files under jobs/: %v", len(entries), entries[0].Name())
	}
}

// TestSpecDedupe: duplicate grid axes — case-variant schemes, repeated
// workloads and seeds — collapse on normalize, so one job never expands to
// two cells with the same key (same-key cells share checkpoint paths and
// must never run concurrently).
func TestSpecDedupe(t *testing.T) {
	sp := JobSpec{
		Schemes: []string{"TWL_swp", "twl_swp", "NOWL"},
		Attacks: []string{"repeat", "repeat"},
		Benches: []string{"vips", "vips"},
		Seeds:   []uint64{1, 1, 2},
	}
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.Schemes, []string{"TWL_swp", "NOWL"}) {
		t.Errorf("schemes = %v, want [TWL_swp NOWL]", sp.Schemes)
	}
	if !reflect.DeepEqual(sp.Attacks, []string{"repeat"}) {
		t.Errorf("attacks = %v, want [repeat]", sp.Attacks)
	}
	if !reflect.DeepEqual(sp.Benches, []string{"vips"}) {
		t.Errorf("benches = %v, want [vips]", sp.Benches)
	}
	if !reflect.DeepEqual(sp.Seeds, []uint64{1, 2}) {
		t.Errorf("seeds = %v, want [1 2]", sp.Seeds)
	}
	cells := buildCells(sp)
	if len(cells) != 8 { // 2 schemes × 2 workloads × 2 seeds
		t.Errorf("cells = %d, want 8", len(cells))
	}
	keys := map[string]bool{}
	for _, c := range cells {
		if keys[c.Key] {
			t.Errorf("duplicate cell key %s (%s)", c.Key, c.name())
		}
		keys[c.Key] = true
	}
}

// TestConcurrentSameKeyJobs: two identical grids submitted back to back
// never simulate a key twice or trip over its shared checkpoint paths —
// jobs run in submission order without overlapping, so the second job's
// cells settle from the first run's cache entries. (When both copies once
// ran against ckpt/<key> at the same time, the first completion's
// checkpoint removal aborted the survivor's next checkpoint write.) Sharded
// cells are the worst case: the second run's orphan sweep also deleted the
// first run's live temp files.
func TestConcurrentSameKeyJobs(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 4)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{
		Schemes:       []string{"TWL_swp"},
		Attacks:       []string{"repeat", "inconsistent"},
		Pages:         256,
		MeanEndurance: 3000,
		Shards:        4,
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		code, out := postJob(t, ts, string(b))
		if code != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids = append(ids, out["id"].(string))
	}
	var done []jobStatus
	for _, id := range ids {
		st := waitJob(t, ts, id)
		if st.Status != "done" {
			t.Fatalf("job %s finished %q: %+v", id, st.Status, st.Counts)
		}
		done = append(done, st)
	}
	simulated := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeSimulated)).Value()
	cached := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeCached)).Value()
	failed := srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcomeFailed)).Value()
	if simulated != 2 || cached != 2 || failed != 0 {
		t.Errorf("outcomes simulated=%v cached=%v failed=%v, want 2/2/0", simulated, cached, failed)
	}
	for i := range done[0].Cells {
		if !reflect.DeepEqual(done[0].Cells[i].Result, done[1].Cells[i].Result) {
			t.Errorf("same-key cells diverged:\n  first  %+v\n  second %+v",
				done[0].Cells[i].Result, done[1].Cells[i].Result)
		}
	}
}

// TestSubmitPersistFailure: a submission whose job file cannot be written
// reports the error and leaves no trace — nothing registered, nothing
// runnable, the id counter unspent — so the service never runs a job its
// submitter was told failed.
func TestSubmitPersistFailure(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	// Replace jobs/ with a regular file so the atomic persist cannot even
	// create its temp file (permission bits are no obstacle when the tests
	// run as root).
	if err := os.RemoveAll(srv.jobsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(srv.jobsDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(testSpec()); err == nil {
		t.Fatal("submit with unwritable jobs dir reported success")
	}
	srv.mu.Lock()
	jobs, runnable, last := len(srv.jobs), len(srv.order), srv.lastID
	srv.mu.Unlock()
	if jobs != 0 || runnable != 0 || last != 0 {
		t.Fatalf("failed submit left state behind: jobs=%d runnable=%d lastID=%d", jobs, runnable, last)
	}
	// Restore the directory: the next submission takes the first id.
	if err := os.Remove(srv.jobsDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(srv.jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	id, cells, err := srv.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(id, "job-0001-") || cells != 2 {
		t.Errorf("post-recovery submit = %s (%d cells), want job-0001-* with 2 cells", id, cells)
	}
}

// TestFailedCellRemovesCheckpoint: a cell that fails outright (here by
// resuming from a corrupt checkpoint, which the CRC rejects) is terminal
// and must not leak its checkpoint file in ckptDir.
func TestFailedCellRemovesCheckpoint(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Schemes: []string{"TWL_swp"}, Attacks: []string{"repeat"}, Pages: 256, MeanEndurance: 3000}
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(srv.ckptDir, buildCells(norm)[0].Key+".ckpt")
	if err := os.WriteFile(ckpt, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitJob(t, ts, out["id"].(string))
	if st.Status != cellFailed || st.Cells[0].Error == "" {
		t.Fatalf("job finished %q (err %q), want failed with an error", st.Status, st.Cells[0].Error)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("failed cell left its checkpoint behind (stat err: %v)", err)
	}
}

// TestCloseStopsDispatch: after Close the runner takes no job and no
// pending cell starts — drain latency is bounded by the in-flight cells'
// checkpoint cadence, not by the number of pending cells.
func TestCloseStopsDispatch(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{id: "test", spec: spec, cells: buildCells(spec), trace: &obs.TraceBuffer{}}
	j.tracer = obs.NewTracer(j.trace, 0)
	srv.mu.Lock()
	srv.jobs[j.id] = j
	srv.order = append(srv.order, j.id)
	srv.mu.Unlock()
	if _, ok := srv.nextJob(); ok {
		t.Fatal("the runner took a job after Close")
	}
	srv.runJob(j)
	// The executor's stop poll and the claim can interleave; the claim
	// alone must refuse too.
	if srv.claim(j, j.cells[0]) {
		t.Fatal("claim accepted a pending cell after Close")
	}
	for _, c := range j.cells {
		if c.Status != cellPending {
			t.Errorf("cell %s status %q after a closed dispatch, want pending", c.name(), c.Status)
		}
	}
}

// TestJobsRunInOrder: never more than Workers cells run at once, and jobs
// settle in submission order — no cell of a job starts while an earlier
// job still has a pending or running cell.
func TestJobsRunInOrder(t *testing.T) {
	const workers = 2
	srv := newTestServer(t, t.TempDir(), workers)
	defer srv.Close()
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		spec := testSpec()
		spec.Seeds = []uint64{seed, seed + 10}
		id, _, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		running, live := 0, 0
		problem := ""
		srv.mu.Lock()
		for _, id := range ids {
			earlierLive := live
			started := false
			for _, c := range srv.jobs[id].cells {
				switch c.Status {
				case cellRunning:
					running++
					live++
					started = true
				case cellPending:
					live++
				default:
					started = true
				}
			}
			if started && earlierLive > 0 && problem == "" {
				problem = fmt.Sprintf("job %s started while an earlier job had live cells", id)
			}
		}
		srv.mu.Unlock()
		if running > workers {
			t.Fatalf("%d cells running at once, want at most %d", running, workers)
		}
		if problem != "" {
			t.Fatal(problem)
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs did not settle before the deadline")
		}
		time.Sleep(50 * time.Microsecond)
	}
	for _, id := range ids {
		srv.mu.Lock()
		state := jobState(srv.jobs[id])
		srv.mu.Unlock()
		if state != cellDone {
			t.Errorf("job %s finished %q, want done", id, state)
		}
	}
}

// TestJobIDDeterminism: ids embed a spec hash and a monotonic counter —
// no wall clock, no randomness.
func TestJobIDDeterminism(t *testing.T) {
	sp := testSpec()
	if err := sp.normalize(); err != nil {
		t.Fatal(err)
	}
	a, b := jobID(1, sp), jobID(1, sp)
	if a != b {
		t.Errorf("jobID not deterministic: %s vs %s", a, b)
	}
	if c := jobID(2, sp); c == a {
		t.Errorf("distinct counters produced one id: %s", c)
	}
	n, ok := jobSeq(a)
	if !ok || n != 1 {
		t.Errorf("jobSeq(%s) = %d,%v", a, n, ok)
	}
	if _, ok := jobSeq("notes.json"); ok {
		t.Error("jobSeq accepted a foreign name")
	}
	if !strings.HasPrefix(a, fmt.Sprintf("job-%04d-", 1)) {
		t.Errorf("unexpected id format %s", a)
	}
}
