package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"twl"
	"twl/internal/serve"
)

// The traced run's campaign runs twlsimd in process: serve.New on a fresh
// data directory and one client driving Server.Handler() in a closed loop —
// it sends the next request only after the previous one returned. A job is
// timed from its POST until a GET /jobs/{id} poll reports it finished.
const (
	pollInterval = 500 * time.Microsecond
	// campaignCkptEvery makes several checkpoints per cell (cells serve
	// ~10^5–10^6 demand writes at the default SmallSystem shape).
	campaignCkptEvery = 100_000
	campaignSeeds     = 2
	// warmPerCold warm resubmissions follow each cold job.
	warmPerCold = 15
)

// Random and bench cells stay out: they would bring the source layer and
// the per-write loop into this workload. RBSG stays out because the service
// builds attacks over the full device while RBSG addresses fewer pages. The
// grid is kept to 24 cells: the service rewrites the whole job file after
// every cell, so a warm job writes cells² job-file bytes, and larger grids
// turn the workload into a disk-writeback benchmark.
var (
	campaignSchemes = []string{"TWL_swp", "SR", "StartGap", "BWL"}
	campaignAttacks = []string{"repeat", "scan", "inconsistent"}
)

func campaignWorkers() int { return min(2, runtime.NumCPU()) }

func campaignSpec(seed uint64) serve.JobSpec {
	sp := serve.JobSpec{Schemes: campaignSchemes, Attacks: campaignAttacks}
	for k := 0; k < campaignSeeds; k++ {
		sp.Seeds = append(sp.Seeds, deriveSeed(seed, wCampaign, k))
	}
	return sp
}

// jobStatus is the part of GET /jobs/{id} the client reads.
type jobStatus struct {
	Status string `json:"status"`
	Cells  []struct {
		Scheme string      `json:"scheme"`
		Source string      `json:"source"`
		Seed   uint64      `json:"seed"`
		Cached bool        `json:"cached"`
		Result serveResult `json:"result"`
	} `json:"cells"`
}

// serveResult is a cell result as the service encodes it: the record's
// fields under the same names, except the normalized lifetime.
type serveResult struct {
	record
	Normalized float64 `json:"normalized_lifetime"`
}

// client drives one server through its handler.
type client struct {
	h   http.Handler
	log *spanLog // nil when untraced
	// Handler time per route (traced only).
	submitNS, statusNS []float64
}

func (c *client) do(parent int, method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	route := "GET /jobs/{id}"
	if method == http.MethodPost {
		route = "POST /jobs"
	}
	sp := c.log.begin(parent, "http "+route, "")
	t0 := nanotime()
	c.h.ServeHTTP(rec, req)
	d := float64(nanotime() - t0)
	sp.end()
	if c.log != nil {
		if method == http.MethodPost {
			c.submitNS = append(c.submitNS, d)
		} else {
			c.statusNS = append(c.statusNS, d)
		}
	}
	return rec.Code, rec.Body.Bytes()
}

// runJob submits spec and polls until the job leaves "running". It returns
// the submit-to-done time and the final status.
func (c *client) runJob(spec []byte, label string) (int64, jobStatus, error) {
	js := c.log.begin(-1, "job", label)
	defer js.end()
	t0 := nanotime()
	code, body := c.do(spanID(js), http.MethodPost, "/jobs", spec)
	if code != http.StatusCreated {
		return 0, jobStatus{}, fmt.Errorf("POST /jobs: %d %s", code, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return 0, jobStatus{}, err
	}
	for {
		code, body = c.do(spanID(js), http.MethodGet, "/jobs/"+sub.ID, nil)
		if code != http.StatusOK {
			return 0, jobStatus{}, fmt.Errorf("GET /jobs/%s: %d %s", sub.ID, code, body)
		}
		if !bytes.Contains(body, []byte(`"status": "running"`)) {
			break
		}
		time.Sleep(pollInterval)
	}
	d := nanotime() - t0
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, st, err
	}
	if st.Status != "done" {
		return d, st, fmt.Errorf("job %s ended %q", sub.ID, st.Status)
	}
	return d, st, nil
}

// cellRecords converts a finished job's cells into records keyed by their
// position in the spec ("campaign/<scheme>/<source>/<seed index>").
func cellRecords(spec serve.JobSpec, st jobStatus) map[string]record {
	idx := map[uint64]int{}
	for k, s := range spec.Seeds {
		idx[s] = k
	}
	out := map[string]record{}
	for _, c := range st.Cells {
		rec := c.Result.record
		rec.Normalized = c.Result.Normalized
		out[fmt.Sprintf("%s/%s/%s/%d", wCampaign, c.Scheme, c.Source, idx[c.Seed])] = rec
	}
	return out
}

// directRecords runs the campaign's cells through twl.RunAttackCell, the
// entry point the service uses, with no service in between.
func directRecords(spec serve.JobSpec) (map[string]record, error) {
	out := map[string]record{}
	for _, scheme := range spec.Schemes {
		for _, a := range spec.Attacks {
			mode, err := twl.ParseAttackMode(a)
			if err != nil {
				return nil, err
			}
			for k, seed := range spec.Seeds {
				sys := twl.SmallSystem(seed)
				res, err := twl.RunAttackCell(sys, scheme, mode, twl.LifetimeConfig{})
				if err != nil {
					return nil, err
				}
				out[fmt.Sprintf("%s/%s/attack:%s/%d", wCampaign, scheme, a, k)] = fromLifetime(res)
			}
		}
	}
	return out, nil
}

// campaignServer is one service instance on a fresh directory.
type campaignServer struct {
	dir string
	srv *serve.Server
}

func newCampaignServer(root string, n int) (*campaignServer, error) {
	dir := filepath.Join(root, fmt.Sprintf("campaign-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir, Workers: campaignWorkers(), CheckpointEvery: campaignCkptEvery})
	if err != nil {
		return nil, err
	}
	return &campaignServer{dir: dir, srv: srv}, nil
}

func (s *campaignServer) close() error {
	err := s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// campaignPass is one cold job and its warm resubmissions on a fresh
// server.
type campaignPass struct {
	coldNS   int64
	warmDone int // warm jobs that returned the cold results from the cache
	// Traced only: handler spans and cache hit ratio of the warm passes.
	submitNS, statusNS []float64
	warmHitRatio       float64
}

// runCampaignPass runs one cold job and warm resubmissions, checking each
// job's results: the cold job against the direct runs (want), every warm
// job against the cold one, and the cache counters on both sides.
func runCampaignPass(root string, n int, spec serve.JobSpec, warm int, traced bool, log *spanLog, ck *checker, want map[string]record) (campaignPass, error) {
	var out campaignPass
	cs, err := newCampaignServer(root, n)
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := cs.close(); cerr != nil {
			ck.fail(wCampaign, "close: "+cerr.Error())
		}
	}()
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	cells := len(spec.Schemes) * len(spec.Attacks) * len(spec.Seeds)
	c := &client{h: cs.srv.Handler()}
	if traced {
		c.log = log
	}

	before := cs.srv.CacheStats()
	d, st, err := c.runJob(body, "cold")
	got := cellRecords(spec, st)
	problem := ""
	if err == nil {
		after := cs.srv.CacheStats()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != 0 || m != uint64(cells) {
			problem = fmt.Sprintf("cache hits %d misses %d on the cold pass, want 0 and %d", h, m, cells)
		}
		for _, id := range sortedKeys(got) {
			rec := got[id]
			if w, ok := want[id]; !ok || w.key() != rec.key() {
				problem = id + ": service result differs from the same cell run directly"
			} else if p := ck.verify(id, rec); p != "" {
				problem = id + ": " + p
			}
			if problem != "" {
				break
			}
		}
	}
	ck.count(wCampaign+"/cold", err, problem)
	if err != nil || problem != "" {
		return out, nil
	}
	out.coldNS = d

	hitsBefore := cs.srv.CacheStats()
	for i := 0; i < warm; i++ {
		_, st, err := c.runJob(body, "warm")
		wgot := cellRecords(spec, st)
		if err == nil && len(wgot) != len(got) {
			err = fmt.Errorf("warm job returned %d cells, cold %d", len(wgot), len(got))
		}
		if err == nil {
			for id, rec := range wgot {
				if got[id].key() != rec.key() {
					err = fmt.Errorf("warm result for %s differs from the cold pass", id)
					break
				}
			}
		}
		for _, cell := range st.Cells {
			if err == nil && !cell.Cached {
				err = fmt.Errorf("warm cell %s/%s was simulated, not served from the cache", cell.Scheme, cell.Source)
			}
		}
		ck.count(wCampaign+"/warm", err, "")
		if err == nil {
			out.warmDone++
		}
	}
	hitsAfter := cs.srv.CacheStats()
	hits, misses := hitsAfter.Hits-hitsBefore.Hits, hitsAfter.Misses-hitsBefore.Misses
	if hits+misses > 0 {
		out.warmHitRatio = float64(hits) / float64(hits+misses)
	}
	if misses != 0 || hits != uint64(out.warmDone*cells) {
		ck.fail(wCampaign+"/warm", fmt.Sprintf("cache hits %d misses %d over warm passes, want %d and 0", hits, misses, out.warmDone*cells))
	}
	out.submitNS, out.statusNS = c.submitNS, c.statusNS
	return out, nil
}

// tmpRoot is the scratch directory for service state, inside the checkout.
func tmpRoot() (string, error) {
	dir := filepath.Join(".bench_build", "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

func traceCampaign(seed uint64, ck *checker, log *spanLog, m map[string]metric) error {
	root, err := tmpRoot()
	if err != nil {
		return err
	}
	spec := campaignSpec(seed)
	want, err := directRecords(spec)
	if err != nil {
		return err
	}
	plain, err := runCampaignPass(root, 0, spec, 1, false, nil, ck, want)
	if err != nil {
		return err
	}
	traced, err := runCampaignPass(root, 1, spec, warmPerCold, true, log, ck, want)
	if err != nil {
		return err
	}
	if plain.coldNS == 0 || traced.coldNS == 0 {
		return fmt.Errorf("campaign cold job failed")
	}
	fmt.Printf("# campaign: cold job of %d cells plus %d warm resubmissions; workers=%d, poll interval %v, closed loop with one client\n",
		len(campaignSchemes)*len(campaignAttacks)*campaignSeeds, warmPerCold, campaignWorkers(), pollInterval)
	m["serve.submit_ms"] = metric{median(traced.submitNS) / 1e6, "ms"}
	m["serve.status_ms"] = metric{median(traced.statusNS) / 1e6, "ms"}
	m["cache.hit_ratio"] = metric{traced.warmHitRatio, "ratio"}
	m["bench.trace_overhead_frac."+wCampaign] = metric{float64(traced.coldNS)/float64(plain.coldNS) - 1, "ratio"}
	return traceCheckpoints(seed, root, m)
}

// traceCheckpoints times one campaign-sized cell at the campaign's
// checkpoint cadence against the same cell without checkpoints.
func traceCheckpoints(seed uint64, root string, m map[string]metric) error {
	sys := twl.SmallSystem(deriveSeed(seed, wCampaign, 0))
	path := filepath.Join(root, fmt.Sprintf("ckpt-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	var with, without []float64
	var size int64
	for i := 0; i < 5; i++ {
		for _, ckpt := range []bool{false, true} {
			lc := twl.LifetimeConfig{}
			if ckpt {
				if err := os.RemoveAll(path); err != nil {
					return err
				}
				lc.Checkpoint = &twl.CheckpointConfig{Path: path, Every: campaignCkptEvery}
			}
			t0 := nanotime()
			if _, err := twl.RunAttackCell(sys, "TWL_swp", twl.AttackInconsistent, lc); err != nil {
				return err
			}
			d := float64(nanotime() - t0)
			if !ckpt {
				without = append(without, d)
				continue
			}
			with = append(with, d)
			fi, err := os.Stat(path)
			if err != nil {
				return err
			}
			size = fi.Size()
		}
	}
	m["sim.ckpt_overhead_frac"] = metric{median(with)/median(without) - 1, "ratio"}
	m["snap.ckpt_bytes_per_page"] = metric{float64(size) / float64(sys.Pages), "B"}
	return nil
}

func sortedKeys(m map[string]record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
