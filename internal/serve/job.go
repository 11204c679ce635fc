package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"twl"
	"twl/internal/cache"
	"twl/internal/obs"
	"twl/internal/snap"
)

// JobSpec is the wire format of one experiment grid: the cross product of
// schemes × workloads × seeds over one system configuration. Zero-valued
// system fields take the SmallSystem defaults, so a minimal job is just
// {"schemes": ["TWL_swp"], "attacks": ["repeat"]}.
type JobSpec struct {
	// Schemes lists the wear-leveling schemes (SchemeNames vocabulary,
	// case-insensitive; canonicalized on submit).
	Schemes []string `json:"schemes"`
	// Attacks and Benches list the workloads; at least one of the two must
	// be non-empty. Every scheme runs against every workload.
	Attacks []string `json:"attacks,omitempty"`
	Benches []string `json:"benches,omitempty"`
	// Seeds lists the system seeds (default: [1]). Every scheme × workload
	// pair runs once per seed.
	Seeds []uint64 `json:"seeds,omitempty"`

	// System configuration; zero values take the SmallSystem defaults.
	Pages         int     `json:"pages,omitempty"`
	PageSize      int     `json:"page_size,omitempty"`
	MeanEndurance float64 `json:"mean_endurance,omitempty"`
	SigmaFraction float64 `json:"sigma_fraction,omitempty"`

	// Shards > 0 routes attack cells through the bank-sharded runner
	// (Pages must divide evenly). Bench cells cannot shard and always run
	// unsharded.
	Shards int `json:"shards,omitempty"`
	// MaxDemandWrites caps each cell (0: the simulator default, 2 × total
	// endurance).
	MaxDemandWrites uint64 `json:"max_demand_writes,omitempty"`
}

// MaxJobCells caps the cells one job may expand to (schemes × workloads ×
// seeds, after duplicate entries collapse). The request body limit alone
// does not bound the grid: a 1 MiB spec can list half a million seeds.
// Larger campaigns are submitted as several jobs.
const MaxJobCells = 4096

// MaxJobPages caps a job's simulated device at the paper's full 32 GB
// geometry (pcm.DefaultGeometry().Pages). Each page costs the cell ~16 B
// of device state, and a job is persisted before its cells run, so an
// unbounded page count would let one request OOM-kill the daemon again on
// every restart.
const MaxJobPages = 1 << 23

// dedupe drops later duplicates from a grid axis, preserving first-seen
// order. Axes must be duplicate-free after canonicalization so one job
// never expands to two cells with the same key — same-key cells share
// checkpoint paths and may only ever run one at a time (jobs never overlap,
// which serializes them across jobs; within a job they must not exist at
// all).
func dedupe[T comparable](in []T) []T {
	seen := make(map[T]struct{}, len(in))
	out := in[:0]
	for _, v := range in {
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// normalize validates the spec, fills defaults, canonicalizes scheme names
// and drops duplicate axis entries, so equivalent submissions derive
// identical cell keys and no job holds two cells with the same key.
func (sp *JobSpec) normalize() error {
	if len(sp.Schemes) == 0 {
		return fmt.Errorf("serve: job needs at least one scheme")
	}
	if len(sp.Attacks)+len(sp.Benches) == 0 {
		return fmt.Errorf("serve: job needs at least one attack or bench workload")
	}
	canon := map[string]string{}
	for _, name := range twl.SchemeNames() {
		canon[strings.ToLower(name)] = name
	}
	for i, name := range sp.Schemes {
		c, ok := canon[strings.ToLower(name)]
		if !ok {
			return fmt.Errorf("serve: unknown scheme %q (known: %s)",
				name, strings.Join(twl.SchemeNames(), ", "))
		}
		sp.Schemes[i] = c
	}
	sp.Schemes = dedupe(sp.Schemes)
	for _, name := range sp.Attacks {
		if _, err := twl.ParseAttackMode(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	sp.Attacks = dedupe(sp.Attacks)
	for _, name := range sp.Benches {
		if _, err := twl.BenchmarkByName(name); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	sp.Benches = dedupe(sp.Benches)
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	sp.Seeds = dedupe(sp.Seeds)
	if n := len(sp.Schemes) * (len(sp.Attacks) + len(sp.Benches)) * len(sp.Seeds); n > MaxJobCells {
		return fmt.Errorf("serve: job expands to %d cells, over the limit of %d; split it into smaller jobs", n, MaxJobCells)
	}
	def := twl.SmallSystem(0)
	if sp.Pages == 0 {
		sp.Pages = def.Pages
	}
	if sp.Pages > MaxJobPages {
		return fmt.Errorf("serve: pages (%d) over the limit of %d", sp.Pages, MaxJobPages)
	}
	if sp.PageSize == 0 {
		sp.PageSize = def.PageSize
	}
	if sp.MeanEndurance == 0 {
		sp.MeanEndurance = def.MeanEndurance
	}
	if sp.SigmaFraction == 0 {
		sp.SigmaFraction = def.SigmaFraction
	}
	if sp.Shards < 0 {
		return fmt.Errorf("serve: shards must be non-negative, got %d", sp.Shards)
	}
	if sp.Shards > 0 && sp.Pages%sp.Shards != 0 {
		return fmt.Errorf("serve: pages (%d) must divide evenly into %d shards", sp.Pages, sp.Shards)
	}
	return sp.system(sp.Seeds[0]).Validate()
}

// system builds the cell's SystemConfig for one seed.
func (sp JobSpec) system(seed uint64) twl.SystemConfig {
	return twl.SystemConfig{
		Pages:         sp.Pages,
		PageSize:      sp.PageSize,
		MeanEndurance: sp.MeanEndurance,
		SigmaFraction: sp.SigmaFraction,
		Seed:          seed,
	}
}

// Cell statuses. pending → running → one of the terminal three; a preempted
// running cell returns to pending and runs again on restart.
const (
	cellPending   = "pending"
	cellRunning   = "running"
	cellDone      = "done"
	cellFailed    = "failed"
	cellCancelled = "cancelled"
)

// cell is one scheme × workload × seed simulation of a job. Status, Cached,
// Error and Result are mutable and guarded by the owning Server's mu; the
// identity fields are immutable after construction.
type cell struct {
	Scheme string `json:"scheme"`
	// Source is "attack:<mode>" or "bench:<name>".
	Source string `json:"source"`
	Seed   uint64 `json:"seed"`
	// Key is the content address of the cell's result (see cellMaterial).
	Key    string      `json:"key"`
	Status string      `json:"status"`
	Cached bool        `json:"cached,omitempty"`
	Error  string      `json:"error,omitempty"`
	Result *cellResult `json:"result,omitempty"`
}

// name labels the cell in trace events: "TWL_swp/attack:repeat/seed=1".
func (c *cell) name() string {
	return fmt.Sprintf("%s/%s/seed=%d", c.Scheme, c.Source, c.Seed)
}

// sourceKind splits the Source field into its kind ("attack" or "bench")
// and workload name.
func (c *cell) sourceKind() (kind, name string) {
	kind, name, _ = strings.Cut(c.Source, ":")
	return kind, name
}

// cellMaterial is the canonical key material of one cell: every
// construction input that can change the result, in fixed field order,
// under a version prefix so a change to result semantics invalidates old
// cache entries. Sharding is part of the key — a sharded run is a different
// (also deterministic) experiment than an unsharded one, not a different
// route to the same bytes. v2 dropped the storage-width field when the
// device got a single layout; v1 keys are orphaned rather than shared.
func cellMaterial(sys twl.SystemConfig, scheme, source string, shards int, maxDemand uint64) string {
	return fmt.Sprintf(
		"twlcell/v2|scheme=%s|source=%s|pages=%d|page_size=%d|mean_endurance=%g|sigma_fraction=%g|seed=%d|shards=%d|cap=%d",
		scheme, source, sys.Pages, sys.PageSize, sys.MeanEndurance, sys.SigmaFraction,
		sys.Seed, shards, maxDemand)
}

// buildCells expands a normalized spec into its deterministic cell list:
// scheme-major, attacks before benches, seeds innermost.
func buildCells(sp JobSpec) []*cell {
	var sources []string
	for _, a := range sp.Attacks {
		sources = append(sources, "attack:"+a)
	}
	for _, b := range sp.Benches {
		sources = append(sources, "bench:"+b)
	}
	var cells []*cell
	for _, scheme := range sp.Schemes {
		for _, src := range sources {
			for _, seed := range sp.Seeds {
				shards := sp.Shards
				if strings.HasPrefix(src, "bench:") {
					// Bench cells always run unsharded (the runner would
					// reject them); key them that way so a resubmission
					// without shards hits the same cache entry.
					shards = 0
				}
				cells = append(cells, &cell{
					Scheme: scheme,
					Source: src,
					Seed:   seed,
					Key:    cache.Key(cellMaterial(sp.system(seed), scheme, src, shards, sp.MaxDemandWrites)),
					Status: cellPending,
				})
			}
		}
	}
	return cells
}

// cellResult is the serializable mirror of twl.LifetimeResult (FailCause is
// an error there, a string here), plus the sharded-run extras when the cell
// ran through the bank-sharded runner.
type cellResult struct {
	Scheme       string       `json:"scheme"`
	DemandWrites uint64       `json:"demand_writes"`
	DemandReads  uint64       `json:"demand_reads"`
	DeviceWrites uint64       `json:"device_writes"`
	SwapWrites   uint64       `json:"swap_writes"`
	Swaps        uint64       `json:"swaps"`
	FailedPage   int          `json:"failed_page"`
	Capped       bool         `json:"capped"`
	FailCause    string       `json:"fail_cause,omitempty"`
	RetiredPages int          `json:"retired_pages,omitempty"`
	SparesUsed   int          `json:"spares_used,omitempty"`
	SparePages   int          `json:"spare_pages,omitempty"`
	Normalized   float64      `json:"normalized_lifetime"`
	Cycles       int64        `json:"cycles"`
	Sharded      *shardedInfo `json:"sharded,omitempty"`
}

// shardedInfo records the partitioning of a cell that ran sharded.
type shardedInfo struct {
	Shards      int      `json:"shards"`
	ShardPages  int      `json:"shard_pages"`
	FailedShard int      `json:"failed_shard"`
	ShardDemand []uint64 `json:"shard_demand"`
}

// fromLifetime converts a simulator result to its wire mirror.
func fromLifetime(r twl.LifetimeResult) cellResult {
	out := cellResult{
		Scheme:       r.Scheme,
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		RetiredPages: r.RetiredPages,
		SparesUsed:   r.SparesUsed,
		SparePages:   r.SparePages,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
	if r.FailCause != nil {
		out.FailCause = r.FailCause.Error()
	}
	return out
}

// toLifetime reconstructs the simulator result. The only FailCause the
// simulator produces today is capacity exhaustion; an unrecognized string
// round-trips as an opaque error with the same text.
func (r cellResult) toLifetime() twl.LifetimeResult {
	out := twl.LifetimeResult{
		Scheme:       r.Scheme,
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		RetiredPages: r.RetiredPages,
		SparesUsed:   r.SparesUsed,
		SparePages:   r.SparePages,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
	switch r.FailCause {
	case "":
	case twl.ErrCapacityExhausted.Error():
		out.FailCause = twl.ErrCapacityExhausted
	default:
		out.FailCause = fmt.Errorf("%s", r.FailCause)
	}
	return out
}

// envelopeVersion versions the cached payload layout; a bump orphans (but
// does not corrupt) old entries — the worker treats a version mismatch as a
// miss and recomputes.
const envelopeVersion = 1

// cellEnvelope is the cached payload of one completed cell: the result plus
// the key material it was derived from, so a cache entry is auditable
// without the submitting job.
type cellEnvelope struct {
	Version  int        `json:"version"`
	Material string     `json:"material"`
	Result   cellResult `json:"result"`
}

// job is one submitted grid. The mutable state (cell statuses, cancelled)
// is guarded by the owning Server's mu; trace and tracer are internally
// synchronized and safe to use without it.
type job struct {
	id        string
	spec      JobSpec
	cells     []*cell
	cancelled bool
	trace     *obs.TraceBuffer
	tracer    *obs.Tracer
}

// jobFile is the on-disk form of a job, written atomically on every state
// change so a killed daemon reloads its unfinished cells on restart.
type jobFile struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Cancelled bool    `json:"cancelled,omitempty"`
	Cells     []*cell `json:"cells"`
}

// persistJob atomically writes the job's state file. Must be called with
// the server's mu held (it snapshots mutable cell state).
func persistJob(dir string, j *job) error {
	jf := jobFile{ID: j.id, Spec: j.spec, Cancelled: j.cancelled, Cells: j.cells}
	b, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", j.id, err)
	}
	if err := snap.AtomicWriteFile(filepath.Join(dir, j.id+".json"), b); err != nil {
		return fmt.Errorf("serve: persist job %s: %w", j.id, err)
	}
	return nil
}

// loadJobs reads every job file in dir, in lexical (= submission) order.
// Cells that were running when the previous daemon died come back pending.
func loadJobs(dir string) ([]*job, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: load jobs: %w", err)
	}
	var jobs []*job
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("serve: load jobs: %w", err)
		}
		var jf jobFile
		if err := json.Unmarshal(b, &jf); err != nil {
			return nil, fmt.Errorf("serve: load job %s: %w", e.Name(), err)
		}
		j := &job{id: jf.ID, spec: jf.Spec, cancelled: jf.Cancelled, cells: jf.Cells}
		for _, c := range j.cells {
			if c.Status == cellRunning {
				c.Status = cellPending
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// jobID derives a deterministic identifier: a submission counter plus a
// spec-hash suffix, so restarted daemons never reuse an id for a different
// grid and ids are stable without wall-clock or randomness.
func jobID(n int, sp JobSpec) string {
	b, err := json.Marshal(sp)
	if err != nil {
		// A normalized spec is plain data; this cannot fail short of a
		// programming error.
		panic(err)
	}
	return fmt.Sprintf("job-%04d-%s", n, cache.Key(string(b))[:8])
}

// jobSeq parses the submission counter back out of an id ("job-0007-..." →
// 7); ok is false for foreign file names.
func jobSeq(id string) (int, bool) {
	var n int
	var rest string
	if _, err := fmt.Sscanf(id, "job-%d-%s", &n, &rest); err != nil {
		return 0, false
	}
	return n, true
}
