// Package serve is the twlsimd simulation service: an HTTP front end that
// accepts experiment-grid jobs (scheme × workload × seed), expands them
// into independent cells, and executes the cells on the module's one cell
// executor (internal/exec). Three properties define it:
//
//   - Content-addressed dedupe: every simulation here is deterministic, so
//     a cell's result is a pure function of its construction inputs. Cells
//     are keyed by a versioned hash of those inputs (see cellMaterial) and
//     results live in an on-disk cache (internal/cache) — a resubmitted
//     cell is served from disk with zero simulation writes. Same-key cells
//     also never simulate concurrently, which matters because checkpoint
//     paths are derived from the key: one runner takes jobs in submission
//     order, so two jobs never overlap; within a job duplicates cannot
//     exist at all (spec axes dedupe on submit); and across jobs the later
//     cell settles from the earlier run's cache entry.
//   - Preemption and resume: long cells checkpoint through internal/snap
//     at the simulator's checkpoint cadence. Shutting the server down (or
//     killing the daemon outright) loses at most one checkpoint interval;
//     on restart the job files reload, incomplete cells re-enqueue, and
//     each resumes from its checkpoint to a bit-identical result.
//   - One result path: cells run through the same RunAttackCell /
//     RunBenchCell / RunShardedLifetime entry points as the one-shot grid
//     runners (RunFig6, RunFig8), so a grid computed through the service
//     is the grid computed locally — the differential tests pin this.
//
// Job state and the runner's cursor are guarded by Server.mu
// (machine-checked via //twl:guardedby); the drain flag is an atomic so
// simulation hot loops poll it without taking the service lock.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"twl"
	"twl/internal/cache"
	"twl/internal/exec"
	"twl/internal/obs"
	"twl/internal/snap"
)

// Config parameterizes a Server.
type Config struct {
	// DataDir is the service state root: jobs/ (job state files), cache/
	// (content-addressed results), ckpt/ (per-cell checkpoints). Required.
	DataDir string
	// Workers is the executor's worker count: how many of a job's cells
	// simulate at once (0: GOMAXPROCS).
	Workers int
	// CheckpointEvery is the per-cell checkpoint cadence in demand writes
	// (0: the simulator default). It is also the preemption latency: a
	// draining worker stops at the next checkpoint boundary.
	CheckpointEvery uint64
}

// ErrClosed is returned by Submit and Cancel after Close began draining.
var ErrClosed = errors.New("serve: server closed")

// ErrNoJob is returned by lookups for an unknown job id.
var ErrNoJob = errors.New("serve: no such job")

// Server owns the job table and the job runner.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	store   *cache.Cache
	jobsDir string
	ckptDir string

	mu    sync.Mutex
	cond  *sync.Cond      // signals job submission and shutdown; pairs with mu
	jobs  map[string]*job //twl:guardedby mu
	order []string        //twl:guardedby mu
	// taken counts the jobs of order the runner has taken.
	taken  int  //twl:guardedby mu
	lastID int  //twl:guardedby mu
	closed bool //twl:guardedby mu

	draining atomic.Bool //twl:guardedby atomic
	wg       sync.WaitGroup

	jobsTotal    *obs.Counter
	preemptions  *obs.Counter
	cellsRunning *obs.Gauge
	outcomes     map[string]*obs.Counter // immutable after construction
}

// Cell outcome labels of the twl_serve_cells_total counter.
const (
	outcomeSimulated = "simulated"
	outcomeCached    = "cached"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
)

// New builds a server over cfg.DataDir — creating the layout, sweeping
// checkpoint temp files orphaned by a killed predecessor and reloading
// persisted jobs, whose incomplete cells run again — and starts the job
// runner. Callers must Close it to join the runner.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	jobsDir := filepath.Join(cfg.DataDir, "jobs")
	ckptDir := filepath.Join(cfg.DataDir, "ckpt")
	for _, dir := range []string{jobsDir, ckptDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// A killed worker can leave a stale snap temp file next to a cell
	// checkpoint; no writer is live before the runner starts, so sweep now.
	// (Sharded cells keep per-cell subdirectories that the sharded runner
	// sweeps itself on entry.)
	if _, err := snap.SweepOrphans(ckptDir); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	store, err := cache.New(filepath.Join(cfg.DataDir, "cache"))
	if err != nil {
		return nil, err
	}

	reg := obs.NewRegistry()
	reg.Help("twl_serve_jobs_total", "grid jobs accepted")
	reg.Help("twl_serve_cells_total", "cells finished, by outcome")
	reg.Help("twl_serve_cells_running", "cells currently simulating")
	reg.Help("twl_serve_preemptions_total", "cell runs preempted by drain (resumed later from checkpoint)")
	reg.Help("twl_serve_cache_hits_total", "result-cache hits")
	reg.Help("twl_serve_cache_misses_total", "result-cache misses")
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		store:        store,
		jobsDir:      jobsDir,
		ckptDir:      ckptDir,
		jobs:         map[string]*job{},
		jobsTotal:    reg.Counter("twl_serve_jobs_total"),
		preemptions:  reg.Counter("twl_serve_preemptions_total"),
		cellsRunning: reg.Gauge("twl_serve_cells_running"),
		outcomes:     map[string]*obs.Counter{},
	}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range []string{outcomeSimulated, outcomeCached, outcomeFailed, outcomeCancelled} {
		s.outcomes[o] = reg.Counter("twl_serve_cells_total", obs.L("outcome", o))
	}

	jobs, err := loadJobs(jobsDir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for _, j := range jobs {
		j.trace = &obs.TraceBuffer{}
		j.tracer = obs.NewTracer(j.trace, 0)
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n, ok := jobSeq(j.id); ok && n > s.lastID {
			s.lastID = n
		}
	}
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJobs()
	}()
	return s, nil
}

// Metrics exposes the service registry (for /metrics and tests).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats exposes the result cache's hit/miss counters.
func (s *Server) CacheStats() cache.Stats { return s.store.Stats() }

// Close drains the service: no further cell starts, in-flight cells stop
// at their next checkpoint (writing a final one, so no work is lost), the
// runner joins, and the job files record every preempted cell as pending
// for the next daemon.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Submit validates and registers one job for the runner, returning its
// deterministic id and cell count.
func (s *Server) Submit(spec JobSpec) (id string, cells int, err error) {
	if err := spec.normalize(); err != nil {
		return "", 0, err
	}
	list := buildCells(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", 0, ErrClosed
	}
	s.lastID++
	j := &job{
		id:    jobID(s.lastID, spec),
		spec:  spec,
		cells: list,
		trace: &obs.TraceBuffer{},
	}
	j.tracer = obs.NewTracer(j.trace, 0)
	// Persist before publishing: a job whose submission errored must not
	// linger in memory and run anyway (the restart path would then also
	// resurrect a job its submitter was told failed).
	if err := persistJob(s.jobsDir, j); err != nil {
		s.lastID--
		return "", 0, err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.jobsTotal.Inc()
	for _, c := range list {
		j.tracer.Emit("cell_queued", obs.F("name", c.name()), obs.F("key", c.Key))
	}
	s.cond.Broadcast()
	return j.id, len(list), nil
}

// Cancel marks a job cancelled: pending cells flip to cancelled
// immediately, running cells are preempted at their next checkpoint poll
// and their checkpoints discarded.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j := s.jobs[id]
	if j == nil {
		return fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	if j.cancelled {
		return nil
	}
	j.cancelled = true
	for _, c := range j.cells {
		if c.Status == cellPending {
			c.Status = cellCancelled
			s.outcomes[outcomeCancelled].Inc()
		}
	}
	j.tracer.Emit("job_cancelled")
	return persistJob(s.jobsDir, j)
}

// runJobs is the service's one runner: it takes jobs in submission order
// and runs each to completion before the next, until the server closes.
// Jobs therefore never overlap, so two same-key cells — which share
// checkpoint paths — never simulate at once.
func (s *Server) runJobs() {
	for {
		j, ok := s.nextJob()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// nextJob blocks for the oldest job the runner has not taken yet; ok is
// false once the server is closed.
func (s *Server) nextJob() (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.taken == len(s.order) {
		s.cond.Wait()
	}
	if s.closed {
		return nil, false
	}
	j := s.jobs[s.order[s.taken]]
	s.taken++
	return j, true
}

// runJob runs the job's pending cells as one executor call on
// Config.Workers workers. The stop hook (drain or cancel) ends the hand-out;
// a cell the hook lets through is still claimed under the service lock, so
// a cell never starts after Close or after a cancel settled it.
func (s *Server) runJob(j *job) {
	stop := s.stopHook(j)
	var tasks []exec.Task
	s.mu.Lock()
	for _, c := range j.cells {
		if c.Status != cellPending {
			continue
		}
		tasks = append(tasks, exec.Task{Name: c.name(), Run: func() error {
			if s.claim(j, c) {
				s.runCell(j, c)
			}
			return nil
		}})
	}
	s.mu.Unlock()
	// Cell outcomes settle into the job state; no task reports an error.
	_, _ = exec.Run(s.cfg.Workers, nil, nil, stop, tasks)
}

// claim marks a pending cell running, refusing once the server is closed
// (the cell stays pending for the next daemon) or its job is cancelled.
func (s *Server) claim(j *job, c *cell) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || j.cancelled || c.Status != cellPending {
		return false
	}
	c.Status = cellRunning
	s.cellsRunning.Add(1)
	return true
}

// stopHook is the preemption hook of a job's cells: the server is draining
// or the job was cancelled.
func (s *Server) stopHook(j *job) func() bool {
	return func() bool { return s.draining.Load() || s.jobCancelled(j) }
}

// runCell executes one claimed cell end to end: cache probe, simulation
// with checkpoint + preemption wiring, cache install, state transition.
func (s *Server) runCell(j *job, c *cell) {
	j.tracer.Emit("cell_start", obs.F("name", c.name()), obs.F("key", c.Key))

	if payload, ok, err := s.store.Get(c.Key); err == nil && ok {
		var env cellEnvelope
		if json.Unmarshal(payload, &env) == nil && env.Version == envelopeVersion {
			// Another job may have completed this cell after a preemption
			// left a checkpoint behind; it will never resume now.
			s.removeCheckpoints(c)
			s.finishCell(j, c, &env.Result, true, nil)
			return
		}
		// Unreadable or version-skewed entry: treat as a miss and recompute
		// (the Put below overwrites it).
	}

	res, err := s.simulate(j, c)
	switch {
	case err == nil:
		env := cellEnvelope{
			Version:  envelopeVersion,
			Material: cellMaterial(j.spec.system(c.Seed), c.Scheme, c.Source, res.shards(), j.spec.MaxDemandWrites),
			Result:   res,
		}
		payload, merr := json.Marshal(env)
		if merr != nil {
			s.removeCheckpoints(c)
			s.finishCell(j, c, nil, false, merr)
			return
		}
		if perr := s.store.Put(c.Key, payload); perr != nil {
			// The simulation succeeded; a cache write failure costs future
			// dedupe, not this job's correctness.
			j.tracer.Emit("cache_error", obs.F("key", c.Key), obs.F("err", perr.Error()))
		}
		s.removeCheckpoints(c)
		s.finishCell(j, c, &res, false, nil)
	case errors.Is(err, twl.ErrRunStopped):
		if s.jobCancelled(j) {
			s.removeCheckpoints(c)
			s.finishCell(j, c, nil, false, err)
			return
		}
		// Drain preemption: the run already wrote its final checkpoint;
		// hand the cell back to the next daemon.
		s.preemptions.Inc()
		s.requeueCell(j, c)
	default:
		// A failed cell is terminal too — it never resumes, so keeping its
		// checkpoint state would leak ckptDir space forever.
		s.removeCheckpoints(c)
		s.finishCell(j, c, nil, false, err)
	}
}

// shards reports the shard count a result ran with (0 when unsharded).
func (r cellResult) shards() int {
	if r.Sharded == nil {
		return 0
	}
	return r.Sharded.Shards
}

// simulate runs the cell's simulation with preemption and checkpointing
// wired in. Sharded specs route attack cells through the bank-sharded
// runner; bench cells do not shard and always take the unsharded path.
func (s *Server) simulate(j *job, c *cell) (cellResult, error) {
	spec := j.spec
	sys := spec.system(c.Seed)
	stop := s.stopHook(j)
	kind, name := c.sourceKind()

	if spec.Shards > 0 && kind == "attack" {
		mode, err := twl.ParseAttackMode(name)
		if err != nil {
			return cellResult{}, err
		}
		res, err := twl.RunShardedLifetime(sys, twl.ShardedConfig{
			Scheme:          c.Scheme,
			Mode:            mode,
			Shards:          spec.Shards,
			MaxDemandWrites: spec.MaxDemandWrites,
			CheckpointDir:   filepath.Join(s.ckptDir, c.Key),
			Resume:          true,
			CheckpointEvery: s.cfg.CheckpointEvery,
			Stop:            stop,
		})
		if err != nil {
			return cellResult{}, err
		}
		out := fromLifetime(res.LifetimeResult)
		out.Sharded = &shardedInfo{
			Shards:      res.Shards,
			ShardPages:  res.ShardPages,
			FailedShard: res.FailedShard,
			ShardDemand: res.ShardDemand,
		}
		return out, nil
	}

	ckpt := filepath.Join(s.ckptDir, c.Key+".ckpt")
	resume := false
	if _, err := os.Stat(ckpt); err == nil {
		resume = true
	}
	lc := twl.LifetimeConfig{
		MaxDemandWrites: spec.MaxDemandWrites,
		Stop:            stop,
		Checkpoint: &twl.CheckpointConfig{
			Path:   ckpt,
			Every:  s.cfg.CheckpointEvery,
			Resume: resume,
		},
	}
	var res twl.LifetimeResult
	var err error
	if kind == "attack" {
		var mode twl.AttackMode
		if mode, err = twl.ParseAttackMode(name); err == nil {
			res, err = twl.RunAttackCell(sys, c.Scheme, mode, lc)
		}
	} else {
		res, err = twl.RunBenchCell(sys, c.Scheme, name, lc)
	}
	if err != nil {
		return cellResult{}, err
	}
	return fromLifetime(res), nil
}

// jobCancelled reads the job's cancel flag under the service lock; it is
// the Stop-hook half of cancellation.
func (s *Server) jobCancelled(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.cancelled
}

// removeCheckpoints discards a cell's checkpoint state (a file for
// unsharded cells, a directory for sharded ones). Completed and cancelled
// cells will never resume, so the space comes back.
func (s *Server) removeCheckpoints(c *cell) {
	_ = os.Remove(filepath.Join(s.ckptDir, c.Key+".ckpt"))
	_ = os.RemoveAll(filepath.Join(s.ckptDir, c.Key))
}

// finishCell settles a cell into a terminal state and persists the job.
// err == nil with a result means success (cached says which path); err
// wrapping ErrRunStopped means the cell's job was cancelled mid-run; any
// other error is a cell failure.
func (s *Server) finishCell(j *job, c *cell, res *cellResult, cached bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cellsRunning.Add(-1)
	outcome := outcomeSimulated
	switch {
	case err == nil && cached:
		c.Status = cellDone
		c.Cached = true
		c.Result = res
		outcome = outcomeCached
	case err == nil:
		c.Status = cellDone
		c.Result = res
	case errors.Is(err, twl.ErrRunStopped):
		c.Status = cellCancelled
		outcome = outcomeCancelled
	default:
		c.Status = cellFailed
		c.Error = err.Error()
		outcome = outcomeFailed
	}
	s.outcomes[outcome].Inc()
	fields := []obs.Field{
		obs.F("name", c.name()),
		obs.F("outcome", outcome),
		obs.F("cached", c.Cached),
	}
	if c.Result != nil {
		fields = append(fields,
			obs.F("demand_writes", c.Result.DemandWrites),
			obs.F("normalized_lifetime", c.Result.Normalized),
		)
	}
	if c.Error != "" {
		fields = append(fields, obs.F("err", c.Error))
	}
	j.tracer.Emit("cell_done", fields...)
	if perr := persistJob(s.jobsDir, j); perr != nil {
		j.tracer.Emit("persist_error", obs.F("err", perr.Error()))
	}
}

// requeueCell returns a drain-preempted cell to pending. The server is
// closing, so the cell does not run again here; its persisted pending
// status runs it on the next daemon's startup. A cancel that raced in after
// the stop poll settles the cell as cancelled instead.
func (s *Server) requeueCell(j *job, c *cell) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cellsRunning.Add(-1)
	if j.cancelled {
		c.Status = cellCancelled
		s.outcomes[outcomeCancelled].Inc()
	} else {
		c.Status = cellPending
		j.tracer.Emit("cell_preempted", obs.F("name", c.name()), obs.F("key", c.Key))
	}
	if perr := persistJob(s.jobsDir, j); perr != nil {
		j.tracer.Emit("persist_error", obs.F("err", perr.Error()))
	}
}
