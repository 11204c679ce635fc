// Package exec is the one cell executor of the module. Experiment grids
// (Figures 6 and 8), the two phases of a sharded lifetime run and the
// twlsimd service's jobs all hand it a fixed list of independent tasks —
// every cell simulates its own device, scheme and workload — and it runs
// them on a bounded worker pool. Results are written by the tasks into
// caller-indexed slots, so the outcome is bit-identical to the sequential
// order regardless of scheduling.
package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"twl/internal/clock"
	"twl/internal/obs"
)

// Task is one independent simulation producing a value for its slot. The
// name labels the cell in metrics and trace events ("fig6/BWL/scan").
type Task struct {
	Name string
	Run  func() error
}

// Run executes tasks on up to workers goroutines (one when workers < 1;
// a single worker runs them in order). It returns a per-task completion
// mask — completed[i] is true iff tasks[i] ran to success — alongside the
// first error, if any. On error the grid is partial: workers stop grabbing
// new tasks, so an unpredictable subset of the caller-indexed result slots
// was never written. Callers must consult the mask (or abandon the grid)
// rather than consume those zero-valued slots as results.
//
// stop, when non-nil, is a preemption hook polled before every hand-out:
// once it returns true no further task starts (in-flight tasks run to
// their own stop point — each task's runner is expected to consult the
// same hook). A preempted grid returns a nil error with a partial mask
// unless an in-flight task reported one; callers that set stop must
// re-check the mask before treating the grid as complete. stop must be
// safe for concurrent use.
//
// reg and tr are optional sinks for per-cell timing, the worker count and
// the grid's utilization; with both nil the run reads no clock.
func Run(workers int, reg *obs.Registry, tr *obs.Tracer, stop func() bool, tasks []Task) ([]bool, error) {
	workers = max(1, min(workers, len(tasks)))
	o := newObserver(reg, tr, workers)
	start := time.Time{}
	if o != nil {
		start = clock.Now()
	}
	// Each mask slot is written by exactly one worker before wg.Wait, so
	// the caller reads it race-free.
	completed := make([]bool, len(tasks))
	p := &pool{tasks: tasks, stop: stop}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, i, ok := p.grab()
				if !ok {
					return
				}
				if err := o.observe(t); err != nil {
					p.fail(err)
					return
				}
				completed[i] = true
			}
		}()
	}
	wg.Wait()
	if o != nil {
		o.finish(workers, clock.Since(start))
	}
	return completed, p.err()
}

// Count reports how many tasks a completion mask marks done — for error
// messages about partial grids and for the preemption check.
func Count(completed []bool) int {
	n := 0
	for _, c := range completed {
		if c {
			n++
		}
	}
	return n
}

// observer records per-cell timing and worker utilization into an obs
// registry and/or tracer. Either may be nil; a nil observer adds no clock
// reads to the run.
type observer struct {
	reg     *obs.Registry
	tr      *obs.Tracer
	cells   *obs.Counter
	seconds *obs.Histogram
	busyNs  atomic.Int64
}

func newObserver(reg *obs.Registry, tr *obs.Tracer, workers int) *observer {
	if reg == nil && tr == nil {
		return nil
	}
	o := &observer{reg: reg, tr: tr}
	if reg != nil {
		reg.Help("twl_cells_total", "experiment grid cells completed")
		reg.Help("twl_cell_seconds", "wall-clock seconds per grid cell")
		reg.Help("twl_cells_workers", "concurrent workers used for the grid")
		reg.Help("twl_cells_utilization", "busy time / (wall time x workers) of the grid run")
		o.cells = reg.Counter("twl_cells_total")
		o.seconds = reg.Histogram("twl_cell_seconds", obs.ExponentialBuckets(0.001, 4, 10))
		reg.Gauge("twl_cells_workers").Set(float64(workers))
	}
	return o
}

// observe runs one task, timing it when the observer is live.
func (o *observer) observe(t Task) error {
	if o == nil {
		return t.Run()
	}
	start := clock.Now()
	err := t.Run()
	elapsed := clock.Since(start)
	o.busyNs.Add(int64(elapsed))
	if o.cells != nil {
		o.cells.Inc()
		o.seconds.Observe(elapsed.Seconds())
	}
	if o.tr != nil {
		o.tr.Emit("cell",
			obs.F("name", t.Name),
			obs.F("seconds", elapsed.Seconds()),
			obs.F("err", err != nil),
		)
	}
	return err
}

// finish records the whole-grid utilization.
func (o *observer) finish(workers int, wall time.Duration) {
	if o.reg == nil || wall <= 0 {
		return
	}
	busy := time.Duration(o.busyNs.Load())
	o.reg.Gauge("twl_cells_utilization").Set(busy.Seconds() / (wall.Seconds() * float64(workers)))
}

// pool is the shared state of one worker pool: the task cursor and the
// first-error latch, both confined to mu. The annotations make the
// confinement machine-checked — the concurrency analyzer rejects any access
// outside a critical section of mu.
type pool struct {
	mu       sync.Mutex
	tasks    []Task      // immutable after construction
	stop     func() bool // immutable after construction; nil means never
	next     int         //twl:guardedby mu
	firstErr error       //twl:guardedby mu
}

// grab hands out the next task index, or reports false when the list is
// exhausted, a worker has failed (workers stop grabbing after the first
// error), or the preemption hook fired. The stop poll runs outside the
// critical section — it is the caller's concurrency-safe hook, not state
// confined to mu.
func (p *pool) grab() (Task, int, bool) {
	if p.stop != nil && p.stop() {
		return Task{}, 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr != nil || p.next >= len(p.tasks) {
		return Task{}, 0, false
	}
	t, i := p.tasks[p.next], p.next
	p.next++
	return t, i, true
}

// fail latches the first error.
func (p *pool) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// err returns the latched first error, if any.
func (p *pool) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.firstErr
}
