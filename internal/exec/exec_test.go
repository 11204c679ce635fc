package exec

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"twl/internal/obs"
)

// TestDispatchCellsMidGridFailure: when a cell fails, the remaining queued
// cells are dropped — the returned mask must say exactly which cells ran to
// success, so callers never read a zero-valued result slot as a result.
func TestDispatchCellsMidGridFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		const n = 32
		var ran [n]atomic.Bool
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = Task{Name: "cell", Run: func() error {
				if i == n/2 {
					return boom
				}
				ran[i].Store(true)
				return nil
			}}
		}
		completed, err := Run(workers, nil, nil, nil, tasks)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: error %v, want boom", workers, err)
		}
		if len(completed) != n {
			t.Fatalf("workers=%d: mask has %d entries, want %d", workers, len(completed), n)
		}
		// The mask must agree exactly with what actually ran: no false
		// positives (a slot the caller would wrongly trust) and no false
		// negatives (completed work reported as dropped).
		for i := range tasks {
			if completed[i] != ran[i].Load() {
				t.Fatalf("workers=%d: cell %d completed=%v but ran=%v", workers, i, completed[i], ran[i].Load())
			}
		}
		if completed[n/2] {
			t.Fatalf("workers=%d: failed cell marked completed", workers)
		}
		if got := Count(completed); got == n {
			t.Fatalf("workers=%d: all %d cells marked completed despite failure", workers, n)
		}
		// Sequential dispatch additionally guarantees nothing after the
		// failing cell started.
		if workers == 1 {
			for i := n/2 + 1; i < n; i++ {
				if completed[i] {
					t.Fatalf("sequential: cell %d after the failure completed", i)
				}
			}
		}
	}
}

// TestDispatchCellsAllComplete: the success path reports a full mask.
func TestDispatchCellsAllComplete(t *testing.T) {
	tasks := make([]Task, 9)
	for i := range tasks {
		tasks[i] = Task{Name: "ok", Run: func() error { return nil }}
	}
	completed, err := Run(3, nil, nil, nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if Count(completed) != len(tasks) {
		t.Fatalf("completed %d/%d on clean grid", Count(completed), len(tasks))
	}
}

// TestDispatchCellsStop: once the preemption hook fires, no further tasks
// are handed out, and the partial mask tells the caller exactly what ran.
func TestDispatchCellsStop(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 32
		var served atomic.Int32
		var stopped atomic.Bool
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Name: "cell", Run: func() error {
				if served.Add(1) >= n/4 {
					stopped.Store(true)
				}
				return nil
			}}
		}
		completed, err := Run(workers, nil, nil, stopped.Load, tasks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := Count(completed)
		if got == n {
			t.Fatalf("workers=%d: grid ran to completion despite the stop", workers)
		}
		if int32(got) != served.Load() {
			t.Fatalf("workers=%d: mask says %d completed, runners served %d", workers, got, served.Load())
		}
	}
}

// TestRunWorkerBound: never more than workers tasks run at once, and a live
// registry records one completion per task.
func TestRunWorkerBound(t *testing.T) {
	const n, workers = 64, 3
	var running, peak atomic.Int32
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Name: "cell", Run: func() error {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			runtime.Gosched()
			running.Add(-1)
			return nil
		}}
	}
	reg := obs.NewRegistry()
	completed, err := Run(workers, reg, nil, nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if Count(completed) != n {
		t.Fatalf("completed %d/%d", Count(completed), n)
	}
	if p := peak.Load(); p > workers || p < 1 {
		t.Errorf("peak concurrency %d, want 1..%d", p, workers)
	}
	if got := reg.Counter("twl_cells_total").Value(); got != n {
		t.Errorf("twl_cells_total = %v, want %d", got, n)
	}
	if got := reg.Gauge("twl_cells_workers").Value(); got != workers {
		t.Errorf("twl_cells_workers = %v, want %d", got, workers)
	}
}
