package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestTracerEmitsOrderedJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 100)
	if tr.Every() != 100 {
		t.Fatalf("Every = %d, want 100", tr.Every())
	}
	tr.Emit("start", F("scheme", "TWL_swp"), F("pages", 512))
	tr.Emit("progress", F("writes", 100), F("hist", []int{1, 2, 3}))
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if obj["seq"].(float64) != float64(i+1) {
			t.Fatalf("line %d seq = %v", i, obj["seq"])
		}
	}
	// Field order is deterministic: seq, event, then caller fields in order.
	if !strings.HasPrefix(lines[0], `{"seq":1,"event":"start","scheme":"TWL_swp","pages":512}`) {
		t.Fatalf("unexpected line ordering: %s", lines[0])
	}
}

func TestTracerDefaultCadence(t *testing.T) {
	tr := NewTracer(&bytes.Buffer{}, 0)
	if tr.Every() != DefaultProgressEvery {
		t.Fatalf("Every = %d, want DefaultProgressEvery", tr.Every())
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestTracerLatchesWriteError(t *testing.T) {
	werr := errors.New("disk full")
	tr := NewTracer(failWriter{werr}, 1)
	tr.Emit("x")
	if !errors.Is(tr.Err(), werr) {
		t.Fatalf("Err() after failed Emit = %v, want %v", tr.Err(), werr)
	}
	tr.Emit("y") // latched: must stay a no-op and keep the first error
	if !errors.Is(tr.Err(), werr) {
		t.Fatalf("latched Err() = %v, want %v", tr.Err(), werr)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit("tick", F("i", i))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	seen := map[float64]bool{}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("interleaved line: %q", line)
		}
		seq := obj["seq"].(float64)
		if seen[seq] {
			t.Fatalf("duplicate seq %v", seq)
		}
		seen[seq] = true
	}
}

func TestStartProfileWritesFiles(t *testing.T) {
	prefix := t.TempDir() + "/p"
	stop, err := StartProfile(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		fi, err := os.Stat(prefix + suffix)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty (err %v)", suffix, err)
		}
	}
}
