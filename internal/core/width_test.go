package core

import (
	"bytes"
	"errors"
	"testing"

	"twl/internal/pcm"
	"twl/internal/snap"
	"twl/internal/wl"
	"twl/internal/wl/wltest"
)

// TestEngineConformance runs the full scheme conformance suite (data
// integrity, wear conservation, invariants, cost sanity) against the engine
// over a device whose endurance no suite workload comes near.
func TestEngineConformance(t *testing.T) {
	wltest.Run(t, func(tb testing.TB, seed uint64) wl.Scheme {
		e, err := New(wltest.NewDevice(tb, 256, seed), DefaultConfig(seed))
		if err != nil {
			tb.Fatal(err)
		}
		return e
	})
}

// flatDevice builds a device with every page at the same endurance.
func flatDevice(t *testing.T, pages int, endurance uint64) *pcm.Device {
	t.Helper()
	end := make([]uint64, pages)
	for i := range end {
		end[i] = endurance
	}
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestNewWidthErrors pins the construction-time width limits: each value the
// narrow tables cannot hold is a typed configuration error, never a panic or
// a silent truncation.
func TestNewWidthErrors(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.InterPairSwapInterval = MaxIPSInterval
	if _, err := New(flatDevice(t, 64, 5000), cfg); err != nil {
		t.Fatalf("interval at the limit rejected: %v", err)
	}
	cfg.InterPairSwapInterval = MaxIPSInterval + 1
	if _, err := New(flatDevice(t, 64, 5000), cfg); !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("interval %d: err = %v, want ErrBadConfig", cfg.InterPairSwapInterval, err)
	}

	// Noise of σ = 2× the mean around an endurance of 2^31 lifts some of 64
	// pages past 2^32.
	noisy := DefaultConfig(5)
	noisy.ETNoiseSigma = 2
	if _, err := New(flatDevice(t, 64, pcm.MaxEndurance), noisy); !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("ET noise past uint32: err = %v, want ErrBadConfig", err)
	}

	geom := pcm.Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	_, err := pcm.NewDevice(geom, pcm.DefaultTiming(), []uint64{5000, pcm.MaxEndurance + 1})
	if !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("endurance above 2^31: err = %v, want wl.ErrBadConfig", err)
	}
}

// TestRestoreRejectsWideCounters feeds an engine checkpoint whose inter-pair
// swap counter is past uint8 (a value the uint32 counters of older
// checkpoints could carry) and requires Restore to reject it.
func TestRestoreRejectsWideCounters(t *testing.T) {
	const pages = 64
	e, err := New(flatDevice(t, pages, 5000), DefaultConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := e.Snapshot(&good); err != nil {
		t.Fatal(err)
	}
	stream := func(ips3 uint32) []byte {
		var buf bytes.Buffer
		if err := e.rt.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := e.wct.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sw := snap.NewWriter(&buf)
		sw.U32(pages)
		for la := 0; la < pages; la++ {
			v := uint32(0)
			if la == 3 {
				v = ips3
			}
			sw.U32(v)
		}
		if err := e.src.(wl.Snapshotter).Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := e.stats.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(0), good.Bytes()) {
		t.Fatal("hand-built checkpoint does not match the engine's own encoding")
	}
	if err := e.Restore(bytes.NewReader(stream(17))); err != nil {
		t.Fatalf("in-range counter rejected: %v", err)
	}
	if e.ips[3] != 17 {
		t.Fatalf("restored ipsCount[3] = %d, want 17", e.ips[3])
	}
	if err := e.Restore(bytes.NewReader(stream(MaxIPSInterval + 1))); err == nil {
		t.Fatal("restore accepted an inter-pair swap counter past uint8")
	}
}

// TestTableBytes verifies the MemoryReporter accounting: 22 B/page of
// tables, 38 B/page for the whole TWL stack with the device's 16.
func TestTableBytes(t *testing.T) {
	const pages = 512
	e, err := New(flatDevice(t, pages, 5000), DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	var r wl.MemoryReporter = e
	if got := r.TableBytes(); got != 22*pages {
		t.Errorf("TableBytes = %d, want %d (22 B/page)", got, 22*pages)
	}
	if got := r.TableBytes() + e.Device().Footprint().Total(); got != 38*pages {
		t.Errorf("stack footprint = %d bytes, want %d (38 B/page)", got, 38*pages)
	}
}
