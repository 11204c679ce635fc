package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"testing"

	"twl/internal/pcm"
	"twl/internal/pv"
	"twl/internal/rng"
)

// The engine stores its tables at uint32/uint8 widths. Until that became the
// only layout, an int-wide twin ran beside it and these tests required the
// two to agree write for write. The wide engine's results are recorded under
// testdata/ (digests and a checkpoint), so the comparison outlives the wide
// code.

var updateWideRef = flag.Bool("update-wide-ref", false,
	"rewrite the recorded references under testdata/ from the current engine (the committed ones were recorded on the int-wide layout)")

// refTestEndurance is small enough that the driven runs see failures.
const refTestEndurance = 5000

// newRefEngine builds an engine over a fresh device whose endurance map is
// seeded from the config.
func newRefEngine(t *testing.T, pages int, cfg Config) *Engine {
	t.Helper()
	end, err := pv.Generate(pv.Config{
		Pages: pages, Mean: refTestEndurance, Sigma: 0.11 * refTestEndurance,
		Model: pv.Gaussian, Seed: cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// hashState feeds the engine's stats and its engine and device checkpoints
// into h.
func hashState(t *testing.T, h hash.Hash, e *Engine) {
	t.Helper()
	fmt.Fprintf(h, "stats %+v\n", e.Stats())
	if err := e.Snapshot(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Device().Snapshot(h); err != nil {
		t.Fatal(err)
	}
}

// checkRecorded compares got against the reference file, or rewrites it
// under -update-wide-ref.
func checkRecorded(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateWideRef {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("engine diverges from the int-wide reference %s", path)
	}
}

// TestEngineMatchesWide drives the engine through a random mix of per-write,
// read, run and sweep operations and requires every operation's cost and
// result, and the engine and device checkpoints every 1000 operations, to
// match the int-wide engine's recorded run.
func TestEngineMatchesWide(t *testing.T) {
	for _, pairing := range []Pairing{StrongWeak, Adjacent, Random} {
		t.Run(pairing.String(), func(t *testing.T) {
			const pages = 512
			cfg := DefaultConfig(99)
			cfg.Pairing = pairing
			e := newRefEngine(t, pages, cfg)
			h := sha256.New()
			drv := rng.NewXorshift(1234)
			tag := uint64(1)
			for op := 0; op < 6000; op++ {
				switch drv.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					la := drv.Intn(pages)
					fmt.Fprintf(h, "%d write %+v\n", op, e.Write(la, tag))
				case 6:
					v, c := e.Read(drv.Intn(pages))
					fmt.Fprintf(h, "%d read %d %+v\n", op, v, c)
				case 7, 8:
					la := drv.Intn(pages)
					n := 1 + drv.Intn(200)
					c, a := e.WriteRun(la, tag, n)
					fmt.Fprintf(h, "%d run %+v %d\n", op, c, a)
					// Serve the event write so runs make progress past events.
					if a == 0 {
						fmt.Fprintf(h, "%d event %+v\n", op, e.Write(la, tag))
					}
				default:
					n := 1 + drv.Intn(64)
					la := drv.Intn(pages - n)
					c, a := e.WriteSweep(la, tag, n)
					fmt.Fprintf(h, "%d sweep %+v %d\n", op, c, a)
					if a == 0 {
						fmt.Fprintf(h, "%d event %+v\n", op, e.Write(la, tag))
					}
				}
				tag += 7
				if op%1000 == 999 {
					hashState(t, h, e)
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			hashState(t, h, e)
			checkRecorded(t, "testdata/wide_matches_"+pairing.String()+".sha256", []byte(fmt.Sprintf("%x\n", h.Sum(nil))))
		})
	}
}

// TestEngineSnapshotCrossRestore restores the int-wide engine's recorded
// mid-run checkpoint into a fresh engine and requires the continuation to
// match the wide engine's recorded continuation; the engine's own
// checkpoint at that point must equal the wide one byte for byte.
func TestEngineSnapshotCrossRestore(t *testing.T) {
	const pages = 128
	cfg := DefaultConfig(3)
	e := newRefEngine(t, pages, cfg)
	drv := rng.NewXorshift(77)
	for op := 0; op < 3000; op++ {
		e.Write(drv.Intn(pages), uint64(op))
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/wide_engine.ckpt"
	checkRecorded(t, path, buf.Bytes())
	wide, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh engine over the live device (the sim layer checkpoints the
	// device separately), restored from the wide checkpoint.
	e2, err := New(e.Device(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(bytes.NewReader(wide)); err != nil {
		t.Fatalf("restore of the int-wide checkpoint: %v", err)
	}
	h := sha256.New()
	for op := 0; op < 2000; op++ {
		fmt.Fprintf(h, "%d write %+v\n", op, e2.Write(drv.Intn(pages), uint64(1_000_000+op)))
	}
	hashState(t, h, e2)
	checkRecorded(t, "testdata/wide_cross_restore.sha256", []byte(fmt.Sprintf("%x\n", h.Sum(nil))))
}
