package twl

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"twl/internal/sim"
)

// oldCheckpointPath is a checkpoint of the golden cell
// lifetime/TWL_swp/inconsistent/seed1, taken mid-run by a tree whose device
// and TWL engine stored wear, endurance and the remap table as 64-bit
// words. The wire format never depended on the in-memory width, so the
// file must keep restoring, and a checkpoint taken today must match it
// byte for byte.
const oldCheckpointPath = "testdata/checkpoints/twl_swp_inconsistent_seed1.ckpt"

// oldCheckpointEvery is the cadence the fixture was written at; the run
// stopped at its first checkpoint, 2^19 demand writes in.
const oldCheckpointEvery = 1 << 19

// oldCheckpointCell builds the fixture's cell exactly as the golden corpus
// builds lifetime/TWL_swp/inconsistent/seed1.
func oldCheckpointCell(t *testing.T) (Scheme, sim.Source) {
	t.Helper()
	dev, err := SmallSystem(1).NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme("TWL_swp", dev, 1+7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := goldenSource("inconsistent", s, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, src
}

// takeOldCheckpoint runs the fixture's cell up to its first checkpoint and
// stops there, leaving the checkpoint at path.
func takeOldCheckpoint(t *testing.T, path string) {
	t.Helper()
	s, src := oldCheckpointCell(t)
	_, err := RunLifetimeWith(s, src, LifetimeConfig{
		Checkpoint: &CheckpointConfig{Path: path, Every: oldCheckpointEvery},
		Stop:       func() bool { return true },
	})
	if err == nil {
		t.Fatal("run did not stop at its first checkpoint")
	}
}

// TestOldCheckpointRestores resumes the committed mid-run checkpoint and
// requires the finished run to equal the cell's golden entry.
func TestOldCheckpointRestores(t *testing.T) {
	data, err := os.ReadFile(oldCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, src := oldCheckpointCell(t)
	res, err := RunLifetimeWith(s, src, LifetimeConfig{
		Checkpoint: &CheckpointConfig{Path: path, Every: oldCheckpointEvery, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const cell = "lifetime/TWL_swp/inconsistent/seed1"
	if d := diffGolden(goldenByCell(t, cell), goldenOf(cell, res)); len(d) > 0 {
		t.Fatalf("resumed run drifted from the golden corpus: %v", d)
	}
}

// TestOldCheckpointWireFormat re-takes the fixture's checkpoint on the
// current tree and requires it to be byte-identical to the committed one.
func TestOldCheckpointWireFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	takeOldCheckpoint(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(oldCheckpointPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(oldCheckpointPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(oldCheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes changed: %d bytes now, %d in %s", len(got), len(want), oldCheckpointPath)
	}
}
