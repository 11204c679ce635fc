package pcm

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"testing"
)

// The device stores wear and endurance as uint32. Until that became the only
// layout, a 64-bit twin ran beside it and these tests required the two to
// agree on every observable. The 64-bit device's results are recorded here
// (a digest and a checkpoint under testdata/), so the comparison outlives
// the 64-bit code.

var updateWideRef = flag.Bool("update-wide-ref", false,
	"rewrite the recorded references under testdata/ from the current device (the committed ones were recorded on the 64-bit layout)")

// parityDevice builds the device the parity tests drive.
func parityDevice(t *testing.T, pages, spares int, endurance func(i int) uint64) *Device {
	t.Helper()
	geom := Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1, SparePages: spares}
	end := make([]uint64, geom.TotalPages())
	for i := range end {
		end[i] = endurance(i)
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hashObservables feeds every observable surface of d into h: totals, the
// failure log, per-page wear, payload and headroom, the summary, the
// histogram and the snapshot bytes.
func hashObservables(t *testing.T, h hash.Hash, d *Device) {
	t.Helper()
	fmt.Fprintf(h, "totals %d %d failed %d\n", d.TotalWrites(), d.TotalReads(), d.FailedPages())
	for i := 0; i < d.FailedPages(); i++ {
		fmt.Fprintf(h, "failure %d\n", d.FailureAt(i))
	}
	for pp := 0; pp < d.TotalPages(); pp++ {
		fmt.Fprintf(h, "page %d %d %d %d\n", pp, d.Wear(pp), d.Peek(pp), d.Remaining(pp))
	}
	fmt.Fprintf(h, "summary %+v\nhist %v\n", d.Summary(), d.WearHistogram(16))
	var snap bytes.Buffer
	if err := d.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	h.Write(snap.Bytes())
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
		t.Fatalf("device diverges from the 64-bit reference %s", path)
	}
}

// TestPackedParityRandomOps drives a randomized operation sequence through
// the device — every write path, reads, watermark queries, mid-run failures
// and retirement remaps — and requires every step's result and the final
// observables to match the 64-bit device's recorded run.
func TestPackedParityRandomOps(t *testing.T) {
	const pages, spares = 64, 4
	rng := rand.New(rand.NewSource(11))
	d := parityDevice(t, pages, spares, func(i int) uint64 { return 40 + uint64((i*13)%50) })
	h := sha256.New()

	spareNext := pages
	tag := uint64(1)
	for step := 0; step < 4000; step++ {
		op := rng.Intn(10)
		pp := rng.Intn(pages)
		switch {
		case op < 4:
			fmt.Fprintf(h, "%d write %v\n", step, d.Write(pp, tag))
			tag++
		case op < 6:
			n := 1 + rng.Intn(30)
			fmt.Fprintf(h, "%d writeN %d\n", step, d.WriteN(pp, tag, n))
			tag += uint64(n)
		case op < 7:
			n := 1 + rng.Intn(10)
			fmt.Fprintf(h, "%d rewriteN %d\n", step, d.RewriteN(pp, n))
		case op < 8:
			n := 1 + rng.Intn(pages-pp)
			fmt.Fprintf(h, "%d writeRange %d\n", step, d.WriteRange(pp, tag, n))
			tag += uint64(n)
		case op < 9:
			pps := make([]int, 1+rng.Intn(8))
			seen := map[int]bool{}
			for i := range pps {
				q := rng.Intn(pages)
				for seen[q] {
					q = (q + 1) % pages
				}
				seen[q] = true
				pps[i] = q
			}
			fmt.Fprintf(h, "%d writeSeq %d\n", step, d.WriteSeq(pps, tag))
			tag += uint64(len(pps))
		default:
			n := uint64(rng.Intn(20))
			fmt.Fprintf(h, "%d minRemaining %v read %d\n", step, d.MinRemainingAtLeast(n), d.Read(pp))
		}
		// Retire failed visible pages onto spares, so the run exercises the
		// redirect-following paths too.
		fp, failed := d.Failed()
		fmt.Fprintf(h, "%d failed %d %v\n", step, fp, failed)
		if failed && fp < pages && spareNext < d.TotalPages() {
			if err := d.Remap(fp, spareNext); err != nil {
				t.Fatal(err)
			}
			spareNext++
			d.AckFailures(d.FailedPages())
		} else if failed {
			break
		}
	}
	hashObservables(t, h, d)
	checkRecorded(t, "testdata/wide_parity.sha256", []byte(fmt.Sprintf("%x\n", h.Sum(nil))))
}

// TestPackedSnapshotInterop proves checkpoints cross storage layouts: the
// 64-bit device's checkpoint after a write sequence restores into this
// device with state identical to running the same writes here, and this
// device's own checkpoint is byte-identical to it.
func TestPackedSnapshotInterop(t *testing.T) {
	endurance := func(i int) uint64 { return 20 + uint64(i) }
	d := parityDevice(t, 32, 0, endurance)
	for i := 0; i < 300; i++ {
		d.Write(i%32, uint64(i))
	}
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/wide_snapshot.bin"
	checkRecorded(t, path, buf.Bytes())
	wide, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := parityDevice(t, 32, 0, endurance)
	if err := restored.Restore(bytes.NewReader(wide)); err != nil {
		t.Fatalf("restore of the 64-bit checkpoint: %v", err)
	}
	hr, hd := sha256.New(), sha256.New()
	hashObservables(t, hr, restored)
	hashObservables(t, hd, d)
	if !bytes.Equal(hr.Sum(nil), hd.Sum(nil)) {
		t.Fatal("restored device differs from the device that ran the writes")
	}
}
