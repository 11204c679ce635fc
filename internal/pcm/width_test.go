package pcm

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"twl/internal/snap"
)

// Width-boundary tests: the device stores endurance and wear as uint32, so
// the constructor, the bulk write clamps, the watermark and checkpoint
// restore must each hold exactly at the edges of that width.

// limitDevice builds a spare-free device over the given endurance map.
func limitDevice(t *testing.T, end []uint64) *Device {
	t.Helper()
	geom := Geometry{Pages: len(end), PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPackedEnduranceLimit pins the constructor's width gate: endurance above
// MaxEndurance is a typed configuration error.
func TestPackedEnduranceLimit(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	_, err := NewDevice(geom, DefaultTiming(), []uint64{1, MaxEndurance + 1})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("endurance above the limit: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, MaxEndurance}); err != nil {
		t.Fatalf("NewDevice rejected endurance at the limit: %v", err)
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{0, 1}); err == nil {
		t.Fatal("NewDevice accepted zero endurance")
	}
}

// TestEnduranceMapCopies is the mutation-safety regression test: the map a
// caller receives must be a copy, so sorting or zeroing it cannot corrupt
// the device's ground truth (this was an aliasing bug — schemes sort their
// "copy" of the endurance map during construction).
func TestEnduranceMapCopies(t *testing.T) {
	geom := Geometry{Pages: 8, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1, SparePages: 2}
	end := make([]uint64, geom.TotalPages())
	for i := range end {
		end[i] = 100 + uint64(i)
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	m := d.EnduranceMap()
	if len(m) != 8 {
		t.Fatalf("EnduranceMap covers %d pages, want visible 8", len(m))
	}
	for i := range m {
		m[i] = 1
	}
	if d.Endurance(3) != 103 {
		t.Fatalf("mutating the returned map changed device endurance to %d", d.Endurance(3))
	}
	if got := d.EnduranceMap()[3]; got != 103 {
		t.Fatalf("second EnduranceMap call sees %d, want 103", got)
	}
}

// TestFootprintAccounting pins the bytes-per-page layout audit: 16 B/page of
// device state (uint32 wear and endurance, 64-bit payload), plus the
// redirect table once a retirement materializes it.
func TestFootprintAccounting(t *testing.T) {
	geom := Geometry{Pages: 100, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1, SparePages: 4}
	end := make([]uint64, geom.TotalPages()) // 104 physical pages
	for i := range end {
		end[i] = 1000
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	f := d.Footprint()
	if f.Total() != 104*16 || f.Wear != 104*4 || f.Endurance != 104*4 || f.Payload != 104*8 {
		t.Fatalf("footprint %+v, want 16 B/page over 104 pages", f)
	}
	if f.PerPage(104) != 16 {
		t.Fatalf("PerPage = %g, want 16", f.PerPage(104))
	}
	for i := 0; i < 1000; i++ {
		d.Write(7, 1)
	}
	if err := d.Remap(7, 100); err != nil {
		t.Fatal(err)
	}
	if got := d.Footprint().Redirect; got != 104*8+104 {
		t.Fatalf("redirect footprint %d bytes, want %d", got, 104*8+104)
	}
}

// TestWriteNOverflowClamp pins the failure clamp of the bulk paths at the
// width limits: a run far longer than uint32 can count must still stop at
// exactly the failing write, both at the endurance ceiling and from a fresh
// page.
func TestWriteNOverflowClamp(t *testing.T) {
	maxRun := int(^uint(0) >> 1)
	d := limitDevice(t, []uint64{MaxEndurance, MaxEndurance})
	if got := d.WriteN(0, 1, MaxEndurance-3); got != MaxEndurance-3 {
		t.Fatalf("WriteN ramp applied %d, want %d", got, MaxEndurance-3)
	}
	// w + n wraps uint32 here; the clamp must still fire at exactly the
	// remaining 3 writes and log the failure.
	if got := d.WriteN(0, 42, maxRun); got != 3 {
		t.Fatalf("WriteN at the boundary applied %d, want 3", got)
	}
	if w := d.Wear(0); w != MaxEndurance {
		t.Fatalf("wear = %d, want MaxEndurance", w)
	}
	if page, failed := d.Failed(); !failed || page != 0 {
		t.Fatalf("Failed = %d/%v, want 0/true", page, failed)
	}
	// RewriteN has the same clamp; a fresh page takes the whole endurance
	// in one call.
	if got := d.RewriteN(1, maxRun); got != MaxEndurance {
		t.Fatalf("RewriteN from a fresh page applied %d, want %d", got, MaxEndurance)
	}
	if d.FailedPages() != 2 {
		t.Fatalf("failed pages = %d, want 2", d.FailedPages())
	}
}

// TestWatermarkNearLimits exercises MinRemainingAtLeast with endurance at
// the width limit: the watermark arithmetic must not wrap.
func TestWatermarkNearLimits(t *testing.T) {
	d := limitDevice(t, []uint64{MaxEndurance, MaxEndurance - 1, MaxEndurance, MaxEndurance})
	if !d.MinRemainingAtLeast(MaxEndurance - 1) {
		t.Fatal("fresh device must have MaxEndurance-1 remaining everywhere")
	}
	if d.MinRemainingAtLeast(MaxEndurance) {
		t.Fatal("page 1 cannot absorb MaxEndurance writes")
	}
	if d.MinRemainingAtLeast(math.MaxUint64) {
		t.Fatal("no page can absorb MaxUint64 writes")
	}
	d.Write(1, 7)
	if d.MinRemainingAtLeast(MaxEndurance - 1) {
		t.Fatal("after one write page 1 has MaxEndurance-2 remaining")
	}
	if !d.MinRemainingAtLeast(MaxEndurance - 2) {
		t.Fatal("watermark lost the exact minimum")
	}
}

// TestTotalEnduranceAtLimit pins the endurance sum at the width limit: it is
// exact, with no wrap, for pages at MaxEndurance.
func TestTotalEnduranceAtLimit(t *testing.T) {
	d := limitDevice(t, []uint64{MaxEndurance, MaxEndurance, MaxEndurance})
	if got := d.TotalEndurance(); got != 3*MaxEndurance {
		t.Fatalf("TotalEndurance = %d, want %d", got, uint64(3*MaxEndurance))
	}
}

// TestGeometryValidateFullScale accepts the paper's real geometry and
// rejects degenerate full-scale variants, including page counts the uint32
// page addresses cannot reach.
func TestGeometryValidateFullScale(t *testing.T) {
	g := DefaultGeometry()
	if g.Pages != 8<<20 {
		t.Fatalf("full geometry has %d pages, want 8Mi", g.Pages)
	}
	g.SparePages = g.Pages / 50
	if err := g.Validate(); err != nil {
		t.Fatalf("full geometry with spares invalid: %v", err)
	}
	if g.TotalPages() != 8<<20+(8<<20)/50 {
		t.Fatalf("TotalPages = %d", g.TotalPages())
	}
	g.SparePages = -1
	if err := g.Validate(); err == nil {
		t.Fatal("negative spare pool unexpectedly valid")
	}
	if math.MaxInt > MaxPages {
		g.SparePages = MaxPages - g.Pages + 1
		if err := g.Validate(); err == nil {
			t.Fatal("page count past the uint32 address range unexpectedly valid")
		}
	}
}

// wideDeviceSnapshot encodes a device checkpoint in the wire format, with
// wear given as full 64-bit values the way a 64-bit device layout wrote it.
func wideDeviceSnapshot(wear, payload []uint64) []byte {
	var buf bytes.Buffer
	sw := snap.NewWriter(&buf)
	sw.U64s(wear)
	sw.U64s(payload)
	var writes uint64
	for _, w := range wear {
		writes += w
	}
	sw.U64(writes)
	sw.U64(0)      // reads
	sw.Ints(nil)   // failure log
	sw.Int(0)      // acknowledged failures
	sw.Bool(false) // no redirects
	sw.U64(0)      // watermark slack
	sw.U64(0)      // watermark position
	sw.Bool(false)
	return buf.Bytes()
}

// TestRestoreRejectsWideWear feeds checkpoints in the 64-bit wear encoding:
// values within uint32 restore exactly, and a value past uint32 is rejected
// rather than truncated.
func TestRestoreRejectsWideWear(t *testing.T) {
	d := limitDevice(t, []uint64{MaxEndurance, MaxEndurance})
	ok := wideDeviceSnapshot([]uint64{math.MaxUint32, 5}, []uint64{7, 9})
	if err := d.Restore(bytes.NewReader(ok)); err != nil {
		t.Fatalf("restore of in-range wear: %v", err)
	}
	if d.Wear(0) != math.MaxUint32 || d.Wear(1) != 5 || d.Peek(1) != 9 {
		t.Fatalf("restored wear %d/%d payload %d, want %d/5 payload 9",
			d.Wear(0), d.Wear(1), d.Peek(1), uint64(math.MaxUint32))
	}
	bad := wideDeviceSnapshot([]uint64{3, math.MaxUint32 + 1}, []uint64{7, 9})
	if err := limitDevice(t, []uint64{10, 10}).Restore(bytes.NewReader(bad)); err == nil {
		t.Fatal("restore accepted wear past uint32")
	}
}
