package pcm

import (
	"testing"
	"testing/quick"
)

func testDevice(t *testing.T, pages int, endurance uint64) *Device {
	t.Helper()
	geom := Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32}
	end := make([]uint64, pages)
	for i := range end {
		end[i] = endurance
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Pages: 0, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1},
		{Pages: 10, PageSize: 0, LineSize: 128, Ranks: 1, Banks: 1},
		{Pages: 10, PageSize: 4096, LineSize: 100, Ranks: 1, Banks: 1}, // 100 doesn't divide 4096
		{Pages: 10, PageSize: 4096, LineSize: 128, Ranks: 0, Banks: 1},
		{Pages: 10, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: geometry %+v unexpectedly valid", i, g)
		}
	}
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
}

func TestDefaultGeometryMatchesTable1(t *testing.T) {
	g := DefaultGeometry()
	if g.Capacity() != 32<<30 {
		t.Fatalf("capacity = %d, want 32 GiB", g.Capacity())
	}
	if g.PageSize != 4096 || g.LineSize != 128 || g.Ranks != 4 || g.Banks != 32 {
		t.Fatalf("geometry does not match Table 1: %+v", g)
	}
	if g.LinesPerPage() != 32 {
		t.Fatalf("lines per page = %d, want 32", g.LinesPerPage())
	}
}

func TestDefaultTimingMatchesTable1(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadCycles != 250 || tm.SetCycles != 2000 || tm.ResetCycles != 250 {
		t.Fatalf("timing does not match Table 1: %+v", tm)
	}
	if tm.WriteCycles() != 2000 {
		t.Fatalf("write cycles = %d, want 2000 (SET-limited)", tm.WriteCycles())
	}
	if s := tm.Seconds(2e9); s != 1.0 {
		t.Fatalf("2e9 cycles at 2GHz = %v s, want 1", s)
	}
}

func TestNewDeviceValidation(t *testing.T) {
	geom := Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, 2, 3}); err == nil {
		t.Fatal("mismatched endurance map accepted")
	}
	if _, err := NewDevice(geom, DefaultTiming(), []uint64{1, 2, 3, 0}); err == nil {
		t.Fatal("zero endurance accepted")
	}
}

func TestNewDeviceCopiesEnduranceMap(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	end := []uint64{10, 20}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	end[0] = 999
	if d.Endurance(0) != 10 {
		t.Fatal("device endurance aliased caller's slice")
	}
}

func TestWriteWearAndFailure(t *testing.T) {
	d := testDevice(t, 4, 3)
	for i := 0; i < 2; i++ {
		if d.Write(1, uint64(i)) {
			t.Fatalf("write %d reported failure before endurance reached", i)
		}
	}
	if _, failed := d.Failed(); failed {
		t.Fatal("device reports failure with max wear 2 < endurance 3")
	}
	if !d.Write(1, 99) {
		t.Fatal("third write did not report wear-out (endurance 3)")
	}
	page, failed := d.Failed()
	if !failed || page != 1 {
		t.Fatalf("Failed() = %d,%v, want 1,true", page, failed)
	}
	if d.Remaining(1) != 0 {
		t.Fatalf("Remaining(1) = %d, want 0", d.Remaining(1))
	}
	if d.FailedPages() != 1 {
		t.Fatalf("FailedPages = %d, want 1", d.FailedPages())
	}
}

func TestFirstFailureSticky(t *testing.T) {
	d := testDevice(t, 4, 1)
	d.Write(2, 0)
	d.Write(3, 0)
	if page, _ := d.Failed(); page != 2 {
		t.Fatalf("first failed page = %d, want 2", page)
	}
	if d.FailedPages() != 2 {
		t.Fatalf("FailedPages = %d, want 2", d.FailedPages())
	}
}

func TestPayloadReadback(t *testing.T) {
	d := testDevice(t, 8, 100)
	d.Write(3, 0xDEAD)
	d.Write(5, 0xBEEF)
	if v := d.Read(3); v != 0xDEAD {
		t.Fatalf("Read(3) = %x, want dead", v)
	}
	if v := d.Peek(5); v != 0xBEEF {
		t.Fatalf("Peek(5) = %x, want beef", v)
	}
	if d.TotalReads() != 1 {
		t.Fatalf("TotalReads = %d, want 1 (Peek must not count)", d.TotalReads())
	}
}

func TestWearAccounting(t *testing.T) {
	d := testDevice(t, 4, 1000)
	for i := 0; i < 10; i++ {
		d.Write(i%4, 0)
	}
	if d.TotalWrites() != 10 {
		t.Fatalf("TotalWrites = %d, want 10", d.TotalWrites())
	}
	var sum uint64
	for p := 0; p < 4; p++ {
		sum += d.Wear(p)
	}
	if sum != 10 {
		t.Fatalf("sum of wear = %d, want 10", sum)
	}
}

// TestWearConservationProperty: total device wear always equals the number
// of Write calls, for arbitrary write sequences.
func TestWearConservationProperty(t *testing.T) {
	check := func(addrs []uint8) bool {
		d := testDevice(t, 256, MaxEndurance)
		for _, a := range addrs {
			d.Write(int(a), uint64(a))
		}
		var sum uint64
		for p := 0; p < 256; p++ {
			sum += d.Wear(p)
		}
		return sum == uint64(len(addrs)) && d.TotalWrites() == uint64(len(addrs))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRewriteNMatchesSerialRewrites: the hosted-write bulk operation must be
// indistinguishable from n sequential Write(pp, Peek(pp)) calls — payload
// preserved, wear and the device write counter advanced, and the endurance
// crossing clamped at (and including) the failing write.
func TestRewriteNMatchesSerialRewrites(t *testing.T) {
	bulk := testDevice(t, 4, 20)
	serial := testDevice(t, 4, 20)
	for _, d := range []*Device{bulk, serial} {
		d.Write(1, 777)
	}
	rewrite := func(n int) {
		if got := bulk.RewriteN(1, n); got != n {
			t.Fatalf("RewriteN(1, %d) applied %d before the endurance crossing", n, got)
		}
		for i := 0; i < n; i++ {
			serial.Write(1, serial.Peek(1))
		}
	}
	rewrite(5)
	rewrite(1)
	if bulk.Peek(1) != 777 || bulk.Wear(1) != serial.Wear(1) || bulk.writes != serial.writes {
		t.Fatalf("bulk state diverges: payload %d wear %d/%d writes %d/%d",
			bulk.Peek(1), bulk.Wear(1), serial.Wear(1), bulk.writes, serial.writes)
	}
	if bulk.FailedPages() != 0 {
		t.Fatalf("premature failure log: %d entries", bulk.FailedPages())
	}
	// 7 of 20 writes spent; a 100-write request must clamp at the 13 left.
	if got := bulk.RewriteN(1, 100); got != 13 {
		t.Fatalf("RewriteN clamp applied %d, want 13", got)
	}
	if bulk.FailedPages() != 1 || bulk.FailureAt(0) != 1 {
		t.Fatalf("endurance crossing not logged: %d failures", bulk.FailedPages())
	}
	// Writes to an already-failed page keep counting, without re-logging.
	if got := bulk.RewriteN(1, 3); got != 3 {
		t.Fatalf("post-failure RewriteN applied %d, want 3", got)
	}
	if bulk.FailedPages() != 1 {
		t.Fatalf("dead page re-logged: %d failures", bulk.FailedPages())
	}
	if bulk.Wear(1) != 23 || bulk.Peek(1) != 777 {
		t.Fatalf("post-failure wear %d payload %d, want 23 / 777", bulk.Wear(1), bulk.Peek(1))
	}
	if got := bulk.RewriteN(1, 0); got != 0 {
		t.Fatalf("RewriteN(1, 0) applied %d", got)
	}
}

func TestTotalEndurance(t *testing.T) {
	geom := Geometry{Pages: 3, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, err := NewDevice(geom, DefaultTiming(), []uint64{5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalEndurance() != 21 {
		t.Fatalf("TotalEndurance = %d, want 21", d.TotalEndurance())
	}
}

func TestSummary(t *testing.T) {
	geom := Geometry{Pages: 2, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, _ := NewDevice(geom, DefaultTiming(), []uint64{10, 100})
	for i := 0; i < 5; i++ {
		d.Write(0, 0)
	}
	for i := 0; i < 20; i++ {
		d.Write(1, 0)
	}
	s := d.Summary()
	if s.TotalWear != 25 {
		t.Fatalf("TotalWear = %d, want 25", s.TotalWear)
	}
	if s.MaxWear != 20 || s.MaxWearPage != 1 {
		t.Fatalf("MaxWear = %d@%d, want 20@1", s.MaxWear, s.MaxWearPage)
	}
	// Fractions: page0 = 0.5, page1 = 0.2 → max fraction on page 0.
	if s.MaxFractionPage != 0 || s.MaxFraction != 0.5 {
		t.Fatalf("MaxFraction = %v@%d, want 0.5@0", s.MaxFraction, s.MaxFractionPage)
	}
	if s.MeanFraction != 0.35 {
		t.Fatalf("MeanFraction = %v, want 0.35", s.MeanFraction)
	}
}

func TestWearHistogram(t *testing.T) {
	geom := Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	d, _ := NewDevice(geom, DefaultTiming(), []uint64{10, 10, 10, 10})
	// Fractions: 0.0, 0.2, 0.5, 1.0
	for i := 0; i < 2; i++ {
		d.Write(1, 0)
	}
	for i := 0; i < 5; i++ {
		d.Write(2, 0)
	}
	for i := 0; i < 10; i++ {
		d.Write(3, 0)
	}
	h := d.WearHistogram(4) // buckets [0,.25) [.25,.5) [.5,.75) [.75,1]
	want := []int{2, 0, 1, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("histogram = %v, want %v", h, want)
		}
	}
	if d.WearHistogram(0) != nil {
		t.Fatal("zero-bucket histogram should be nil")
	}
}

func TestReset(t *testing.T) {
	d := testDevice(t, 4, 2)
	d.Write(0, 7)
	d.Write(0, 7)
	d.Read(0)
	if _, failed := d.Failed(); !failed {
		t.Fatal("setup: expected failure")
	}
	d.Reset()
	if _, failed := d.Failed(); failed {
		t.Fatal("failure survived Reset")
	}
	if d.TotalWrites() != 0 || d.TotalReads() != 0 || d.Wear(0) != 0 || d.Peek(0) != 0 {
		t.Fatal("counters survived Reset")
	}
	if d.Endurance(0) != 2 {
		t.Fatal("endurance map lost in Reset")
	}
}

func BenchmarkDeviceWrite(b *testing.B) {
	geom := Geometry{Pages: 1 << 14, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32}
	end := make([]uint64, geom.Pages)
	for i := range end {
		end[i] = 1 << 62
	}
	d, err := NewDevice(geom, DefaultTiming(), end)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Write(i&(1<<14-1), uint64(i))
	}
}
