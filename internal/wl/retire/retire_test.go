package retire_test

import (
	"bytes"
	"errors"
	"testing"

	"twl/internal/pcm"
	"twl/internal/wl"
	"twl/internal/wl/nowl"
	"twl/internal/wl/retire"
)

// spareDevice builds a device with pages visible pages of the given
// endurance and spares spare pages of endurance spareEnd.
func spareDevice(t *testing.T, pages, spares int, endurance, spareEnd uint64) *pcm.Device {
	t.Helper()
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 4, Banks: 32, SparePages: spares}
	end := make([]uint64, pages+spares)
	for i := range end {
		if i < pages {
			end[i] = endurance
		} else {
			end[i] = spareEnd
		}
	}
	d, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func retired(t *testing.T, dev *pcm.Device, cfg wl.RetireConfig) wl.Scheme {
	t.Helper()
	s, err := retire.New(nowl.New(dev), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stats(t *testing.T, s wl.Scheme) wl.CapacityStats {
	t.Helper()
	rep, ok := wl.AsCapacityReporter(s)
	if !ok {
		t.Fatal("retired scheme does not expose CapacityReporter")
	}
	return rep.CapacityStats()
}

func TestNewValidation(t *testing.T) {
	end := []uint64{10, 10, 10, 10}
	plain, err := pcm.NewDevice(pcm.Geometry{Pages: 4, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := retire.New(nowl.New(plain), wl.RetireConfig{}); !errors.Is(err, wl.ErrBadConfig) {
		t.Fatalf("no-spare device: err = %v, want ErrBadConfig", err)
	}
	dev := spareDevice(t, 4, 1, 10, 10)
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := retire.New(nowl.New(dev), wl.RetireConfig{CapacityThreshold: bad}); !errors.Is(err, wl.ErrBadConfig) {
			t.Fatalf("threshold %v: err = %v, want ErrBadConfig", bad, err)
		}
	}
	if _, err := retire.New(nowl.New(dev), wl.RetireConfig{CapacityThreshold: 0.5}); err != nil {
		t.Fatal(err)
	}
}

// TestCapabilitiesPreserved: retire over NOWL serves both bulk writers and
// the logical page count from the wrapped scheme, unwraps to it, and
// exposes the capacity reporter through the walk.
func TestCapabilitiesPreserved(t *testing.T) {
	inner := nowl.New(spareDevice(t, 4, 1, 10, 10))
	s, err := retire.New(inner, wl.RetireConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, n := s.WriteRun(0, 1, 3); n != 3 {
		t.Errorf("WriteRun absorbed %d of 3", n)
	}
	if _, n := s.WriteSweep(0, 4, 3); n != 3 {
		t.Errorf("WriteSweep absorbed %d of 3", n)
	}
	if got := inner.Stats().DemandWrites; got != 6 {
		t.Errorf("inner scheme served %d bulk writes, want 6", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if s.LogicalPages() != 4 {
		t.Errorf("LogicalPages = %d, want 4", s.LogicalPages())
	}
	if u, ok := s.(wl.Unwrapper); !ok || u.Unwrap() != wl.Scheme(inner) {
		t.Error("decorator does not unwrap to the wrapped scheme")
	}
	if s.Name() != "NOWL" {
		t.Errorf("Name = %q, want inner scheme's", s.Name())
	}
	st := stats(t, s)
	if st.SparePages != 1 || st.RetireLimit != 4 {
		t.Errorf("CapacityStats = %+v", st)
	}
}

// TestRetirementExtendsLifetime: the run continues past the first page
// failure, payloads survive the migration, and the curve records each
// retirement at its demand-write count.
func TestRetirementExtendsLifetime(t *testing.T) {
	dev := spareDevice(t, 4, 2, 5, 50)
	s := retired(t, dev, wl.RetireConfig{})

	// Kill page 1: five writes reach its endurance.
	for i := 0; i < 5; i++ {
		s.Write(1, uint64(100+i))
	}
	if _, failed := dev.Failed(); failed {
		t.Fatal("failure not absorbed by retirement")
	}
	if sp, ok := dev.Redirect(1); !ok || sp != 4 {
		t.Fatalf("Redirect(1) = %d,%v, want 4,true", sp, ok)
	}
	if v, _ := s.Read(1); v != 104 {
		t.Fatalf("payload after retirement = %d, want 104", v)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := stats(t, s)
	if st.Retired != 1 || st.SparesUsed != 1 || st.Exhausted {
		t.Fatalf("stats after first retirement: %+v", st)
	}
	if len(st.Curve) != 1 || st.Curve[0] != (wl.CapacityPoint{DemandWrites: 5, Retired: 1, SparesUsed: 1}) {
		t.Fatalf("curve = %+v", st.Curve)
	}

	// Traffic to the retired page now wears the spare, not the dead cell.
	for i := 0; i < 30; i++ {
		s.Write(1, uint64(i))
	}
	if dev.Wear(1) != 5 || dev.Wear(4) != 30 {
		t.Fatalf("wear dead=%d spare=%d", dev.Wear(1), dev.Wear(4))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareChaining: when a spare itself wears out, its origin page
// re-points to a fresh spare without counting as a new retirement.
func TestSpareChaining(t *testing.T) {
	dev := spareDevice(t, 4, 2, 3, 4)
	s := retired(t, dev, wl.RetireConfig{})
	// 3 writes kill page 0 (retire to spare 4); 4 more kill spare 4
	// (re-point to spare 5).
	for i := 0; i < 7; i++ {
		s.Write(0, uint64(i))
	}
	if _, failed := dev.Failed(); failed {
		t.Fatal("spare death not absorbed")
	}
	if sp, _ := dev.Redirect(0); sp != 5 {
		t.Fatalf("Redirect(0) = %d, want fresh spare 5", sp)
	}
	st := stats(t, s)
	if st.Retired != 1 || st.SparesUsed != 2 {
		t.Fatalf("chaining stats: %+v", st)
	}
	if len(st.Curve) != 2 || st.Curve[1] != (wl.CapacityPoint{DemandWrites: 7, Retired: 1, SparesUsed: 2}) {
		t.Fatalf("curve = %+v", st.Curve)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSpareExhaustion: once the pool is empty the next failure stays
// unacknowledged so the simulator sees the run end.
func TestSpareExhaustion(t *testing.T) {
	dev := spareDevice(t, 4, 1, 3, 3)
	s := retired(t, dev, wl.RetireConfig{})
	// Page 2 dies (takes the only spare), then the spare dies with no
	// replacement available.
	for i := 0; i < 6; i++ {
		s.Write(2, uint64(i))
	}
	page, failed := dev.Failed()
	if !failed || page != 4 {
		t.Fatalf("Failed = %d,%v, want unacked spare 4", page, failed)
	}
	st := stats(t, s)
	if !st.Exhausted || st.SparesUsed != 1 || st.Retired != 1 {
		t.Fatalf("exhaustion stats: %+v", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Further failures accumulate without panicking or acking.
	for i := 0; i < 3; i++ {
		s.Write(3, uint64(i))
	}
	if page, _ := dev.Failed(); page != 4 {
		t.Fatalf("first unacked failure moved to %d", page)
	}
}

// TestCapacityThreshold: the device dies when the retired fraction crosses
// the threshold even with spares left in the pool.
func TestCapacityThreshold(t *testing.T) {
	dev := spareDevice(t, 8, 4, 2, 100)
	s := retired(t, dev, wl.RetireConfig{CapacityThreshold: 0.25})
	st := stats(t, s)
	if st.RetireLimit != 2 {
		t.Fatalf("RetireLimit = %d, want 2", st.RetireLimit)
	}
	// Two retirements are inside the limit; the third crosses it.
	for page := 0; page < 3; page++ {
		for i := 0; i < 2; i++ {
			s.Write(page, uint64(i))
		}
	}
	page, failed := dev.Failed()
	if !failed || page != 2 {
		t.Fatalf("Failed = %d,%v, want unacked page 2", page, failed)
	}
	st = stats(t, s)
	if !st.Exhausted || st.Retired != 2 || st.SparesUsed != 2 {
		t.Fatalf("threshold stats: %+v", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkPathsRetire: WriteRun and WriteSweep clamp at the failing write,
// the decorator retires it, and the next bulk call lands on the spare —
// with the curve's demand-write counts identical to the per-request path.
func TestBulkPathsRetire(t *testing.T) {
	dev := spareDevice(t, 4, 2, 10, 100)
	s := retired(t, dev, wl.RetireConfig{})

	if _, absorbed := s.WriteRun(1, 7, 15); absorbed != 10 {
		t.Fatalf("WriteRun absorbed %d, want clamp at failing write 10", absorbed)
	}
	st := stats(t, s)
	if len(st.Curve) != 1 || st.Curve[0].DemandWrites != 10 {
		t.Fatalf("curve after bulk failure = %+v", st.Curve)
	}
	if _, absorbed := s.WriteRun(1, 8, 5); absorbed != 5 {
		t.Fatal("run after retirement did not absorb fully")
	}
	if dev.Wear(4) != 5 {
		t.Fatalf("spare wear = %d, want 5", dev.Wear(4))
	}

	// Sweep over pages 0..3: page 2 needs 10 writes to die.
	for i := 0; i < 9; i++ {
		s.Write(2, uint64(i))
	}
	if _, absorbed := s.WriteSweep(0, 9, 4); absorbed != 3 {
		t.Fatalf("WriteSweep absorbed %d, want clamp at failing page (3)", absorbed)
	}
	st = stats(t, s)
	if st.Retired != 2 || st.SparesUsed != 2 {
		t.Fatalf("stats after sweep failure: %+v", st)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDataIntegrityThroughRetirement: a shadow map stays consistent with
// reads while pages retire underneath the scheme.
func TestDataIntegrityThroughRetirement(t *testing.T) {
	const pages = 8
	dev := spareDevice(t, pages, 4, 20, 200)
	s := retired(t, dev, wl.RetireConfig{})
	shadow := make(map[int]uint64)
	rng := uint64(0x9e3779b97f4a7c15)
	for op := 0; op < 400; op++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		la := int(rng>>33) % pages
		if rng&1 == 0 {
			s.Write(la, rng)
			shadow[la] = rng
		} else if want, ok := shadow[la]; ok {
			if got, _ := s.Read(la); got != want {
				t.Fatalf("op %d: Read(%d) = %d, want %d (retired=%d)",
					op, la, got, want, stats(t, s).Retired)
			}
		}
		if _, failed := dev.Failed(); failed {
			break
		}
		if op%50 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if stats(t, s).Retired == 0 {
		t.Fatal("workload never triggered a retirement; test is vacuous")
	}
}

// TestSnapshotRoundTrip: a mid-run checkpoint (after retirements) restores
// into an identical decorator — continuing both produces identical device
// state and capacity stats.
func TestSnapshotRoundTrip(t *testing.T) {
	build := func() (*pcm.Device, wl.Scheme) {
		dev := spareDevice(t, 4, 2, 5, 50)
		return dev, retired(t, dev, wl.RetireConfig{CapacityThreshold: 0.9})
	}
	dev, s := build()
	for i := 0; i < 8; i++ {
		s.Write(1, uint64(i)) // dies at 5, then 3 writes on the spare
	}
	s.Write(0, 99)

	var schemeBuf, devBuf bytes.Buffer
	if err := s.Snapshot(&schemeBuf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Snapshot(&devBuf); err != nil {
		t.Fatal(err)
	}

	dev2, s2 := build()
	if err := dev2.Restore(bytes.NewReader(devBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(bytes.NewReader(schemeBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := s2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st, st2 := stats(t, s), stats(t, s2)
	if st2.Retired != st.Retired || st2.SparesUsed != st.SparesUsed || len(st2.Curve) != len(st.Curve) {
		t.Fatalf("restored stats %+v, want %+v", st2, st)
	}

	// Continue both runs identically: spare 4 (wear 3 of 50 at the
	// checkpoint) dies and re-points on both.
	for i := 0; i < 50; i++ {
		s.Write(1, uint64(i))
		s2.Write(1, uint64(i))
	}
	if sp, _ := dev.Redirect(1); sp != 5 {
		t.Fatalf("original did not re-point: %d", sp)
	}
	var a, b bytes.Buffer
	if err := dev.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := dev2.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("device state diverged after resume")
	}
	a.Reset()
	b.Reset()
	if err := s.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := s2.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("scheme state diverged after resume")
	}
}
