package tables

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"twl/internal/snap"
)

// remapStream encodes a remap checkpoint the way the int-wide table wrote
// it: both columns as length-prefixed int64s.
func remapStream(toPhys, toLog []int) []byte {
	var buf bytes.Buffer
	sw := snap.NewWriter(&buf)
	sw.Ints(toPhys)
	sw.Ints(toLog)
	return buf.Bytes()
}

// TestRemapRestoreRejects verifies length and range validation on restore:
// the int64 wire can carry values no uint32 page address holds, and those
// must fail loudly instead of truncating.
func TestRemapRestoreRejects(t *testing.T) {
	src := NewRemap(8)
	src.SwapLogical(1, 6)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := NewRemap(9).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into wrong-size table succeeded")
	}
	dst := NewRemap(8)
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if dst.Phys(1) != 6 || dst.Log(1) != 6 {
		t.Fatalf("round trip Phys(1)/Log(1) = %d/%d, want 6/6", dst.Phys(1), dst.Log(1))
	}

	// The int-wide wire encoding of an identity table restores exactly.
	if err := NewRemap(4).Restore(bytes.NewReader(remapStream([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}))); err != nil {
		t.Fatalf("restore of an int-wide stream: %v", err)
	}
	for _, bad := range []struct {
		name  string
		entry int
	}{
		{"negative", -1},
		{"past the table", 4},
		{"past uint32", math.MaxUint32 + 2},
	} {
		stream := remapStream([]int{0, 1, bad.entry, 3}, []int{0, 1, 2, 3})
		if err := NewRemap(4).Restore(bytes.NewReader(stream)); err == nil {
			t.Fatalf("restore of a %s entry succeeded", bad.name)
		}
	}
}

// TestRemapMatchesWide drives the table and an int-wide mapping kept as
// plain []int through the same random swap sequence and requires identical
// mappings afterwards.
func TestRemapMatchesWide(t *testing.T) {
	const n = 257
	r := NewRemap(n)
	toPhys, toLog := make([]int, n), make([]int, n)
	for i := range toPhys {
		toPhys[i], toLog[i] = i, i
	}
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 2000; op++ {
		a, b := rng.Intn(n), rng.Intn(n)
		r.SwapLogical(a, b)
		p1, p2 := toPhys[a], toPhys[b]
		toPhys[a], toPhys[b] = p2, p1
		toLog[p1], toLog[p2] = b, a
	}
	if err := r.CheckBijection(); err != nil {
		t.Fatalf("bijection: %v", err)
	}
	for la := 0; la < n; la++ {
		if r.Phys(la) != toPhys[la] {
			t.Fatalf("Phys(%d) = %d, want %d", la, r.Phys(la), toPhys[la])
		}
		if r.Log(la) != toLog[la] {
			t.Fatalf("Log(%d) = %d, want %d", la, r.Log(la), toLog[la])
		}
	}
	for la, pa := range r.PhysTable() {
		if int(pa) != toPhys[la] {
			t.Fatalf("PhysTable[%d] = %d, want %d", la, pa, toPhys[la])
		}
	}
}

// TestRemapSnapshotInterop requires the table's checkpoint to be
// byte-identical to the int-wide table's encoding of the same mapping, and
// that encoding to restore exactly — checkpoints cross storage widths in
// both directions.
func TestRemapSnapshotInterop(t *testing.T) {
	const n = 64
	r := NewRemap(n)
	// The int-wide table's state, kept as plain []int alongside.
	toPhys, toLog := make([]int, n), make([]int, n)
	for i := range toPhys {
		toPhys[i], toLog[i] = i, i
	}
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 300; op++ {
		a, b := rng.Intn(n), rng.Intn(n)
		r.SwapLogical(a, b)
		p1, p2 := toPhys[a], toPhys[b]
		toPhys[a], toPhys[b] = p2, p1
		toLog[p1], toLog[p2] = b, a
	}
	wide := remapStream(toPhys, toLog)
	var buf bytes.Buffer
	if err := r.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), wide) {
		t.Fatalf("checkpoint differs from the int-wide encoding (%d vs %d bytes)", buf.Len(), len(wide))
	}
	restored := NewRemap(n)
	if err := restored.Restore(bytes.NewReader(wide)); err != nil {
		t.Fatalf("restore of the int-wide encoding: %v", err)
	}
	for la := 0; la < n; la++ {
		if restored.Phys(la) != toPhys[la] || restored.Log(la) != toLog[la] {
			t.Fatalf("restored Phys/Log(%d) = %d/%d, want %d/%d",
				la, restored.Phys(la), restored.Log(la), toPhys[la], toLog[la])
		}
	}
}

// TestPairTableRejectsUnbound verifies the unpaired marker: it reads back as
// -1, never as a page address, so a partially bound table fails Check.
func TestPairTableRejectsUnbound(t *testing.T) {
	p, err := NewPairTable(4)
	if err != nil {
		t.Fatalf("NewPairTable: %v", err)
	}
	for i := 0; i < 4; i++ {
		if got := p.Partner(i); got != -1 {
			t.Fatalf("fresh Partner(%d) = %d, want -1", i, got)
		}
	}
	if err := p.Bind(0, 3); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := p.Check(); err == nil {
		t.Fatal("Check accepted a table with unbound pages")
	}
	if err := p.Bind(1, 2); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := p.Check(); err != nil {
		t.Fatalf("fully bound table: %v", err)
	}
}

// TestTableBytes spot-checks the Bytes accounting against the known layout.
func TestTableBytes(t *testing.T) {
	const n = 100
	if got := NewRemap(n).Bytes(); got != 8*n {
		t.Fatalf("Remap.Bytes = %d, want %d", got, 8*n)
	}
	wc := NewWriteCounts(n)
	wc.Record(3)
	wc.Record(7)
	if got := wc.Bytes(); got != 8*n+16 {
		t.Fatalf("WriteCounts.Bytes = %d, want %d", got, 8*n+16)
	}
	pt, err := NewPairTable(n)
	if err != nil {
		t.Fatalf("NewPairTable: %v", err)
	}
	if got := pt.Bytes(); got != 4*n {
		t.Fatalf("PairTable.Bytes = %d, want %d", got, 4*n)
	}
	if got := NewCounter(n).Bytes(); got != n {
		t.Fatalf("Counter.Bytes = %d, want %d", got, n)
	}
}
