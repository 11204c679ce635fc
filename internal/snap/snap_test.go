package snap

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRoundTrip writes one of every primitive and slice kind and reads them
// back, proving the codec is self-consistent.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<63 + 17)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.String("hello")
	w.Tag("sect")
	w.U64s([]uint64{1, 2, 3})
	w.U32s([]uint32{4, 5})
	w.U16s([]uint16{6})
	w.U8s([]uint8{7, 8, 9, 10})
	w.Ints([]int{-1, 0, 1})
	w.F64s([]float64{0.5, -0.25})
	w.Ints([]int{11, 12}) // read back via IntSlice
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	if got := r.U8(); got != 0xab {
		t.Errorf("U8: got %#x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16: got %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32: got %#x", got)
	}
	if got := r.U64(); got != 1<<63+17 {
		t.Errorf("U64: got %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64: got %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int: got %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64: got %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 -Inf: got %v", got)
	}
	if got := r.String(16); got != "hello" {
		t.Errorf("String: got %q", got)
	}
	r.Expect("sect")
	u64s := make([]uint64, 3)
	r.U64sInto(u64s)
	if u64s[0] != 1 || u64s[2] != 3 {
		t.Errorf("U64sInto: got %v", u64s)
	}
	u32s := make([]uint32, 2)
	r.U32sInto(u32s)
	if u32s[1] != 5 {
		t.Errorf("U32sInto: got %v", u32s)
	}
	u16s := make([]uint16, 1)
	r.U16sInto(u16s)
	if u16s[0] != 6 {
		t.Errorf("U16sInto: got %v", u16s)
	}
	u8s := make([]uint8, 4)
	r.U8sInto(u8s)
	if u8s[3] != 10 {
		t.Errorf("U8sInto: got %v", u8s)
	}
	ints := make([]int, 3)
	r.IntsInto(ints)
	if ints[0] != -1 || ints[2] != 1 {
		t.Errorf("IntsInto: got %v", ints)
	}
	f64s := make([]float64, 2)
	r.F64sInto(f64s)
	if f64s[1] != -0.25 {
		t.Errorf("F64sInto: got %v", f64s)
	}
	got := r.IntSlice(8)
	if len(got) != 2 || got[0] != 11 || got[1] != 12 {
		t.Errorf("IntSlice: got %v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderLatchesErrors: after the first failure every read is a zero
// no-op and Err keeps reporting the first failure.
func TestReaderLatchesErrors(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{1, 2})) // too short for a U64
	if got := r.U64(); got != 0 {
		t.Errorf("truncated U64 returned %d, want 0", got)
	}
	first := r.Err()
	if first == nil {
		t.Fatal("truncated read did not latch an error")
	}
	if got := r.U32(); got != 0 {
		t.Errorf("read after latched error returned %d", got)
	}
	if r.Err() != first {
		t.Error("later read replaced the latched error")
	}
}

// TestExpectMismatch: a wrong section tag reports both tags.
func TestExpectMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Tag("device")
	r := NewReader(&buf)
	r.Expect("scheme")
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "device") || !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("tag mismatch error %v does not name both tags", err)
	}
}

// TestFixedSliceLengthMismatch: a stored slice must match its destination
// exactly (a checkpoint from a differently-sized system must fail loudly).
func TestFixedSliceLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64s([]uint64{1, 2, 3})
	r := NewReader(&buf)
	r.U64sInto(make([]uint64, 4))
	if r.Err() == nil {
		t.Fatal("length mismatch went undetected")
	}
}

// TestStringAndSliceLimits: length prefixes beyond the caller's bound are
// rejected without allocating.
func TestStringAndSliceLimits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("too long for the limit")
	r := NewReader(&buf)
	if got := r.String(4); got != "" || r.Err() == nil {
		t.Fatalf("oversized string accepted: %q, err %v", got, r.Err())
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.Ints([]int{1, 2, 3, 4, 5})
	r = NewReader(&buf)
	if got := r.IntSlice(3); got != nil || r.Err() == nil {
		t.Fatalf("oversized int slice accepted: %v, err %v", got, r.Err())
	}
}

// TestFileRoundTrip: WriteFile then ReadFile restores the payload and
// leaves no temp files behind.
func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.ckpt")
	n, err := WriteFile(path, func(w *Writer) error {
		w.Tag("data")
		w.U64s([]uint64{9, 8, 7})
		return w.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("reported size %d, stat %v/%v", n, fi, err)
	}
	var got []uint64
	err = ReadFile(path, func(r *Reader) error {
		r.Expect("data")
		got = make([]uint64, 3)
		r.U64sInto(got)
		return r.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 || got[2] != 7 {
		t.Errorf("payload round-trip: got %v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file %s survived WriteFile", e.Name())
		}
	}
}

// TestFileReplacesAtomically: a second WriteFile replaces the first
// in-place; the reader sees only the new payload.
func TestFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.ckpt")
	for _, v := range []uint64{1, 2} {
		if _, err := WriteFile(path, func(w *Writer) error {
			w.U64(v)
			return w.Err()
		}); err != nil {
			t.Fatal(err)
		}
	}
	var got uint64
	if err := ReadFile(path, func(r *Reader) error {
		got = r.U64()
		return r.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("got payload %d, want the replacement 2", got)
	}
}

// TestFileCorruptionDetected: every class of file damage is caught before
// the decoder runs.
func TestFileCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.ckpt")
	if _, err := WriteFile(path, func(w *Writer) error {
		w.U64s([]uint64{1, 2, 3, 4})
		return w.Err()
	}); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	decodeNothing := func(r *Reader) error { return nil }
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "not a checkpoint"},
		{"bad version", func(b []byte) []byte { b[4] ^= 0xff; return b }, "format version"},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "checksum"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-4] }, "torn write"},
		{"truncated header", func(b []byte) []byte { return b[:10] }, "too short"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			err := ReadFile(path, decodeNothing)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("corruption %q: got error %v, want substring %q", tc.name, err, tc.wantSub)
			}
		})
	}
}

// TestFileRejectsUnconsumedPayload: a decode that leaves payload bytes
// unread indicates a layout drift and must fail.
func TestFileRejectsUnconsumedPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.ckpt")
	if _, err := WriteFile(path, func(w *Writer) error {
		w.U64(1)
		w.U64(2)
		return w.Err()
	}); err != nil {
		t.Fatal(err)
	}
	err := ReadFile(path, func(r *Reader) error {
		r.U64() // leaves the second value unread
		return r.Err()
	})
	if err == nil || !strings.Contains(err.Error(), "unread") {
		t.Fatalf("partial decode accepted: %v", err)
	}
}

// TestWriteFileMissingDir: checkpointing into a nonexistent directory fails
// cleanly (the sim layer surfaces this as an aborted run).
func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "test.ckpt")
	if _, err := WriteFile(path, func(w *Writer) error { return nil }); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

// TestWriteFileStreams: the streamed WriteFile must not buffer the payload
// in memory. Writing a payload much larger than the allocation bound proves
// the bytes go straight to disk through the fixed-size bufio window.
func TestWriteFileStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.ckpt")
	const chunkSize = 1 << 16
	const chunks = 256 // 16 MiB payload
	chunk := make([]byte, chunkSize)
	for i := range chunk {
		chunk[i] = byte(i)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := WriteFile(path, func(w *Writer) error {
		for i := 0; i < chunks; i++ {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
		}
		return w.Err()
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	const payload = chunkSize * chunks
	if want := int64(payload) + 20; n != want {
		t.Fatalf("reported size %d, want %d", n, want)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > payload/4 {
		t.Errorf("WriteFile allocated %d bytes for a %d-byte payload; payload is being buffered", allocated, payload)
	}

	// The streamed file must still round-trip through the CRC check.
	total := 0
	if err := ReadFile(path, func(r *Reader) error {
		buf := make([]byte, chunkSize)
		for i := 0; i < chunks; i++ {
			m, err := io.ReadFull(r, buf)
			total += m
			if err != nil {
				return err
			}
			if !bytes.Equal(buf, chunk) {
				return fmt.Errorf("chunk %d corrupted", i)
			}
		}
		return r.Err()
	}); err != nil {
		t.Fatal(err)
	}
	if total != payload {
		t.Errorf("read back %d bytes, want %d", total, payload)
	}
}

// TestSweepOrphans: orphaned .tmp-* files from a crash mid-install are
// removed; real checkpoints and unrelated files survive.
// TestAtomicWriteFile: the helper installs a new file, replaces an existing
// one, and leaves no temp file behind when the install fails.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	for _, want := range []string{"first", "second, longer payload"} {
		if err := AtomicWriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("file holds %q, want %q", got, want)
		}
	}
	// A non-empty directory at the target makes the rename fail after the
	// temp file was written.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(blocked, []byte("data")); err == nil {
		t.Fatal("install over a non-empty directory succeeded")
	}
	if err := AtomicWriteFile(filepath.Join(dir, "missing", "f"), []byte("data")); err == nil {
		t.Fatal("install into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed install left %s behind", e.Name())
		}
	}
}

func TestSweepOrphans(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "shard-0001.packed.ckpt")
	if _, err := WriteFile(ckpt, func(w *Writer) error {
		w.U64(7)
		return w.Err()
	}); err != nil {
		t.Fatal(err)
	}
	orphans := []string{
		"shard-0001.packed.ckpt.tmp-123456",
		"cell-ab12.ckpt.tmp-9",
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}

	removed, err := SweepOrphans(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(orphans) {
		t.Errorf("swept %d files, want %d", removed, len(orphans))
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the sweep", name)
		}
	}
	for _, path := range []string{ckpt, keep} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("sweep removed non-orphan %s: %v", path, err)
		}
	}
	var got uint64
	if err := ReadFile(ckpt, func(r *Reader) error {
		got = r.U64()
		return r.Err()
	}); err != nil || got != 7 {
		t.Errorf("checkpoint unreadable after sweep: %v (got %d)", err, got)
	}

	// A missing directory is not an error — startup sweeps run before the
	// checkpoint directory may have been created.
	if n, err := SweepOrphans(filepath.Join(dir, "missing")); err != nil || n != 0 {
		t.Errorf("missing dir: got (%d, %v), want (0, nil)", n, err)
	}
}

// TestNestedReadWrite: the Writer/Reader io pass-throughs let layered
// Snapshot/Restore sections share one stream with codec fields around them.
func TestNestedReadWrite(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Tag("outer")
	if _, err := w.Write([]byte("raw-section")); err != nil {
		t.Fatal(err)
	}
	w.U32(99)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Expect("outer")
	raw := make([]byte, len("raw-section"))
	if _, err := r.Read(raw); err != nil {
		t.Fatal(err)
	}
	if string(raw) != "raw-section" {
		t.Errorf("nested section: got %q", raw)
	}
	if got := r.U32(); got != 99 {
		t.Errorf("field after nested section: got %d", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}
