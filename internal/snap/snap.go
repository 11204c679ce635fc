// Package snap is the checkpoint codec: a little-endian binary
// writer/reader pair with latched errors, plus a versioned, checksummed,
// atomically-replaced file container. The simulator's checkpoint/resume
// layer (internal/sim) serializes every stateful component through this
// package so a resumed lifetime run is bit-identical to an uninterrupted
// one.
//
// Encoding rules:
//
//   - All integers are fixed-width little-endian; int is written as int64.
//   - Slices are length-prefixed (uint32). Fixed-size destinations
//     (U64sInto and friends) require the stored length to match the
//     destination exactly, so a checkpoint taken on a differently-sized
//     system fails loudly instead of partially restoring.
//   - Sections are delimited by string tags (Tag/Expect), so a decode that
//     drifts out of sync reports the section where it happened.
//
// Errors are latched: after the first failure every subsequent operation is
// a no-op (reads return zeros), and Err reports the first failure. Callers
// write or read a whole structure and check once.
package snap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Writer serializes primitives onto an io.Writer with error latching.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
	}
}

// Write implements io.Writer by delegating to the underlying stream, so a
// layered encoder (device/scheme/source Snapshot methods taking io.Writer)
// can append its section of a checkpoint through the same Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

// U16 writes a uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 writes a float64 by its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.write([]byte(s))
}

// Tag writes a section tag; Reader.Expect verifies it on decode.
func (w *Writer) Tag(tag string) { w.String(tag) }

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(vs []uint32) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U32(v)
	}
}

// U16s writes a length-prefixed []uint16.
func (w *Writer) U16s(vs []uint16) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.U16(v)
	}
}

// U8s writes a length-prefixed []uint8.
func (w *Writer) U8s(vs []uint8) {
	w.U32(uint32(len(vs)))
	w.write(vs)
}

// Ints writes a length-prefixed []int (as int64s).
func (w *Writer) Ints(vs []int) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// Reader deserializes primitives from an io.Reader with error latching.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

// fail latches a decode error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

func (r *Reader) read(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = fmt.Errorf("snap: truncated input: %w", err)
		return false
	}
	return true
}

// Read implements io.Reader by delegating to the underlying stream, so a
// layered decoder (device/scheme/source Restore methods taking io.Reader)
// can consume its section of a checkpoint through the same Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.r.Read(p)
	if err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if !r.read(r.buf[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(r.buf[:2])
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string of at most maxLen bytes.
func (r *Reader) String(maxLen int) string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if int(n) > maxLen {
		r.fail("string length %d exceeds limit %d", n, maxLen)
		return ""
	}
	b := make([]byte, n)
	if !r.read(b) {
		return ""
	}
	return string(b)
}

// maxTagLen bounds section tags; tags are short literals.
const maxTagLen = 64

// Expect reads a section tag and latches an error unless it matches want.
func (r *Reader) Expect(want string) {
	got := r.String(maxTagLen)
	if r.err == nil && got != want {
		r.fail("section tag mismatch: got %q, want %q", got, want)
	}
}

// sliceLen reads and validates a fixed-destination slice length.
func (r *Reader) sliceLen(want int, what string) bool {
	n := r.U32()
	if r.err != nil {
		return false
	}
	if int(n) != want {
		r.fail("%s length %d does not match destination %d", what, n, want)
		return false
	}
	return true
}

// U64sInto fills dst from a slice written by U64s; the stored length must
// equal len(dst).
func (r *Reader) U64sInto(dst []uint64) {
	if !r.sliceLen(len(dst), "uint64 slice") {
		return
	}
	for i := range dst {
		dst[i] = r.U64()
	}
}

// U32sInto fills dst from a slice written by U32s.
func (r *Reader) U32sInto(dst []uint32) {
	if !r.sliceLen(len(dst), "uint32 slice") {
		return
	}
	for i := range dst {
		dst[i] = r.U32()
	}
}

// U16sInto fills dst from a slice written by U16s.
func (r *Reader) U16sInto(dst []uint16) {
	if !r.sliceLen(len(dst), "uint16 slice") {
		return
	}
	for i := range dst {
		dst[i] = r.U16()
	}
}

// U8sInto fills dst from a slice written by U8s.
func (r *Reader) U8sInto(dst []uint8) {
	if !r.sliceLen(len(dst), "uint8 slice") {
		return
	}
	r.read(dst)
}

// IntsInto fills dst from a slice written by Ints.
func (r *Reader) IntsInto(dst []int) {
	if !r.sliceLen(len(dst), "int slice") {
		return
	}
	for i := range dst {
		dst[i] = r.Int()
	}
}

// IntSlice reads a variable-length []int of at most maxLen entries (for
// state whose size is data-dependent, like first-touch orderings).
func (r *Reader) IntSlice(maxLen int) []int {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if int(n) > maxLen {
		r.fail("int slice length %d exceeds limit %d", n, maxLen)
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// F64sInto fills dst from a slice written by F64s.
func (r *Reader) F64sInto(dst []float64) {
	if !r.sliceLen(len(dst), "float64 slice") {
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// File container. A checkpoint file is:
//
//	magic   uint32  "TWLS"
//	version uint32  format version (Version)
//	length  uint64  payload byte count
//	crc     uint32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// WriteFile streams the payload straight into a temp file in the
// destination directory — through a buffered writer and a running CRC-32C,
// so the payload is never held in memory — then backfills the header,
// fsyncs the file and renames it over the target. A crash mid-checkpoint
// leaves the previous checkpoint intact (and at worst an orphaned temp
// file; see SweepOrphans), and a torn write is caught by the length/CRC
// check on load.

// Magic identifies a checkpoint file.
const Magic uint32 = 0x534C5754 // "TWLS" little-endian

// Version is the current checkpoint format version. Loaders reject other
// versions rather than guessing at layouts. v2: the inconsistent attack
// stream additionally persists its deferred-feedback debt (owed).
const Version uint32 = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hdrLen is the fixed size of the file header (magic, version, length, crc).
const hdrLen = 4 + 4 + 8 + 4

// crcCountWriter passes writes through to an underlying writer while
// maintaining a running CRC-32C and byte count, so WriteFile can stream an
// arbitrarily large payload without ever holding it in memory.
type crcCountWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (c *crcCountWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += uint64(n)
	return n, err
}

// WriteFile atomically writes a checkpoint file at path whose payload is
// produced by encode. The payload is streamed to the temp file as encode
// produces it (a full-geometry checkpoint would otherwise double the
// engine's resident memory); the length/CRC header is backfilled once the
// payload size and checksum are known, before the fsync + rename install.
// It returns the total file size in bytes.
func WriteFile(path string, encode func(*Writer) error) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("snap: create temp checkpoint: %w", err)
	}
	cleanup := func() { _ = os.Remove(tmp.Name()) }
	fail := func(stage string, err error) (int64, error) {
		_ = tmp.Close()
		cleanup()
		return 0, fmt.Errorf("snap: %s checkpoint: %w", stage, err)
	}

	// Reserve the header, stream the payload behind it through a buffered
	// running-CRC writer, then backfill the real header.
	var zero [hdrLen]byte
	if _, err := tmp.Write(zero[:]); err != nil {
		return fail("write", err)
	}
	cw := &crcCountWriter{w: tmp}
	bw := bufio.NewWriterSize(cw, 1<<16)
	w := NewWriter(bw)
	if err := encode(w); err != nil {
		_ = tmp.Close()
		cleanup()
		return 0, fmt.Errorf("snap: encode: %w", err)
	}
	if err := w.Err(); err != nil {
		_ = tmp.Close()
		cleanup()
		return 0, fmt.Errorf("snap: encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fail("write", err)
	}

	var hdr bytes.Buffer
	hw := NewWriter(&hdr)
	hw.U32(Magic)
	hw.U32(Version)
	hw.U64(cw.n)
	hw.U32(cw.crc)
	if err := hw.Err(); err != nil {
		return fail("encode header of", err)
	}
	if _, err := tmp.WriteAt(hdr.Bytes(), 0); err != nil {
		return fail("write header of", err)
	}
	if err := tmp.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, fmt.Errorf("snap: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		cleanup()
		return 0, fmt.Errorf("snap: install checkpoint: %w", err)
	}
	return int64(hdrLen) + int64(cw.n), nil
}

// AtomicWriteFile installs data at path crash-safely: it writes a temp file
// in the destination directory, fsyncs and closes it, then renames it over
// path, so a crash leaves either the previous file or the complete new one
// — never an empty or torn one. The temp file is removed on every error
// path; a process killed mid-install can still orphan one (SweepOrphans).
func AtomicWriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// SweepOrphans removes orphaned checkpoint temp files (the "<name>.tmp-*"
// files WriteFile creates and renames away) left in dir by a process killed
// mid-install, so long-lived resume directories do not accumulate garbage.
// It must not run concurrently with WriteFile calls targeting the same
// directory — call it at startup, before any checkpoint writer is live. It
// returns the number of files removed. A missing directory sweeps zero
// files without error.
func SweepOrphans(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("snap: sweep orphans: %w", err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return removed, fmt.Errorf("snap: sweep orphans: %w", err)
		}
		removed++
	}
	return removed, nil
}

// ReadFile loads, verifies and decodes a checkpoint file written by
// WriteFile. decode must consume the payload exactly.
func ReadFile(path string, decode func(*Reader) error) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("snap: read checkpoint: %w", err)
	}
	if len(data) < hdrLen {
		return fmt.Errorf("snap: checkpoint %s too short (%d bytes)", path, len(data))
	}
	hr := NewReader(bytes.NewReader(data[:hdrLen]))
	if m := hr.U32(); m != Magic {
		return fmt.Errorf("snap: %s is not a checkpoint file (magic %#x)", path, m)
	}
	if v := hr.U32(); v != Version {
		return fmt.Errorf("snap: %s has format version %d, this build reads %d", path, v, Version)
	}
	length := hr.U64()
	crc := hr.U32()
	if err := hr.Err(); err != nil {
		return err
	}
	payload := data[hdrLen:]
	if uint64(len(payload)) != length {
		return fmt.Errorf("snap: %s payload is %d bytes, header declares %d (torn write?)",
			path, len(payload), length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return fmt.Errorf("snap: %s checksum mismatch: file %#x, computed %#x (corrupt checkpoint)",
			path, crc, got)
	}
	br := bytes.NewReader(payload)
	r := NewReader(br)
	if err := decode(r); err != nil {
		return fmt.Errorf("snap: decode %s: %w", path, err)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("snap: decode %s: %w", path, err)
	}
	if br.Len() != 0 {
		return fmt.Errorf("snap: decode %s left %d unread payload bytes", path, br.Len())
	}
	return nil
}
