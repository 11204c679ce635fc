package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"twl"
	"twl/internal/attack"
	"twl/internal/sim"
	"twl/internal/wl"
)

// The traced run records spans from this package only, around calls into
// each layer's public functions. Cell-level spans (workload → cell →
// {setup, simulate}, job → HTTP request) are kept individually; the ~10^9
// per-call boundaries inside a simulate span are aggregated per cell and
// layer instead — every call is counted, and a pseudo-random 1 in
// sampleEvery calls is timed.

// sampleEvery is the timing sample rate of per-call boundaries. Random, not
// periodic, so a scheme event that recurs every k writes is not aliased.
const sampleEvery = 16

// clockCost is the measured cost of one nanotime pair, subtracted from every
// sampled interval (set once by calibrateClock).
var clockCost int64

func calibrateClock() {
	var ds []float64
	for i := 0; i < 20001; i++ {
		t0 := nanotime()
		t1 := nanotime()
		ds = append(ds, float64(t1-t0))
	}
	clockCost = int64(median(ds))
}

// layerTimer aggregates one call boundary: every call counted, sampled calls
// timed.
type layerTimer struct {
	Calls   uint64 `json:"calls"`
	Sampled uint64 `json:"sampled"`
	NS      int64  `json:"sampled_ns"`
	rng     uint64
}

func newLayerTimer(seed uint64) layerTimer { return layerTimer{rng: seed | 1} }

// tick counts a call and reports whether to time it.
func (t *layerTimer) tick() bool {
	t.Calls++
	x := t.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	t.rng = x
	return x%sampleEvery == 0
}

func (t *layerTimer) record(d int64) {
	t.Sampled++
	if d -= clockCost; d > 0 {
		t.NS += d
	}
}

// EstNS is the estimated total time in the boundary: the sampled mean times
// the call count.
func (t *layerTimer) EstNS() float64 {
	if t.Sampled == 0 {
		return 0
	}
	return float64(t.NS) * float64(t.Calls) / float64(t.Sampled)
}

// timedScheme is a wl.Wrap decorator body timing the scheme entry points.
// Wrap exposes WriteRun/WriteSweep only when the wrapped scheme has them and
// forwards Checker/Snapshotter untouched, so the traced run keeps exactly
// the wrapped scheme's path through sim.RunLifetime.
type timedScheme struct {
	wl.Scheme
	rw                      wl.RunWriter
	sw                      wl.SweepWriter
	write, read, run, sweep layerTimer
}

func newTimedScheme(s wl.Scheme) (*timedScheme, wl.Scheme) {
	b := &timedScheme{
		Scheme: s,
		write:  newLayerTimer(0x1234567),
		read:   newLayerTimer(0x2345678),
		run:    newLayerTimer(0x3456789),
		sweep:  newLayerTimer(0x456789a),
	}
	b.rw, _ = s.(wl.RunWriter)
	b.sw, _ = s.(wl.SweepWriter)
	return b, wl.Wrap(b, s)
}

func (b *timedScheme) Write(la int, tag uint64) wl.Cost {
	if !b.write.tick() {
		return b.Scheme.Write(la, tag)
	}
	t0 := nanotime()
	c := b.Scheme.Write(la, tag)
	b.write.record(nanotime() - t0)
	return c
}

func (b *timedScheme) Read(la int) (uint64, wl.Cost) {
	if !b.read.tick() {
		return b.Scheme.Read(la)
	}
	t0 := nanotime()
	v, c := b.Scheme.Read(la)
	b.read.record(nanotime() - t0)
	return v, c
}

func (b *timedScheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	if !b.run.tick() {
		return b.rw.WriteRun(la, tag, n)
	}
	t0 := nanotime()
	c, k := b.rw.WriteRun(la, tag, n)
	b.run.record(nanotime() - t0)
	return c, k
}

func (b *timedScheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	if !b.sweep.tick() {
		return b.sw.WriteSweep(la, tag, n)
	}
	t0 := nanotime()
	c, k := b.sw.WriteSweep(la, tag, n)
	b.sweep.record(nanotime() - t0)
	return c, k
}

func (b *timedScheme) estNS() float64 {
	return b.write.EstNS() + b.read.EstNS() + b.run.EstNS() + b.sweep.EstNS()
}

// srcTimes aggregates the source boundary. bulkWrites is the number of
// demand writes the source committed through NextRun/NextSweep; bulkSource
// says whether the wrapped source has either method.
type srcTimes struct {
	next, bulk, observe layerTimer
	bulkWrites          uint64
	bulkSource          bool
}

func (t *srcTimes) estNS() float64 { return t.next.EstNS() + t.bulk.EstNS() + t.observe.EstNS() }

// The source forwarders. Each type exposes exactly one combination of the
// optional source interfaces (sim.RunSource, sim.SweepSource,
// sim.FeedbackObserver, wl.Snapshotter), so sim.RunLifetime picks the same
// loop for the forwarder as for the source it wraps.
type tsrc struct {
	in sim.Source
	t  *srcTimes
}

func (s tsrc) Next(fb attack.Feedback) (int, bool) {
	if !s.t.next.tick() {
		return s.in.Next(fb)
	}
	t0 := nanotime()
	a, w := s.in.Next(fb)
	s.t.next.record(nanotime() - t0)
	return a, w
}

type tsrcRun struct {
	tsrc
	r sim.RunSource
}

func (s tsrcRun) NextRun(fb attack.Feedback) (int, bool, int) {
	var a, n int
	var w bool
	if s.t.bulk.tick() {
		t0 := nanotime()
		a, w, n = s.r.NextRun(fb)
		s.t.bulk.record(nanotime() - t0)
	} else {
		a, w, n = s.r.NextRun(fb)
	}
	if w {
		s.t.bulkWrites += uint64(n)
	}
	return a, w, n
}

type tsrcSweep struct {
	tsrc
	r sim.SweepSource
}

func (s tsrcSweep) NextSweep(fb attack.Feedback) (int, bool, int) {
	var a, n int
	var w bool
	if s.t.bulk.tick() {
		t0 := nanotime()
		a, w, n = s.r.NextSweep(fb)
		s.t.bulk.record(nanotime() - t0)
	} else {
		a, w, n = s.r.NextSweep(fb)
	}
	if w {
		s.t.bulkWrites += uint64(n)
	}
	return a, w, n
}

type tsrcRunObs struct {
	tsrcRun
	o sim.FeedbackObserver
}

func (s tsrcRunObs) Observe(fb attack.Feedback, n int) {
	if !s.t.observe.tick() {
		s.o.Observe(fb, n)
		return
	}
	t0 := nanotime()
	s.o.Observe(fb, n)
	s.t.observe.record(nanotime() - t0)
}

type snapFwd struct{ sn wl.Snapshotter }

func (s snapFwd) Snapshot(w io.Writer) error { return s.sn.Snapshot(w) }
func (s snapFwd) Restore(r io.Reader) error  { return s.sn.Restore(r) }

type (
	tsrcSnap struct {
		tsrc
		snapFwd
	}
	tsrcRunSnap struct {
		tsrcRun
		snapFwd
	}
	tsrcSweepSnap struct {
		tsrcSweep
		snapFwd
	}
	tsrcRunObsSnap struct {
		tsrcRunObs
		snapFwd
	}
)

// wrapSource returns a timing forwarder with exactly src's optional
// interfaces. Every facade source (sim.FromAttack, sim.FromWorkload) is a
// Snapshotter, so only the four Snapshotter combinations exist; any other
// set is an error rather than a silent change of path.
func wrapSource(src sim.Source) (sim.Source, *srcTimes, error) {
	rs, isRun := src.(sim.RunSource)
	ss, isSweep := src.(sim.SweepSource)
	fo, isObs := src.(sim.FeedbackObserver)
	sn, isSnap := src.(wl.Snapshotter)
	t := &srcTimes{
		next:       newLayerTimer(0x56789ab),
		bulk:       newLayerTimer(0x6789abc),
		observe:    newLayerTimer(0x789abcd),
		bulkSource: isRun || isSweep,
	}
	base, sf := tsrc{in: src, t: t}, snapFwd{sn}
	switch {
	case !isSnap, isRun && isSweep, isObs && !isRun:
		return nil, nil, fmt.Errorf("perfbench: unsupported source capability set %T", src)
	case isRun && isObs:
		return tsrcRunObsSnap{tsrcRunObs{tsrcRun{base, rs}, fo}, sf}, t, nil
	case isRun:
		return tsrcRunSnap{tsrcRun{base, rs}, sf}, t, nil
	case isSweep:
		return tsrcSweepSnap{tsrcSweep{base, ss}, sf}, t, nil
	}
	return tsrcSnap{base, sf}, t, nil
}

// span is one recorded interval. Parent is the index of the enclosing span
// (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   string `json:"cell,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Layers holds the per-call aggregates of a simulate span.
	Layers map[string]*layerTimer `json:"layers,omitempty"`
	// Writes is the demand-write count served inside a simulate span.
	Writes uint64 `json:"demand_writes,omitempty"`
}

// spanLog keeps every span in memory until the run ends. A nil log records
// nothing, so untraced runs share the traced code path.
type spanLog struct{ spans []*span }

func (l *spanLog) begin(parent int, name, cell string) *span {
	if l == nil {
		return nil
	}
	s := &span{ID: len(l.spans), Parent: parent, Name: name, Cell: cell, Start: nanotime()}
	l.spans = append(l.spans, s)
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = nanotime()
	}
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanID is s's id, or -1 (no parent) for a nil span.
func spanID(s *span) int {
	if s == nil {
		return -1
	}
	return s.ID
}

// write stores the spans as JSON under dir and returns the file path.
func (l *spanLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// logicalPages is the demand-addressable page count of s: schemes that keep
// pages for themselves (StartGap's gap, RBSG's per-region gaps) expose a
// smaller space than the device, and traffic must stay inside it.
func logicalPages(s twl.Scheme) int {
	if z, ok := s.(interface{ LogicalPages() int }); ok {
		return z.LogicalPages()
	}
	return s.Device().Pages()
}
