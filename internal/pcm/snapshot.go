package pcm

import (
	"fmt"
	"io"
	"math"

	"twl/internal/snap"
)

// Snapshot serializes the device's mutable state: wear counters, payload
// tags, traffic totals, the failure log with its handled prefix, the
// retirement redirect table and the min-remaining watermark. Geometry,
// timing and the endurance map are construction inputs and are not
// persisted — Restore requires a device built with the same ones.
//
// The watermark (slack/slackAt/slackValid) must be persisted even though it
// is only a cache: MinRemainingAtLeast's conservative-"no" path depends on
// when the last rescan happened, so dropping it would let a resumed run
// answer a horizon query differently from the uninterrupted run.
//
// The wire format predates the uint32 device layout: wear counters go out
// as a length-prefixed uint64 stream, so checkpoints written when the
// device stored 64-bit wear still restore.
func (d *Device) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U32(uint32(len(d.wear)))
	for _, wv := range d.wear {
		sw.U64(uint64(wv))
	}
	sw.U64s(d.payload)
	sw.U64(d.writes)
	sw.U64(d.reads)
	sw.Ints(d.failedLog)
	sw.Int(d.acked)
	sw.Bool(d.redirect != nil)
	if d.redirect != nil {
		sw.Ints(d.redirect)
	}
	sw.U64(d.slack)
	sw.U64(d.slackAt)
	sw.Bool(d.slackValid)
	return sw.Err()
}

// Restore loads state written by Snapshot into a device with identical
// geometry (the wear/payload lengths are validated against it). The
// isTarget index is derived from the restored redirect table rather than
// persisted.
func (d *Device) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	if err := restoreWear(sr, d.wear); err != nil {
		return err
	}
	sr.U64sInto(d.payload)
	d.writes = sr.U64()
	d.reads = sr.U64()
	d.failedLog = sr.IntSlice(d.geom.TotalPages())
	d.acked = sr.Int()
	d.redirect = nil
	d.isTarget = nil
	if sr.Bool() {
		redirect := make([]int, d.geom.TotalPages())
		sr.IntsInto(redirect)
		isTarget := make([]bool, len(redirect))
		if sr.Err() == nil {
			for pp, t := range redirect {
				if t < 0 {
					continue
				}
				if t < d.geom.Pages || t >= len(redirect) {
					return fmt.Errorf("pcm: checkpoint redirect %d -> %d outside spare range", pp, t)
				}
				isTarget[t] = true
			}
			d.redirect = redirect
			d.isTarget = isTarget
		}
	}
	d.slack = sr.U64()
	d.slackAt = sr.U64()
	d.slackValid = sr.Bool()
	return sr.Err()
}

// restoreWear reads the uint64-wire wear stream into the uint32 counters,
// rejecting values the counters cannot hold (a checkpoint from a 64-bit
// layout whose wear outgrew uint32).
func restoreWear(sr *snap.Reader, dst []uint32) error {
	if got := sr.U32(); sr.Err() == nil && int(got) != len(dst) {
		return fmt.Errorf("pcm: checkpoint wear length %d does not match %d pages", got, len(dst))
	}
	for i := range dst {
		v := sr.U64()
		if v > math.MaxUint32 {
			return fmt.Errorf("pcm: checkpoint wear %d at page %d exceeds uint32", v, i)
		}
		dst[i] = uint32(v)
	}
	return sr.Err()
}
