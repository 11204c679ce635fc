// Package fixdec exercises the decorator analyzer: named struct types that
// embed the wl.Scheme interface and declare their own Write must declare
// WriteRun, WriteSweep, CheckInvariants, Snapshot and Restore too, or the
// embedded scheme's promoted methods serve those paths without the
// decorator's interception.
package fixdec

import (
	"io"

	"twl/internal/wl"
)

// Leaky embeds wl.Scheme and overrides Write but declares none of the other
// intercepted methods: five findings, one per missing method. Leaky still
// satisfies wl.Scheme through promotion, which is why the rule looks at
// declared methods.
type Leaky struct{ wl.Scheme }

func (d *Leaky) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }

// Partial intercepts the bulk paths but not CheckInvariants, Snapshot or
// Restore: three findings.
type Partial struct{ wl.Scheme }

func (d *Partial) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }
func (d *Partial) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteRun(la, tag, n)
}
func (d *Partial) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteSweep(la, tag, n)
}

// Complete intercepts every path: clean.
type Complete struct{ wl.Scheme }

func (d *Complete) Write(la int, tag uint64) wl.Cost { return d.Scheme.Write(la, tag) }
func (d *Complete) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteRun(la, tag, n)
}
func (d *Complete) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	return d.Scheme.WriteSweep(la, tag, n)
}
func (d *Complete) CheckInvariants() error       { return d.Scheme.CheckInvariants() }
func (d *Complete) Snapshot(out io.Writer) error { return d.Scheme.Snapshot(out) }
func (d *Complete) Restore(in io.Reader) error   { return d.Scheme.Restore(in) }

// Forwarder embeds wl.Scheme but declares no Write of its own — it
// interposes on nothing, so the rule does not apply: clean.
type Forwarder struct {
	wl.Scheme
	label string
}

// Holder has a plain (non-embedded) scheme field and its own Write; not a
// promotion hazard, so the rule does not apply: clean.
type Holder struct {
	inner wl.Scheme
}

func (h *Holder) Write(la int, tag uint64) wl.Cost { return h.inner.Write(la, tag) }
