package wl

import (
	"bytes"
	"io"
	"testing"

	"twl/internal/pcm"
)

// capScheme is fakeScheme with probes on every contract method beyond the
// per-request paths, so tests can verify which implementation ran.
type capScheme struct {
	fakeScheme
	checked, snapped, restored, ran, swept bool
}

func newCapScheme(dev *pcm.Device) *capScheme {
	return &capScheme{fakeScheme: fakeScheme{name: "cap", dev: dev}}
}

func (c *capScheme) CheckInvariants() error { c.checked = true; return nil }
func (c *capScheme) Snapshot(io.Writer) error {
	c.snapped = true
	return nil
}
func (c *capScheme) Restore(io.Reader) error { c.restored = true; return nil }
func (c *capScheme) WriteRun(la int, tag uint64, n int) (Cost, int) {
	c.ran = true
	return Cost{DeviceWrites: 1}, n
}
func (c *capScheme) WriteSweep(la int, tag uint64, n int) (Cost, int) {
	c.swept = true
	return Cost{DeviceWrites: 1}, n
}

// passBody is a decorator body that overrides nothing.
type passBody struct{ Scheme }

// fullBody is a decorator body overriding every contract method beyond the
// per-request paths, with probes to verify that the composite prefers the
// body's implementations.
type fullBody struct {
	Scheme
	checked, snapped, ran, swept bool
}

func (b *fullBody) CheckInvariants() error   { b.checked = true; return nil }
func (b *fullBody) Snapshot(io.Writer) error { b.snapped = true; return nil }
func (b *fullBody) Restore(io.Reader) error  { return nil }
func (b *fullBody) WriteRun(la int, tag uint64, n int) (Cost, int) {
	b.ran = true
	return Cost{DeviceWrites: 1}, n
}
func (b *fullBody) WriteSweep(la int, tag uint64, n int) (Cost, int) {
	b.swept = true
	return Cost{DeviceWrites: 1}, n
}

// TestWrapPreservesExactCapabilities: the composite's method set is exactly
// the Scheme contract plus Unwrap, whatever the body implements — extension
// interfaces of the body (here a CapacityReporter and a MemoryReporter) do
// not leak onto it.
func TestWrapPreservesExactCapabilities(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	for _, body := range []Scheme{
		&passBody{Scheme: inner},
		&fullBody{Scheme: inner},
		&reporterBody{Scheme: inner},
	} {
		w := Wrap(body, inner)
		if _, ok := w.(Unwrapper); !ok {
			t.Errorf("%T: composite has no Unwrap link", body)
		}
		if _, ok := w.(CapacityReporter); ok {
			t.Errorf("%T: composite leaks CapacityReporter", body)
		}
		if _, ok := w.(MemoryReporter); ok {
			t.Errorf("%T: composite leaks MemoryReporter", body)
		}
	}
}

// TestWrapForwardsToInner: when the body does not override a method the
// composite serves it from the inner scheme the body embeds.
func TestWrapForwardsToInner(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	w := Wrap(&passBody{Scheme: inner}, inner)
	if err := w.CheckInvariants(); err != nil || !inner.checked {
		t.Fatal("CheckInvariants did not reach the inner scheme")
	}
	if err := w.Snapshot(&bytes.Buffer{}); err != nil || !inner.snapped {
		t.Fatal("Snapshot did not reach the inner scheme")
	}
	if err := w.Restore(&bytes.Buffer{}); err != nil || !inner.restored {
		t.Fatal("Restore did not reach the inner scheme")
	}
	if _, n := w.WriteRun(0, 1, 3); n != 3 || !inner.ran {
		t.Fatal("WriteRun did not reach the inner scheme")
	}
	if _, n := w.WriteSweep(0, 1, 3); n != 3 || !inner.swept {
		t.Fatal("WriteSweep did not reach the inner scheme")
	}
}

// TestWrapPrefersBodyOverrides: when the body overrides a method, the
// composite dispatches to the body.
func TestWrapPrefersBodyOverrides(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	body := &fullBody{Scheme: inner}
	w := Wrap(body, inner)
	w.CheckInvariants()
	w.Snapshot(&bytes.Buffer{})
	w.WriteRun(0, 1, 3)
	w.WriteSweep(0, 1, 3)
	if !body.checked || !body.snapped || !body.ran || !body.swept {
		t.Fatalf("body overrides skipped: %+v", body)
	}
	if inner.checked || inner.snapped || inner.ran || inner.swept {
		t.Fatalf("inner reached despite body overrides: checked=%v snapped=%v ran=%v swept=%v",
			inner.checked, inner.snapped, inner.ran, inner.swept)
	}
}

// TestWrapLogicalPages: composites forward the inner scheme's logical page
// count rather than widening it back to the device size.
func TestWrapLogicalPages(t *testing.T) {
	dev := testDevice(t, 8)
	plain := newCapScheme(dev)
	if got := Wrap(&passBody{Scheme: plain}, plain).LogicalPages(); got != 8 {
		t.Fatalf("LogicalPages = %d, want device pages 8", got)
	}
	scoped := &scopedScheme{Scheme: plain}
	if got := Wrap(&passBody{Scheme: scoped}, scoped).LogicalPages(); got != 7 {
		t.Fatalf("LogicalPages = %d, want inner's 7", got)
	}
}

// scopedScheme reserves one physical page for itself, StartGap-style.
type scopedScheme struct{ Scheme }

func (s *scopedScheme) LogicalPages() int { return s.Device().Pages() - 1 }

// TestWrapUnwrapChain: Unwrap links let stack-walking helpers find an
// extension interface on a layer that declares its own Unwrap, through any
// number of Wrap layers above it.
func TestWrapUnwrapChain(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	rep := &reporterLayer{Scheme: inner}
	w := Wrap(&passBody{Scheme: rep}, rep)
	if got := w.(Unwrapper).Unwrap(); got != Scheme(rep) {
		t.Fatal("Unwrap did not return the wrapped scheme")
	}
	r, ok := AsCapacityReporter(w)
	if !ok {
		t.Fatal("AsCapacityReporter did not find the reporter below a Wrap layer")
	}
	if got := r.CapacityStats(); got.SparePages != 42 {
		t.Fatalf("reporter stats = %+v, want SparePages 42", got)
	}
	// A second layer on top still reaches the reporter.
	outer := Wrap(&passBody{Scheme: w}, w)
	if _, ok := AsCapacityReporter(outer); !ok {
		t.Fatal("AsCapacityReporter did not walk through two layers")
	}
	// A bare scheme has no reporter and no Unwrap link.
	if _, ok := AsCapacityReporter(inner); ok {
		t.Fatal("AsCapacityReporter invented a reporter on a bare scheme")
	}
}

// reporterBody is a decorator body with a CapacityReporter extension.
type reporterBody struct{ Scheme }

func (b *reporterBody) CapacityStats() CapacityStats { return CapacityStats{SparePages: 42} }

// reporterLayer is reporterBody declaring its own Unwrap, as the retire
// decorator does, so it is used bare rather than through Wrap.
type reporterLayer reporterBody

func (l *reporterLayer) CapacityStats() CapacityStats { return CapacityStats{SparePages: 42} }
func (l *reporterLayer) Unwrap() Scheme               { return l.Scheme }
