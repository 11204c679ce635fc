package wl

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"twl/internal/obs"
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

// fakeRetirement installs a retirement factory that wraps with a reporter
// layer and records each call in order, restoring the linked-in factory
// (none, inside this package's tests) afterwards.
func fakeRetirement(t *testing.T, order *[]string, err error) {
	t.Helper()
	old := retireFactory
	t.Cleanup(func() { retireFactory = old })
	RegisterRetirementFactory(func(inner Scheme, _ RetireConfig) (Scheme, error) {
		*order = append(*order, "retire")
		if err != nil {
			return nil, err
		}
		return &reporterLayer{Scheme: inner}, nil
	})
}

// TestComposeAppliesInOrder: first option innermost.
func TestComposeAppliesInOrder(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	var order []string
	fakeRetirement(t, &order, nil)
	s, err := Compose(inner, WithRetirement(RetireConfig{}), WithInstrumentation(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatalf("retirement factory calls = %v, want one", order)
	}
	if _, ok := s.(*instrumented); !ok {
		t.Fatalf("outermost layer = %T, want the instrumentation", s)
	}
	mid := s.(Unwrapper).Unwrap()
	if _, ok := mid.(*reporterLayer); !ok {
		t.Fatalf("middle layer = %T, want the retirement", mid)
	}
	if mid.(Unwrapper).Unwrap() != Scheme(inner) {
		t.Fatal("innermost layer is not the scheme")
	}
	if s.Name() != "cap" {
		t.Fatalf("composed scheme name = %q", s.Name())
	}
}

// TestComposeErrors: option and wrapper failures surface.
func TestComposeErrors(t *testing.T) {
	dev := testDevice(t, 8)
	inner := newCapScheme(dev)
	if _, err := Compose(inner, WithInstrumentation(nil)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil registry err = %v, want ErrBadConfig", err)
	}
	old := retireFactory
	retireFactory = nil
	_, err := Compose(inner, WithRetirement(RetireConfig{}))
	retireFactory = old
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unlinked retirement err = %v, want ErrBadConfig", err)
	}
	boom := errors.New("boom")
	var order []string
	fakeRetirement(t, &order, boom)
	if _, err := Compose(inner, WithRetirement(RetireConfig{})); !errors.Is(err, boom) {
		t.Fatalf("wrapper failure err = %v, want boom", err)
	}
}

// TestRegistryBuildWithOptions: Build is New plus decorator composition.
func TestRegistryBuildWithOptions(t *testing.T) {
	r := NewRegistry()
	r.MustAdd(Registration{Name: "Fake", New: fakeFactory("Fake")})
	dev := testDevice(t, 8)
	reg := obs.NewRegistry()
	s, err := r.Build("fake", dev, 1, WithInstrumentation(reg))
	if err != nil {
		t.Fatal(err)
	}
	s.Write(0, 1)
	writes := reg.Counter("twl_scheme_requests_total", obs.L("scheme", "Fake"), obs.L("op", "write"))
	if writes.Value() != 1 || s.Name() != "Fake" {
		t.Fatalf("Build did not apply the decorator (writes=%d, name=%q)", writes.Value(), s.Name())
	}
	if _, err := r.Build("bogus", dev, 1); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("Build unknown scheme err = %v", err)
	}
}
