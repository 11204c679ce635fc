package wl

import (
	"errors"
	"io"
	"strings"
	"testing"

	"twl/internal/pcm"
)

func testDevice(t *testing.T, pages int) *pcm.Device {
	t.Helper()
	end := make([]uint64, pages)
	for i := range end {
		end[i] = 1000
	}
	geom := pcm.Geometry{Pages: pages, PageSize: 4096, LineSize: 128, Ranks: 1, Banks: 1}
	dev, err := pcm.NewDevice(geom, pcm.DefaultTiming(), end)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// fakeScheme is a minimal Scheme for registry tests: stateless, with bulk
// writers that absorb nothing.
type fakeScheme struct {
	name string
	dev  *pcm.Device
}

func (f *fakeScheme) Name() string                            { return f.name }
func (f *fakeScheme) Write(int, uint64) Cost                  { return Cost{DeviceWrites: 1} }
func (f *fakeScheme) Read(int) (uint64, Cost)                 { return 0, Cost{DeviceReads: 1} }
func (f *fakeScheme) Stats() Stats                            { return Stats{} }
func (f *fakeScheme) Device() *pcm.Device                     { return f.dev }
func (f *fakeScheme) LogicalPages() int                       { return f.dev.Pages() }
func (f *fakeScheme) CheckInvariants() error                  { return nil }
func (f *fakeScheme) Snapshot(io.Writer) error                { return nil }
func (f *fakeScheme) Restore(io.Reader) error                 { return nil }
func (f *fakeScheme) WriteRun(int, uint64, int) (Cost, int)   { return Cost{}, 0 }
func (f *fakeScheme) WriteSweep(int, uint64, int) (Cost, int) { return Cost{}, 0 }

func fakeFactory(name string) Factory {
	return func(dev *pcm.Device, seed uint64) (Scheme, error) {
		return &fakeScheme{name: name, dev: dev}, nil
	}
}

func TestRegistryAddLookupNew(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(Registration{Name: "Alpha", Aliases: []string{"al"}, Order: 2, New: fakeFactory("Alpha")}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Registration{Name: "Beta", Order: 1, New: fakeFactory("Beta")}); err != nil {
		t.Fatal(err)
	}
	// Names come back in Order, not registration order.
	names := r.Names()
	if len(names) != 2 || names[0] != "Beta" || names[1] != "Alpha" {
		t.Fatalf("Names = %v, want [Beta Alpha]", names)
	}
	// Lookup is case-insensitive and covers aliases.
	for _, q := range []string{"Alpha", "ALPHA", "alpha", "al", "AL"} {
		reg, ok := r.Lookup(q)
		if !ok || reg.Name != "Alpha" {
			t.Fatalf("Lookup(%q) = %v, %v", q, reg.Name, ok)
		}
	}
	dev := testDevice(t, 8)
	s, err := r.Build("beta", dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Beta" {
		t.Fatalf("built %q, want Beta", s.Name())
	}
}

func TestRegistryDuplicateErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(Registration{Name: "X", Aliases: []string{"ex"}, New: fakeFactory("X")}); err != nil {
		t.Fatal(err)
	}
	// Same name, different case.
	err := r.Add(Registration{Name: "x", New: fakeFactory("x")})
	if !errors.Is(err, ErrDuplicateScheme) {
		t.Fatalf("duplicate name err = %v, want ErrDuplicateScheme", err)
	}
	// New name colliding with an existing alias.
	err = r.Add(Registration{Name: "EX", New: fakeFactory("EX")})
	if !errors.Is(err, ErrDuplicateScheme) {
		t.Fatalf("alias collision err = %v, want ErrDuplicateScheme", err)
	}
	// MustAdd panics on the same condition.
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd on duplicate did not panic")
		}
	}()
	r.MustAdd(Registration{Name: "X", New: fakeFactory("X")})
}

func TestRegistryInvalidRegistration(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(Registration{New: fakeFactory("")}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nameless registration err = %v, want ErrBadConfig", err)
	}
	if err := r.Add(Registration{Name: "NoFactory"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("factoryless registration err = %v, want ErrBadConfig", err)
	}
}

func TestRegistryUnknownName(t *testing.T) {
	r := NewRegistry()
	r.MustAdd(Registration{Name: "Only", New: fakeFactory("Only")})
	_, err := r.Build("bogus", testDevice(t, 8), 1)
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("unknown name err = %v, want ErrUnknownScheme", err)
	}
	if !strings.Contains(err.Error(), "Only") {
		t.Fatalf("error does not list known schemes: %v", err)
	}
}

// TestRegistryBuild: Build returns exactly what the factory built, and wraps
// a factory failure with the canonical scheme name.
func TestRegistryBuild(t *testing.T) {
	r := NewRegistry()
	r.MustAdd(Registration{Name: "Fake", New: fakeFactory("Fake")})
	boom := errors.New("boom")
	r.MustAdd(Registration{Name: "Broken", New: func(*pcm.Device, uint64) (Scheme, error) { return nil, boom }})
	dev := testDevice(t, 8)
	s, err := r.Build("fake", dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := s.(*fakeScheme); !ok || f.name != "Fake" || f.dev != dev {
		t.Fatalf("Build returned %T %v, want the factory's bare scheme", s, s)
	}
	if _, ok := s.(Unwrapper); ok {
		t.Fatal("Build decorated the scheme")
	}
	_, err = r.Build("broken", dev, 1)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "Broken") {
		t.Fatalf("factory failure err = %v, want boom wrapped with the canonical name", err)
	}
}

// TestDefaultRegistryPopulated checks that the scheme packages' init
// registrations arrive in the Default registry in paper order. The wl
// package cannot import the scheme packages (they import wl), so this test
// only runs when something else linked them in; the twl package's
// round-trip test covers the full set.
func TestDefaultRegistrySharedInstance(t *testing.T) {
	if Default == nil {
		t.Fatal("Default registry is nil")
	}
	// Whatever is registered must be orderly and lookup-consistent.
	for _, name := range Names() {
		reg, ok := Default.Lookup(name)
		if !ok || reg.Name != name {
			t.Fatalf("Default registry inconsistent for %q", name)
		}
	}
}
