package wl

import (
	"fmt"
	"strings"

	"twl/internal/obs"
	"twl/internal/pcm"
)

// Functional options for scheme construction. CLIs and experiments compose
// decorators declaratively —
//
//	s, err := wl.Build("TWL_swp", dev, seed,
//		wl.WithRetirement(wl.RetireConfig{}),
//		wl.WithInstrumentation(reg))
//
// — instead of wrapping by hand. Options apply in argument order, first
// option innermost, so the example instruments the retirement decorator's
// output (demand metrics include writes served from spares).

// Option customizes scheme construction in Registry.Build.
type Option func(*buildOptions) error

// buildOptions accumulates the decorator stack Build applies over the
// freshly constructed scheme.
type buildOptions struct {
	wrappers []func(Scheme) (Scheme, error)
}

// WithInstrumentation records every request the scheme serves in reg (see
// Instrument).
func WithInstrumentation(reg *obs.Registry) Option {
	return func(o *buildOptions) error {
		if reg == nil {
			return fmt.Errorf("wl: WithInstrumentation needs a registry: %w", ErrBadConfig)
		}
		o.wrappers = append(o.wrappers, func(s Scheme) (Scheme, error) {
			return Instrument(s, reg), nil
		})
		return nil
	}
}

// WithRetirement wraps the scheme in the fault-tolerant page-retirement
// decorator (internal/wl/retire), which remaps failed pages into the
// device's spare pool so the run continues past the first failure. The
// device must have been built with SparePages > 0. The decorator package
// must be linked in (importing it, directly or via the twl facade,
// registers its factory).
func WithRetirement(cfg RetireConfig) Option {
	return func(o *buildOptions) error {
		if retireFactory == nil {
			return fmt.Errorf("wl: retirement decorator not linked in (import twl/internal/wl/retire): %w", ErrBadConfig)
		}
		o.wrappers = append(o.wrappers, func(s Scheme) (Scheme, error) {
			return retireFactory(s, cfg)
		})
		return nil
	}
}

// WithDecorator applies an arbitrary wrapper; wrap should use Wrap so the
// result preserves the scheme's optional interfaces.
func WithDecorator(wrap func(Scheme) (Scheme, error)) Option {
	return func(o *buildOptions) error {
		if wrap == nil {
			return fmt.Errorf("wl: WithDecorator needs a wrapper: %w", ErrBadConfig)
		}
		o.wrappers = append(o.wrappers, wrap)
		return nil
	}
}

// Compose applies the options' decorators to an already-constructed scheme,
// first option innermost. Callers that build schemes outside a registry
// (experiments with custom constructors) use it to get the same stack Build
// would produce.
func Compose(s Scheme, opts ...Option) (Scheme, error) {
	var o buildOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	for _, wrap := range o.wrappers {
		next, err := wrap(s)
		if err != nil {
			return nil, fmt.Errorf("wl: decorating %s: %w", s.Name(), err)
		}
		s = next
	}
	return s, nil
}

// Build constructs the named scheme over dev and applies the options'
// decorator stack. An unrecognized name wraps ErrUnknownScheme; factory
// failures are wrapped with the canonical scheme name.
func (r *Registry) Build(name string, dev *pcm.Device, seed uint64, opts ...Option) (Scheme, error) {
	reg, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("wl: %w: %q (known: %s)",
			ErrUnknownScheme, name, strings.Join(r.Names(), ", "))
	}
	s, err := reg.New(dev, seed)
	if err != nil {
		return nil, fmt.Errorf("wl: building %s: %w", reg.Name, err)
	}
	return Compose(s, opts...)
}

// Build constructs a scheme from the Default registry with options.
func Build(name string, dev *pcm.Device, seed uint64, opts ...Option) (Scheme, error) {
	return Default.Build(name, dev, seed, opts...)
}
