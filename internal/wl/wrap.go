package wl

// This file is the decorator composition layer. A decorator (the
// fault-tolerant page retirement of internal/wl/retire, the benchmark's
// timing layer) embeds the Scheme it decorates, overrides the methods it
// interposes on and inherits the rest. Scheme is the whole contract, so an
// embedding wrapper can never shed a capability; the decorator analyzer
// (twlint) checks the opposite hazard — a decorator that intercepts Write
// but lets an inherited bulk, checkpoint or invariant method bypass it.

// Unwrapper is the stack-walking link of a decorator: Unwrap descends to
// the scheme it decorates. Helpers like AsCapacityReporter walk it to find
// decorator-specific extension interfaces anywhere in a stack.
type Unwrapper interface {
	Unwrap() Scheme
}

// Wrap composes a decorator body over the scheme it decorates: the result
// serves every Scheme method from body and adds the Unwrap link to inner.
// Decorators that expose extension interfaces of their own (the retire
// decorator's CapacityReporter) declare Unwrap themselves and are used
// bare, since the composite's method set is exactly Scheme plus Unwrap.
func Wrap(body, inner Scheme) Scheme { return wrapped{body, inner} }

type wrapped struct {
	Scheme
	inner Scheme
}

func (w wrapped) Unwrap() Scheme { return w.inner }

// findLayer returns the first layer of a decorator stack implementing T,
// walking Unwrap links from the outermost layer inward.
func findLayer[T any](s Scheme) (T, bool) {
	for s != nil {
		if r, ok := s.(T); ok {
			return r, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	var zero T
	return zero, false
}
