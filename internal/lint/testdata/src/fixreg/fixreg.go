// Package fixreg exercises the registry analyzer. Its synthetic import path
// places it under twl/internal/wl/, so exported schemes must call
// wl.Register.
package fixreg

import "twl/internal/wl"

// Orphan implements wl.Scheme via embedding, but the package never calls
// wl.Register: the rule fires.
type Orphan struct{ wl.Scheme }

// Sweeper has bulk-write and checker methods but is not a wl.Scheme, so
// there is nothing to register: clean.
type Sweeper struct{}

func (Sweeper) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) { return wl.Cost{}, n }
func (Sweeper) CheckInvariants() error                              { return nil }

// hidden implements wl.Scheme but is unexported; the rule polices only the
// exported API, so this is clean.
type hidden struct{ wl.Scheme }
