package wl

// Capacity reporting: the interface between a fault-tolerance decorator
// (internal/wl/retire) and everything above it. The simulator and the CLIs
// consume capacity state through these types only, so they never import the
// decorator package.

// CapacityPoint is one retirement event on the capacity-vs-writes curve:
// after serving DemandWrites logical writes, the device is down Retired
// visible pages and has consumed SparesUsed spare pages.
type CapacityPoint struct {
	DemandWrites uint64 // demand writes served when the retirement fired
	Retired      int    // distinct visible pages retired so far
	SparesUsed   int    // spare pages consumed so far
}

// CapacityStats summarizes a fault-tolerance decorator's state.
type CapacityStats struct {
	// SparePages is the size of the device's spare pool.
	SparePages int
	// SparesUsed counts spare pages consumed (a visible page's retirement
	// consumes one spare; a spare that itself wears out consumes another).
	SparesUsed int
	// Retired counts distinct visible pages remapped into the spare pool.
	Retired int
	// RetireLimit is the capacity-threshold budget: retiring more than this
	// many visible pages ends the run. It equals the visible page count when
	// no threshold was configured.
	RetireLimit int
	// Exhausted reports that the decorator could not handle a failure —
	// the spare pool ran dry or the capacity threshold was crossed — and
	// left it for the simulator to observe.
	Exhausted bool
	// Curve holds one point per handled retirement, in order.
	Curve []CapacityPoint
}

// CapacityReporter is implemented by fault-tolerance decorators that retire
// failed pages. It is a decorator-specific extension, not part of the
// Scheme contract: find it with AsCapacityReporter, which walks the Unwrap
// chain of a decorator stack.
type CapacityReporter interface {
	CapacityStats() CapacityStats
}

// AsCapacityReporter finds the first CapacityReporter in a decorator stack,
// walking Unwrap links from the outermost layer inward.
func AsCapacityReporter(s Scheme) (CapacityReporter, bool) { return findLayer[CapacityReporter](s) }

// RetireConfig configures the page-retirement decorator. The spare pool
// itself is device geometry (pcm.Geometry.SparePages) — the decorator uses
// whatever spares the device was built with.
type RetireConfig struct {
	// CapacityThreshold ends the run once more than this fraction of the
	// visible pages would be retired, modeling a device that is declared
	// dead at N% capacity loss even if spares remain. Zero means no
	// threshold: the run ends only when the spare pool is exhausted.
	// Must lie in [0, 1).
	CapacityThreshold float64
}
