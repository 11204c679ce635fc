// Package rbsg implements region-based Start-Gap with a detector-driven,
// adjustable security level — the defense direction of the paper's
// references [11] (Qureshi et al., HPCA 2011, which couples online
// detection of malicious write streams with faster randomization) and [7]
// (Huang et al., IPDPS 2016, "security-level adjustable dynamic mapping").
//
// Each region runs its own Start-Gap rotation (one spare page per region,
// so a gap movement only blocks that region). The gap interval — the
// security level — adapts online: while the attack detector's alarm is
// raised, rotation accelerates by BoostFactor; when the stream looks
// benign, it relaxes back to the cheap baseline interval. The scheme
// therefore pays Start-Gap's ~1% overhead on benign workloads but
// approaches fast-randomization protection under attack.
//
// The paper's TWL argues this line of defense is reactive — the detector
// must see the attack before the leveler responds. The rbsg tests and the
// Figure-6-style comparisons quantify exactly that gap.
package rbsg

import (
	"fmt"

	"twl/internal/detect"
	"twl/internal/pcm"
	"twl/internal/rng"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Config parameterizes the scheme.
type Config struct {
	// Regions is the number of independent Start-Gap regions; the device
	// page count must be divisible by Regions, and each region donates one
	// page as its gap.
	Regions int
	// BaseGapInterval is the benign-mode gap interval (writes to a region
	// between gap movements). Start-Gap's classic value is 100.
	BaseGapInterval int
	// BoostFactor divides the gap interval while the alarm is active.
	BoostFactor int
	// AlarmShuffleInterval performs one cross-region randomizing swap (two
	// random logical pages exchange physical homes) every this many demand
	// writes while the alarm is active — the "adjustable security level":
	// the randomization domain widens from a region to the whole array
	// under threat. 0 selects 64.
	AlarmShuffleInterval int
	// Detector configuration; zero value selects detect.DefaultConfig over
	// the logical page count.
	Detector detect.Config
	// Seed drives the per-region address randomization.
	Seed uint64
}

// DefaultConfig returns a balanced configuration for a device with pages
// pages.
func DefaultConfig(pages int, seed uint64) Config {
	regions := 8
	if pages/regions < 16 {
		regions = 1
	}
	return Config{
		Regions:              regions,
		BaseGapInterval:      100,
		BoostFactor:          16,
		AlarmShuffleInterval: 64,
		Seed:                 seed,
	}
}

// region is one Start-Gap rotation domain.
type region struct {
	base      int // first physical page
	size      int // physical pages including the gap
	gapLA     int // local logical index owning the gap (== size-1)
	sinceMove int
	ra, rb    int // affine randomization over size-1 logical slots
}

// Scheme is the adaptive region-based Start-Gap wear leveler.
type Scheme struct {
	dev     *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg     Config      // snap: construction input
	rt      *tables.Remap
	regions []region
	det     *detect.Detector
	stats   wl.Stats

	logicalPerRegion int    // snap: derived from geometry at New
	boosted          uint64 // gap moves taken at the boosted rate
	shuffles         uint64 // cross-region randomizing swaps under alarm
	sinceShuffle     int
	src              *rng.Xorshift

	scratch []int // snap: scratch buffer; physical-address batch for WriteSweep
}

var _ wl.Scheme = (*Scheme)(nil)
var _ wl.Checker = (*Scheme)(nil)
var _ wl.RunWriter = (*Scheme)(nil)
var _ wl.SweepWriter = (*Scheme)(nil)

// New builds the scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if cfg.Regions <= 0 {
		return nil, fmt.Errorf("rbsg: Regions must be positive: %w", wl.ErrBadConfig)
	}
	if dev.Pages()%cfg.Regions != 0 {
		return nil, fmt.Errorf("rbsg: %d regions do not divide %d pages: %w", cfg.Regions, dev.Pages(), wl.ErrBadConfig)
	}
	size := dev.Pages() / cfg.Regions
	if size < 2 {
		return nil, fmt.Errorf("rbsg: regions need at least 2 pages (one is the gap): %w", wl.ErrBadConfig)
	}
	if cfg.BaseGapInterval <= 0 {
		return nil, fmt.Errorf("rbsg: BaseGapInterval must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.BoostFactor < 1 {
		return nil, fmt.Errorf("rbsg: BoostFactor must be >= 1: %w", wl.ErrBadConfig)
	}
	if cfg.AlarmShuffleInterval == 0 {
		cfg.AlarmShuffleInterval = 64
	}
	if cfg.AlarmShuffleInterval < 0 {
		return nil, fmt.Errorf("rbsg: AlarmShuffleInterval must be >= 0: %w", wl.ErrBadConfig)
	}
	dcfg := cfg.Detector
	if dcfg.WindowWrites == 0 {
		dcfg = detect.DefaultConfig(dev.Pages())
		// The detection window is the scheme's reaction latency: it must be
		// far below a page's endurance or the attack wins before the first
		// window closes. Scale it down on low-endurance (scaled) devices.
		meanE := int(dev.TotalEndurance() / uint64(dev.Pages()))
		if limit := meanE / 4; dcfg.WindowWrites > limit {
			dcfg.WindowWrites = limit
			if dcfg.WindowWrites < 256 {
				dcfg.WindowWrites = 256
			}
		}
	}
	det, err := detect.New(dcfg)
	if err != nil {
		return nil, err
	}
	s := &Scheme{
		dev:              dev,
		cfg:              cfg,
		rt:               tables.NewRemap(dev.Pages()),
		det:              det,
		logicalPerRegion: size - 1,
		src:              rng.NewXorshift(cfg.Seed ^ 0x5B5B5B5B),
	}
	src := rng.NewXorshift(cfg.Seed)
	s.regions = make([]region, cfg.Regions)
	for i := range s.regions {
		r := &s.regions[i]
		r.base = i * size
		r.size = size
		r.gapLA = size - 1
		r.ra = pickCoprime(src, size-1)
		r.rb = src.Intn(size - 1)
	}
	return s, nil
}

func pickCoprime(src *rng.Xorshift, n int) int {
	if n <= 2 {
		return 1
	}
	for {
		a := 1 + src.Intn(n-1)
		if gcd(a, n) == 1 {
			return a
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LogicalPages reports the demand-addressable page count (one page per
// region is the gap).
func (s *Scheme) LogicalPages() int { return s.cfg.Regions * s.logicalPerRegion }

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "RBSG" }

// fold maps an address past the logical end (a device-wide workload sees
// the gap pages too) back into the logical space, as StartGap's randomizer
// does with its modulus; in-range addresses pass through unchanged.
func (s *Scheme) fold(la int) int {
	if n := s.LogicalPages(); la >= n {
		return la % n
	}
	return la
}

// locate splits a logical address into region and local randomized slot.
func (s *Scheme) locate(la int) (*region, int) {
	ri := la / s.logicalPerRegion
	local := la % s.logicalPerRegion
	r := &s.regions[ri]
	return r, (r.ra*local + r.rb) % s.logicalPerRegion
}

// interval returns the current gap interval, boosted while the alarm is up.
func (s *Scheme) interval() int {
	if s.det.Alarm() {
		iv := s.cfg.BaseGapInterval / s.cfg.BoostFactor
		if iv < 1 {
			iv = 1
		}
		return iv
	}
	return s.cfg.BaseGapInterval
}

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.TableCycles}
	la = s.fold(la)
	s.det.Observe(la)
	r, slot := s.locate(la)
	localLA := r.base + slot // region-local logical index into rt
	pa := s.rt.Phys(localLA)
	s.dev.Write(pa, tag)
	cost.DeviceWrites++
	s.stats.DemandWrites++

	r.sinceMove++
	if r.sinceMove >= s.interval() {
		r.sinceMove = 0
		cost.Add(s.moveGap(r))
		if s.det.Alarm() {
			s.boosted++
		}
	}
	// Widened randomization domain under alarm: relocate the detected-hot
	// address across the whole array, so an attack confined to one region's
	// address range cannot confine its wear to that region's pages.
	if s.det.Alarm() {
		s.sinceShuffle++
		if s.sinceShuffle >= s.cfg.AlarmShuffleInterval {
			s.sinceShuffle = 0
			cost.Add(s.shuffle())
		}
	}
	return cost
}

// eventFreeCost is the uniform per-write cost between events: one device
// write under the table and control path, no gap move, no shuffle.
func eventFreeCost() wl.Cost {
	return wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + wl.TableCycles}
}

// globalHorizon clamps an event-free prefix at the events shared across
// regions: the detector's window close — the only place the alarm, and
// with it the gap interval and shuffle cadence, can change — and, under
// alarm, the next cross-region shuffle (which draws RNG and blocks). The
// window-closing write itself is served through Write: its cost is the
// uniform event-free cost, so bit-identity holds, and the close then runs
// in the per-write path exactly as the serial loop would run it.
func (s *Scheme) globalHorizon(n int) int {
	if h := s.det.WindowHeadroom() - 1; h < n {
		n = h
	}
	if s.det.Alarm() {
		if h := s.cfg.AlarmShuffleInterval - s.sinceShuffle - 1; h < n {
			n = h
		}
	}
	return n
}

// WriteRun implements wl.RunWriter: a same-address run stays on one
// physical page in one region until the next event — the region's gap move,
// the detector's window close, or (under alarm) the cross-region shuffle —
// so the event-free prefix collapses into one bulk device write (WriteN,
// clamping at a mid-run endurance crossing) plus O(1) advances of the
// detector window, the region's gap counter and the shuffle counter. The
// alarm is constant between window closes, which is what makes interval()
// and the shuffle-counter branch loop-invariant.
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	la = s.fold(la)
	k := s.globalHorizon(n)
	r, slot := s.locate(la)
	if h := s.interval() - r.sinceMove - 1; h < k {
		k = h
	}
	if k <= 0 {
		return wl.Cost{}, 0
	}
	applied := s.dev.WriteN(s.rt.Phys(r.base+slot), tag, k)
	s.det.ObserveN(la, applied)
	s.stats.DemandWrites += uint64(applied)
	r.sinceMove += applied
	if s.det.Alarm() {
		s.sinceShuffle += applied
	}
	return eventFreeCost(), applied
}

// WriteSweep implements wl.SweepWriter: consecutive logical addresses fan
// out across regions through the per-region affine maps, so the event-free
// prefix resolves into a physical-address batch served by one gather write
// (WriteSeq, clamping at the first endurance crossing; within one sweep the
// mapping bijection keeps the batch's pages distinct, so the clamp point is
// exact). Each touched region contributes its own gap-move horizon: the
// sweep visits a region's addresses consecutively, so the region's write
// count is its overlap with the absorbed prefix. A sweep stops at the
// logical end; the caller's next sweep starts past it and folds to 0.
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	la = s.fold(la)
	if end := s.LogicalPages() - la; end < n {
		n = end
	}
	k := s.globalHorizon(n)
	iv := s.interval()
	lpr := s.logicalPerRegion
	// Region q first sees the sweep at offset q*lpr-la (clamped to 0) and
	// would fire its gap move iv - sinceMove writes later; the prefix stops
	// strictly before the earliest one. An alarm boost can shrink iv below a
	// region's accumulated sinceMove, but its move still cannot fire before
	// the sweep reaches the region, so the horizon never drops below start.
	for q := la / lpr; q*lpr < la+k; q++ {
		start := q*lpr - la
		if start < 0 {
			start = 0
		}
		h := start + iv - s.regions[q].sinceMove - 1
		if h < start {
			h = start
		}
		if h < k {
			k = h
		}
	}
	if k <= 0 {
		return wl.Cost{}, 0
	}
	buf := wl.Scratch(&s.scratch, k)
	for i := range buf {
		r, slot := s.locate(la + i)
		buf[i] = s.rt.Phys(r.base + slot)
	}
	applied := s.dev.WriteSeq(buf, tag)
	s.det.ObserveRange(la, applied)
	s.stats.DemandWrites += uint64(applied)
	for q := la / lpr; q*lpr < la+applied; q++ {
		start := q*lpr - la
		if start < 0 {
			start = 0
		}
		end := (q+1)*lpr - la
		if end > applied {
			end = applied
		}
		s.regions[q].sinceMove += end - start
	}
	if s.det.Alarm() {
		s.sinceShuffle += applied
	}
	return eventFreeCost(), applied
}

// shuffle relocates the detector's hottest address: its physical home is
// exchanged with that of a random demand page, possibly across regions, so
// a concentrated malicious stream cannot dwell on any page for long.
func (s *Scheme) shuffle() wl.Cost {
	hot, ok := s.det.HottestAddress()
	if !ok || hot < 0 || hot >= s.LogicalPages() {
		return wl.Cost{}
	}
	r, slot := s.locate(hot)
	x := r.base + slot
	y := s.randomDemandIndex()
	if x == y {
		return wl.Cost{}
	}
	px, py := s.rt.Phys(x), s.rt.Phys(y)
	dx, dy := s.dev.Peek(px), s.dev.Peek(py)
	s.dev.Write(px, dy)
	s.dev.Write(py, dx)
	s.rt.SwapLogical(x, y)
	s.stats.Swaps++
	s.stats.SwapWrites += 2
	s.shuffles++
	return wl.Cost{DeviceWrites: 2, DeviceReads: 2, ExtraCycles: wl.TableCycles, Blocked: true}
}

// randomDemandIndex picks a uniformly random internal logical index that is
// not a region's gap owner.
func (s *Scheme) randomDemandIndex() int {
	ri := s.src.Intn(s.cfg.Regions)
	r := &s.regions[ri]
	return r.base + s.src.Intn(r.size-1)
}

// moveGap advances a region's gap by one slot.
func (s *Scheme) moveGap(r *region) wl.Cost {
	gapIdx := r.base + r.gapLA
	gapPA := s.rt.Phys(gapIdx)
	prevPA := gapPA - 1
	if prevPA < r.base {
		prevPA = r.base + r.size - 1
	}
	victim := s.rt.Log(prevPA)
	s.dev.Write(gapPA, s.dev.Peek(prevPA))
	s.rt.SwapLogical(gapIdx, victim)
	s.stats.Swaps++
	s.stats.SwapWrites++
	return wl.Cost{DeviceWrites: 1, DeviceReads: 1, ExtraCycles: wl.TableCycles, Blocked: true}
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	r, slot := s.locate(s.fold(la))
	pa := s.rt.Phys(r.base + slot)
	return s.dev.Read(pa), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// Alarmed reports whether the embedded detector has ever raised the alarm.
func (s *Scheme) Alarmed() bool { return s.det.EverAlarmed() }

// BoostedMoves reports how many gap movements ran at the boosted rate.
func (s *Scheme) BoostedMoves() uint64 { return s.boosted }

// Shuffles reports how many cross-region randomizing swaps have run.
func (s *Scheme) Shuffles() uint64 { return s.shuffles }

// CheckInvariants implements wl.Checker: the remap stays a bijection, each
// region's gap stays physically within its region (the rotation-ring
// precondition; demand pages may shuffle across regions under alarm), and
// wear is conserved.
func (s *Scheme) CheckInvariants() error {
	if err := s.rt.CheckBijection(); err != nil {
		return err
	}
	for i := range s.regions {
		r := &s.regions[i]
		gp := s.rt.Phys(r.base + r.gapLA)
		if gp < r.base || gp >= r.base+r.size {
			return fmt.Errorf("rbsg: region %d gap drifted outside region: %d", i, gp)
		}
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("rbsg: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

func init() {
	wl.Register(wl.Registration{
		Name:  "RBSG",
		Order: 100,
		Doc:   "detector-adaptive region-based Start-Gap (references [7]/[11])",
		New: func(dev *pcm.Device, seed uint64) (wl.Scheme, error) {
			return New(dev, DefaultConfig(dev.Pages(), seed))
		},
	})
}
