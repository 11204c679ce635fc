// Package wrl implements Wear Rate Leveling (Dong et al., DAC 2011), the
// scheme the paper uses to illustrate the prediction–swap–running flow of
// PV-aware wear leveling (Figure 1) and the primary victim of the
// inconsistent-write attack (Figure 3).
//
// The scheme cycles through three phases:
//
//   - Prediction: write counts per logical page accumulate in the WNT for
//     PredictionWrites demand writes.
//   - Swap: logical pages are ranked by predicted (observed) write count and
//     physical pages by endurance; the hottest address is remapped to the
//     strongest page and so on down both rankings. The data movement blocks
//     demand traffic — which is exactly the timing signal the attacker uses
//     to detect the phase boundary.
//   - Running: the new mapping serves RunningMultiplier × PredictionWrites
//     demand writes, then the cycle restarts.
//
// The bedrock assumption — the write distribution observed in prediction
// persists through running — is what the inconsistent attack violates.
package wrl

import (
	"fmt"
	"io"
	"sort"

	"twl/internal/pcm"
	"twl/internal/snap"
	"twl/internal/tables"
	"twl/internal/wl"
)

// Config parameterizes WRL.
type Config struct {
	// PredictionWrites is the length of the prediction phase in demand
	// writes. The default scales with the array so each page can plausibly
	// be sampled.
	PredictionWrites int
	// RunningMultiplier is the running-phase length as a multiple of the
	// prediction phase (the paper cites 10×).
	RunningMultiplier int
	// MaxSwapFraction caps how many pages move in one swap phase, as a
	// fraction of the array (real controllers bound the blocking time).
	// 1.0 allows a full re-sort.
	MaxSwapFraction float64
}

// DefaultConfig returns a configuration matching the Figure 1 description
// for a device with pages pages.
func DefaultConfig(pages int) Config {
	pw := pages
	if pw < 1024 {
		pw = 1024
	}
	return Config{
		PredictionWrites:  pw,
		RunningMultiplier: 10,
		MaxSwapFraction:   1.0,
	}
}

type phase int

const (
	predicting phase = iota
	running
)

// Scheme is a Wear Rate Leveling wear leveler.
type Scheme struct {
	dev   *pcm.Device // snap: device state is checkpointed by the sim layer
	cfg   Config      // snap: construction input
	rt    *tables.Remap
	wnt   *tables.WriteCounts
	stats wl.Stats

	phase      phase
	phaseLeft  int   // demand writes remaining in the current phase
	byStrength []int // snap: derived from the endurance map at New; physical pages sorted by descending endurance

	scratch []int // snap: scratch buffer; physical-address batch for WriteSweep
}

var _ wl.Scheme = (*Scheme)(nil)
var _ wl.Checker = (*Scheme)(nil)
var _ wl.RunWriter = (*Scheme)(nil)
var _ wl.SweepWriter = (*Scheme)(nil)

// New builds a WRL scheme over dev.
func New(dev *pcm.Device, cfg Config) (*Scheme, error) {
	if cfg.PredictionWrites <= 0 {
		return nil, fmt.Errorf("wrl: PredictionWrites must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.RunningMultiplier <= 0 {
		return nil, fmt.Errorf("wrl: RunningMultiplier must be positive: %w", wl.ErrBadConfig)
	}
	if cfg.MaxSwapFraction <= 0 || cfg.MaxSwapFraction > 1 {
		return nil, fmt.Errorf("wrl: MaxSwapFraction must be in (0,1]: %w", wl.ErrBadConfig)
	}
	asc := wl.SortByEndurance(dev.EnduranceMap())
	desc := make([]int, len(asc))
	for i, p := range asc {
		desc[len(asc)-1-i] = p
	}
	return &Scheme{
		dev:        dev,
		cfg:        cfg,
		rt:         tables.NewRemap(dev.Pages()),
		wnt:        tables.NewWriteCounts(dev.Pages()),
		phase:      predicting,
		phaseLeft:  cfg.PredictionWrites,
		byStrength: desc,
	}, nil
}

// Name implements wl.Scheme.
func (s *Scheme) Name() string { return "WRL" }

// Write implements wl.Scheme.
func (s *Scheme) Write(la int, tag uint64) wl.Cost {
	cost := wl.Cost{ExtraCycles: wl.ControlCycles + wl.TableCycles}
	pa := s.rt.Phys(la)
	s.dev.Write(pa, tag)
	cost.DeviceWrites = 1
	s.stats.DemandWrites++

	if s.phase == predicting {
		s.wnt.Record(la)
		cost.ExtraCycles += wl.TableCycles // WNT update
	}
	s.phaseLeft--
	if s.phaseLeft <= 0 {
		switch s.phase {
		case predicting:
			cost.Add(s.swapPhase())
			s.phase = running
			s.phaseLeft = s.cfg.RunningMultiplier * s.cfg.PredictionWrites
		case running:
			s.wnt.Reset()
			s.phase = predicting
			s.phaseLeft = s.cfg.PredictionWrites
		}
	}
	return cost
}

// horizon returns how many of the next n writes are guaranteed event-free:
// the only WRL event is the phase transition, fired by the write that takes
// phaseLeft to zero, so phaseLeft − 1 writes can pass without one. The
// remap table is frozen between swap phases, which is what lets the fast
// paths resolve addresses once per batch.
func (s *Scheme) horizon(n int) int {
	if k := s.phaseLeft - 1; k < n {
		return k
	}
	return n
}

// eventFreeCost is the uniform per-write cost inside the current phase:
// prediction-phase writes additionally update the WNT.
func (s *Scheme) eventFreeCost() wl.Cost {
	cost := wl.Cost{DeviceWrites: 1, ExtraCycles: wl.ControlCycles + wl.TableCycles}
	if s.phase == predicting {
		cost.ExtraCycles += wl.TableCycles // WNT update
	}
	return cost
}

// WriteRun implements wl.RunWriter via an event-horizon fast-forward: a
// same-address run maps to one physical page until the next phase
// transition, so the event-free prefix collapses into one bulk device write
// plus O(1) counter advances. absorbed == 0 means the next write fires the
// transition (possibly a blocking swap phase); the caller serves it through
// Write, which runs the transition exactly as the per-write path would.
//
//twl:hotpath
func (s *Scheme) WriteRun(la int, tag uint64, n int) (wl.Cost, int) {
	k := s.horizon(n)
	if k <= 0 {
		return wl.Cost{}, 0
	}
	// WriteN clamps at a mid-run wear-out, counting the failing write.
	applied := s.dev.WriteN(s.rt.Phys(la), tag, k)
	s.stats.DemandWrites += uint64(applied)
	s.phaseLeft -= applied
	if s.phase == predicting {
		s.wnt.Add(la, uint64(applied))
	}
	return s.eventFreeCost(), applied
}

// WriteSweep implements wl.SweepWriter: the event-free prefix of a
// consecutive-address sweep resolves through the frozen remap table into a
// physical-address batch served by one gather-write. WriteSeq clamps the
// batch at the first write that wears a page out; only the applied prefix
// is accounted (within one sweep the RT bijection keeps physical addresses
// distinct, so the clamp point is exact).
//
//twl:hotpath
func (s *Scheme) WriteSweep(la int, tag uint64, n int) (wl.Cost, int) {
	k := s.horizon(n)
	if k <= 0 {
		return wl.Cost{}, 0
	}
	buf := wl.Scratch(&s.scratch, k)
	phys := s.rt.PhysTable()
	for i := range buf {
		buf[i] = int(phys[la+i])
	}
	applied := s.dev.WriteSeq(buf, tag)
	s.stats.DemandWrites += uint64(applied)
	s.phaseLeft -= applied
	if s.phase == predicting {
		for i := 0; i < applied; i++ {
			s.wnt.Record(la + i)
		}
	}
	return s.eventFreeCost(), applied
}

// swapPhase realizes the predicted-hot → strong mapping: logical pages are
// ranked by WNT count and assigned to physical pages in endurance order,
// then the data is permuted into place cycle by cycle.
func (s *Scheme) swapPhase() wl.Cost {
	n := s.dev.Pages()
	// Rank by heat: stable descending order over all pages is (count desc,
	// la asc) — zero-count pages all tie, keeping ascending address order
	// behind the written ones. Sorting only the touched set by that total
	// order and appending the untouched pages in address order reproduces
	// the full ranking at O(k log k + n) for k written pages — under a
	// repeat attack the prediction phase touches one page, not all of them.
	hot := s.wnt.Touched()
	sort.Slice(hot, func(a, b int) bool {
		ca, cb := s.wnt.Count(hot[a]), s.wnt.Count(hot[b])
		if ca != cb {
			return ca > cb
		}
		return hot[a] < hot[b]
	})
	byHeat := make([]int, 0, n)
	byHeat = append(byHeat, hot...)
	for la := 0; la < n; la++ {
		if s.wnt.Count(la) == 0 {
			byHeat = append(byHeat, la)
		}
	}

	limit := int(s.cfg.MaxSwapFraction * float64(n))
	target := make([]int, n) // la → desired pa
	for la := 0; la < n; la++ {
		target[la] = s.rt.Phys(la) // default: stay put
	}
	for rank := 0; rank < n && rank < limit; rank++ {
		target[byHeat[rank]] = s.byStrength[rank]
	}
	// target may not be a permutation if limit < n (two LAs could want the
	// same PA); resolve by only honoring assignments whose PA is released.
	// With MaxSwapFraction == 1 the ranking covers all pages and target is a
	// permutation by construction.
	if limit < n {
		taken := make([]bool, n)
		for rank := 0; rank < limit; rank++ {
			taken[s.byStrength[rank]] = true
		}
		ranked := make([]bool, n)
		for rank := 0; rank < limit; rank++ {
			ranked[byHeat[rank]] = true
		}
		for la := 0; la < n; la++ {
			if !ranked[la] && taken[target[la]] {
				target[la] = -1 // displaced; assigned below
			}
		}
		free := make([]int, 0, n)
		used := make([]bool, n)
		for la := 0; la < n; la++ {
			if target[la] >= 0 {
				used[target[la]] = true
			}
		}
		for pa := 0; pa < n; pa++ {
			if !used[pa] {
				free = append(free, pa)
			}
		}
		fi := 0
		for la := 0; la < n; la++ {
			if target[la] < 0 {
				target[la] = free[fi]
				fi++
			}
		}
	}
	return s.permuteTo(target)
}

// permuteTo moves every logical page's data to target[la], decomposing the
// required permutation into cycles; a cycle of length L costs L page writes
// (rotating through a controller buffer) plus L reads.
func (s *Scheme) permuteTo(target []int) wl.Cost {
	var cost wl.Cost
	n := s.dev.Pages()
	done := make([]bool, n)
	for la0 := 0; la0 < n; la0++ {
		if done[la0] || s.rt.Phys(la0) == target[la0] {
			done[la0] = true
			continue
		}
		// Walk the cycle starting at la0: repeatedly place la's data into
		// its target slot after buffering the occupant.
		la := la0
		buf := s.dev.Peek(s.rt.Phys(la))
		bufLA := la
		for {
			dst := target[bufLA]
			occupant := s.rt.Log(dst)
			next := s.dev.Peek(dst)
			s.dev.Write(dst, buf)
			cost.DeviceWrites++
			cost.DeviceReads++
			s.stats.SwapWrites++
			s.rt.SwapLogical(bufLA, occupant)
			done[bufLA] = true
			if occupant == bufLA || done[occupant] {
				break
			}
			buf = next
			bufLA = occupant
		}
		s.stats.Swaps++
	}
	if cost.DeviceWrites > 0 {
		cost.Blocked = true
		// Sorting and table rewrites stall the controller well beyond the
		// data movement itself.
		cost.ExtraCycles += wl.TableCycles * cost.DeviceWrites
	}
	return cost
}

// Read implements wl.Scheme.
func (s *Scheme) Read(la int) (uint64, wl.Cost) {
	s.stats.DemandReads++
	return s.dev.Read(s.rt.Phys(la)), wl.Cost{DeviceReads: 1, ExtraCycles: wl.TableCycles}
}

// Stats implements wl.Scheme.
func (s *Scheme) Stats() wl.Stats { return s.stats }

// Device implements wl.Scheme.
func (s *Scheme) Device() *pcm.Device { return s.dev }

// CheckInvariants implements wl.Checker.
func (s *Scheme) CheckInvariants() error {
	if err := s.rt.CheckBijection(); err != nil {
		return err
	}
	// The transition write resets phaseLeft inside Write, so between requests
	// it sits strictly inside (0, phase length] — reaching 0 means a phase
	// transition was skipped (the event the fast path must never absorb).
	max := s.cfg.PredictionWrites
	if s.phase == running {
		max = s.cfg.RunningMultiplier * s.cfg.PredictionWrites
	}
	if s.phaseLeft < 1 || s.phaseLeft > max {
		return fmt.Errorf("wrl: phaseLeft %d outside (0,%d] in phase %d", s.phaseLeft, max, s.phase)
	}
	want := s.stats.DemandWrites + s.stats.SwapWrites
	if got := s.dev.TotalWrites(); got != want {
		return fmt.Errorf("wrl: device writes %d != demand %d + swap %d",
			got, s.stats.DemandWrites, s.stats.SwapWrites)
	}
	return nil
}

// Snapshot implements wl.Snapshotter: the remap table, the WNT (including
// its first-touch order, which feeds the swap-phase ranking), the phase
// machine and the stats.
func (s *Scheme) Snapshot(w io.Writer) error {
	if err := s.rt.Snapshot(w); err != nil {
		return err
	}
	if err := s.wnt.Snapshot(w); err != nil {
		return err
	}
	sw := snap.NewWriter(w)
	sw.Int(int(s.phase))
	sw.Int(s.phaseLeft)
	if err := sw.Err(); err != nil {
		return err
	}
	return s.stats.Snapshot(w)
}

// Restore implements wl.Snapshotter.
func (s *Scheme) Restore(r io.Reader) error {
	if err := s.rt.Restore(r); err != nil {
		return err
	}
	if err := s.wnt.Restore(r); err != nil {
		return err
	}
	sr := snap.NewReader(r)
	ph := sr.Int()
	s.phaseLeft = sr.Int()
	if err := sr.Err(); err != nil {
		return err
	}
	if ph != int(predicting) && ph != int(running) {
		return fmt.Errorf("wrl: restored phase %d invalid", ph)
	}
	s.phase = phase(ph)
	return s.stats.Restore(r)
}

func init() {
	wl.Register(wl.Registration{
		Name:  "WRL",
		Order: 70,
		Doc:   "Wear Rate Leveling (DAC'11)",
		New: func(dev *pcm.Device, _ uint64) (wl.Scheme, error) {
			return New(dev, DefaultConfig(dev.Pages()))
		},
	})
}
