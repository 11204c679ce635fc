// Package pcm models a page-granularity phase-change memory array.
//
// The model matches the evaluation platform in Table 1 of the paper:
// a 32 GB PCM with 4 KB pages and 128-byte lines, organized in 4 ranks and
// 32 banks, with read/set/reset latencies of 250/2000/250 cycles at 2 GHz.
// Wear-leveling operates at page granularity (the paper assumes the write
// granularity is a memory page and data-comparison-write is employed), so
// the device tracks wear, endurance and failure per page.
//
// Each physical page carries an opaque 64-bit payload tag. Wear-leveling
// schemes migrate these tags when they swap pages, which lets the test suite
// verify data integrity end-to-end: reading a logical address must always
// return the last tag written to it regardless of how many internal swaps
// occurred.
package pcm

import (
	"errors"
	"fmt"
)

// Geometry describes the array organization. Only Pages and PageSize affect
// wear simulation; ranks/banks/lines are carried for the timing and cost
// models.
type Geometry struct {
	Pages    int // number of visible (demand-addressable) physical pages
	PageSize int // bytes per page (paper: 4096)
	LineSize int // bytes per line (paper: 128)
	Ranks    int // paper: 4
	Banks    int // paper: 32
	// SparePages reserves extra physical pages beyond Pages for
	// fault-tolerant page retirement (WoLFRaM-style remapping). Spares are
	// invisible to wear-leveling schemes — Pages() and EnduranceMap() cover
	// the visible region only — and absorb traffic only after Remap points
	// a retired visible page at them.
	SparePages int
}

// Validate checks the geometry for internal consistency.
func (g Geometry) Validate() error {
	if g.Pages <= 0 {
		return errors.New("pcm: Pages must be positive")
	}
	if g.SparePages < 0 {
		return errors.New("pcm: SparePages must not be negative")
	}
	if g.PageSize <= 0 {
		return errors.New("pcm: PageSize must be positive")
	}
	if g.LineSize <= 0 || g.PageSize%g.LineSize != 0 {
		return fmt.Errorf("pcm: LineSize %d must divide PageSize %d", g.LineSize, g.PageSize)
	}
	if g.Ranks <= 0 || g.Banks <= 0 {
		return errors.New("pcm: Ranks and Banks must be positive")
	}
	if int64(g.TotalPages()) > MaxPages {
		return fmt.Errorf("pcm: %d pages exceed the limit %d", g.TotalPages(), int64(MaxPages))
	}
	return nil
}

// MaxPages is the largest physical page count a geometry may describe: the
// metadata tables store page addresses in 32 bits, with -1 as the pair
// table's "no page" marker.
const MaxPages = 1<<31 - 1

// Capacity returns the visible byte capacity (spares excluded).
func (g Geometry) Capacity() int64 {
	return int64(g.Pages) * int64(g.PageSize)
}

// TotalPages returns the physical page count including the spare region.
func (g Geometry) TotalPages() int { return g.Pages + g.SparePages }

// LinesPerPage returns the number of lines in a page.
func (g Geometry) LinesPerPage() int { return g.PageSize / g.LineSize }

// Timing holds the latency parameters from Table 1, in CPU cycles.
type Timing struct {
	ReadCycles  int // array read (paper: 250)
	SetCycles   int // SET programming (paper: 2000)
	ResetCycles int // RESET programming (paper: 250)
	ClockHz     float64
}

// WriteCycles returns the latency of a page write. A write must wait for its
// slowest line programming operation; with data-comparison-write the worst
// case is a SET, so a write is charged the SET latency (this matches how the
// paper's configuration is normally interpreted for page-granularity
// modeling).
func (t Timing) WriteCycles() int {
	if t.SetCycles > t.ResetCycles {
		return t.SetCycles
	}
	return t.ResetCycles
}

// Seconds converts a cycle count to seconds.
func (t Timing) Seconds(cycles int64) float64 {
	return float64(cycles) / t.ClockHz
}

// DefaultGeometry returns the paper's 32 GB array. Note: 32 GB / 4 KB =
// 8Mi pages; simulations normally run on a scaled page count (see
// DESIGN.md) but the full geometry is available for cost/latency math.
func DefaultGeometry() Geometry {
	return Geometry{
		Pages:    32 << 30 / 4096,
		PageSize: 4096,
		LineSize: 128,
		Ranks:    4,
		Banks:    32,
	}
}

// DefaultTiming returns the Table 1 latencies at 2 GHz.
func DefaultTiming() Timing {
	return Timing{ReadCycles: 250, SetCycles: 2000, ResetCycles: 250, ClockHz: 2e9}
}

// ErrBadConfig is wrapped by NewDevice when an endurance value does not fit
// the device's storage width. The scheme layer re-exports it as
// wl.ErrBadConfig, so every configuration error in the stack classifies
// with one errors.Is check.
var ErrBadConfig = errors.New("invalid configuration")

// MaxEndurance is the largest per-page endurance a device accepts (2^31).
//
// The device stores endurance and wear as uint32: the paper's mean
// endurance is 10^8 ≈ 2^26.6, and the paper's full geometry is 8Mi pages,
// where 64-bit counters would cost ~270 MB before any scheme table. Capping
// endurance at 2^31 leaves a full 2^31 of wear headroom past the endurance
// boundary. Wear exceeds endurance only by writes applied after a failure;
// the simulator stops on the first unhandled failure and the retirement
// layer redirects traffic off dead cells, so the overshoot is bounded by
// one bulk chunk and never approaches the uint32 ceiling.
const MaxEndurance = 1 << 31

// Device is a PCM array with per-page wear tracking: 16 bytes of state per
// page (uint32 endurance and wear, a 64-bit payload tag).
type Device struct {
	geom      Geometry // snap: construction input
	timing    Timing   // snap: construction input
	endurance []uint32 // snap: construction input
	wear      []uint32
	payload   []uint64

	writes uint64 // total page writes applied (demand + swap alike)
	reads  uint64

	// failedLog records every page that reached its endurance, in failure
	// order; acked counts the prefix a fault-tolerance layer has handled
	// (retired via Remap). Failed reports the first unhandled entry, so a
	// device with no such layer behaves exactly as before: the first
	// failure is permanent and the simulator stops on it.
	failedLog []int
	acked     int

	// redirect maps a retired visible page to the spare now serving it
	// (-1 = not retired); isTarget marks spares currently serving a
	// retired page. Both are nil until the first Remap, so the pre-failure
	// hot paths pay one nil check. isTarget is rebuilt from redirect on
	// Restore.
	redirect []int
	isTarget []bool // snap: derived from redirect on Restore

	// slack/slackAt form a conservative watermark over min-remaining
	// endurance: slack was the exact minimum when the device had written
	// slackAt pages, and one applied write lowers the minimum by at most
	// one, so slack-(writes-slackAt) is a valid lower bound at any later
	// point with no per-write maintenance. MinRemainingAtLeast recomputes
	// the exact minimum when the bound dips below a query; slackValid marks
	// that slack has held the exact minimum at least once, which unlocks
	// the monotone fast path (the minimum never recovers).
	slack      uint64
	slackAt    uint64
	slackValid bool
}

// NewDevice builds a device with the given geometry and per-page endurance
// map. len(endurance) must equal geom.TotalPages() — visible pages first,
// then spares — and every value must lie in [1, MaxEndurance]; a value
// above the limit is an error wrapping ErrBadConfig.
func NewDevice(geom Geometry, timing Timing, endurance []uint64) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if len(endurance) != geom.TotalPages() {
		return nil, fmt.Errorf("pcm: endurance map has %d entries, geometry has %d pages (%d visible + %d spare)",
			len(endurance), geom.TotalPages(), geom.Pages, geom.SparePages)
	}
	end := make([]uint32, len(endurance))
	for i, e := range endurance {
		if e == 0 {
			return nil, fmt.Errorf("pcm: page %d has zero endurance", i)
		}
		if e > MaxEndurance {
			return nil, fmt.Errorf("pcm: page %d endurance %d exceeds the limit %d: %w",
				i, e, uint64(MaxEndurance), ErrBadConfig)
		}
		end[i] = uint32(e)
	}
	return &Device{
		geom:      geom,
		timing:    timing,
		endurance: end,
		wear:      make([]uint32, geom.TotalPages()),
		payload:   make([]uint64, geom.TotalPages()),
	}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Pages returns the visible page count — the address space wear-leveling
// schemes manage. Spares are reached only through redirects.
func (d *Device) Pages() int { return d.geom.Pages }

// TotalPages returns the physical page count including the spare region.
func (d *Device) TotalPages() int { return d.geom.TotalPages() }

// SparePages returns the spare-region size.
func (d *Device) SparePages() int { return d.geom.SparePages }

// resolve maps a page address to the physical cell serving it: retired
// visible pages forward to their spare. The nil check keeps the hot paths
// free of redirect cost until the first Remap.
func (d *Device) resolve(pp int) int {
	if d.redirect != nil {
		if t := d.redirect[pp]; t >= 0 {
			return t
		}
	}
	return pp
}

// Endurance returns the endurance limit of physical cell pp (raw: a retired
// page reports its own dead cell, not its spare's).
func (d *Device) Endurance(pp int) uint64 { return uint64(d.endurance[pp]) }

// EnduranceMap returns a copy of the visible pages' endurance map, matching
// WriteCounts.Counts: schemes derive their pairing and ordering tables from
// it, and a scheme sorting or perturbing its copy must not corrupt the
// device's ground truth. The spare region is excluded.
func (d *Device) EnduranceMap() []uint64 {
	out := make([]uint64, d.geom.Pages)
	for i, e := range d.endurance[:d.geom.Pages] {
		out[i] = uint64(e)
	}
	return out
}

// Wear returns the accumulated write count of physical cell pp (raw, like
// Endurance, so wear heatmaps show the array's true state — a retired
// page's cell stays pegged at its endurance).
func (d *Device) Wear(pp int) uint64 { return uint64(d.wear[pp]) }

// Remaining returns how many more writes page pp can absorb before failing.
// Unlike Wear/Endurance it follows redirects: writes to a retired page land
// on its spare, so the spare's headroom is the answer schemes need for
// policy and horizon decisions.
func (d *Device) Remaining(pp int) uint64 {
	pp = d.resolve(pp)
	if d.wear[pp] >= d.endurance[pp] {
		return 0
	}
	return uint64(d.endurance[pp] - d.wear[pp])
}

// MinRemainingAtLeast reports whether every page can still absorb at least
// n writes. The common case is a watermark comparison; the exact O(pages)
// minimum is recomputed only when the watermark has decayed below n, so
// bulk write paths can hoist their per-write failure pre-checks for almost
// the entire device lifetime.
//
// Wear only grows and writes land only on live cells, so the true minimum
// is monotone non-increasing between remaps. Once a recompute has pinned
// the exact minimum in slack, any query above it is a permanent exact "no"
// with no rescan; queries at or below it that outlive the decay bound
// trigger at most one rescan per pages-worth of writes (a conservative
// "no" in between), so the end-of-life regime costs amortized O(1) and
// callers run their per-write failure checks until the run ends. Remap
// changes the live set — a dead cell leaves it, a fresh spare joins — and
// so invalidates the watermark; the minimum may recover across a remap and
// the next query rescans.
//
// The scan covers the cells writes can actually reach: visible pages that
// are not retired, plus spares currently serving a retired page. Unused
// spares join the live set only through a Remap, which resets the
// watermark.
func (d *Device) MinRemainingAtLeast(n uint64) bool {
	since := d.writes - d.slackAt
	if d.slack >= since && d.slack-since >= n {
		return true
	}
	if d.slackValid {
		if n > d.slack {
			return false
		}
		if since < uint64(d.geom.TotalPages()) {
			return false
		}
	}
	min := ^uint64(0)
	visible := d.geom.Pages
	for pp, w := range d.wear {
		if d.redirect != nil {
			if pp < visible {
				if d.redirect[pp] >= 0 {
					continue // retired: writes go to its spare
				}
			} else if !d.isTarget[pp] {
				continue // spare not (or no longer) in service
			}
		} else if pp >= visible {
			break // no retirements yet: spares are unreachable
		}
		var r uint64
		if w < d.endurance[pp] {
			r = uint64(d.endurance[pp] - w)
		}
		if r < min {
			min = r
		}
	}
	d.slack = min
	d.slackAt = d.writes
	d.slackValid = true
	return min >= n
}

// Write applies one page write to physical page pp (following redirects),
// storing tag as the page payload. It returns true if this write wore the
// cell out (wear reached endurance). Writes to an already-failed page keep
// counting wear; the simulator decides when to stop.
func (d *Device) Write(pp int, tag uint64) bool {
	pp = d.resolve(pp)
	d.wear[pp]++
	d.payload[pp] = tag
	d.writes++
	if d.wear[pp] == d.endurance[pp] {
		d.failedLog = append(d.failedLog, pp)
		return true
	}
	return d.wear[pp] > d.endurance[pp]
}

// WriteN applies n same-page writes to physical page pp in one step and
// returns how many were actually applied. The i-th applied write (0-indexed)
// carries payload tag+i, so the page payload ends at tag+applied-1 — exactly
// what n sequential Write(pp, tag+i) calls would leave behind.
//
// Failure clamping: if the page crosses its endurance mid-run, WriteN stops
// at (and including) the write that wears it out, marks the failure, and
// returns the reduced count; the caller sees applied < n and must not count
// the unapplied remainder. Writes to an already-failed page keep counting
// wear, matching Write.
//
//twl:hotpath
func (d *Device) WriteN(pp int, tag uint64, n int) int {
	if n <= 0 {
		return 0
	}
	pp = d.resolve(pp)
	applied := uint64(n)
	w, e := d.wear[pp], d.endurance[pp]
	// The boundary test compares the run length against the page's
	// remaining headroom (e-w, well-defined when w < e) in 64 bits rather
	// than forming w+applied, which would wrap the uint32 counter on a long
	// run and silently skip the clamp.
	if w < e && applied >= uint64(e-w) {
		// Crosses the endurance boundary: stop at the failing write.
		applied = uint64(e - w)
		d.failedLog = append(d.failedLog, pp)
	}
	d.wear[pp] = w + uint32(applied)
	d.payload[pp] = tag + applied - 1
	d.writes += applied
	return int(applied)
}

// RewriteN applies n writes to physical page pp that each rewrite the
// page's current payload — the hosted-write pattern of pairing schemes
// (OD3P), where a failed page's program stress lands on its partner without
// changing the partner's data. Wear, the device write counter and failure
// clamping behave exactly as WriteN: a mid-run endurance crossing stops the
// count at (and including) the failing write, and writes to an
// already-failed page keep counting. The payload is untouched, matching n
// sequential Write(pp, Peek(pp)) calls.
//
//twl:hotpath
func (d *Device) RewriteN(pp int, n int) int {
	if n <= 0 {
		return 0
	}
	pp = d.resolve(pp)
	applied := uint64(n)
	w, e := d.wear[pp], d.endurance[pp]
	if w < e && applied >= uint64(e-w) {
		applied = uint64(e - w)
		d.failedLog = append(d.failedLog, pp)
	}
	d.wear[pp] = w + uint32(applied)
	d.writes += applied
	return int(applied)
}

// WriteRange applies one write each to the n consecutive physical pages
// pp0, pp0+1, …, carrying tags tag, tag+1, … . It stops after the first
// write that wears a page out (that write is applied and the failure is
// marked, matching Write) and returns how many writes were applied.
//
//twl:hotpath
func (d *Device) WriteRange(pp0 int, tag uint64, n int) int {
	if n <= 0 {
		return 0
	}
	if d.redirect != nil {
		return d.writeRangeSlow(pp0, tag, n)
	}
	wear := d.wear[pp0 : pp0+n]
	end := d.endurance[pp0 : pp0+n][:n]
	pay := d.payload[pp0 : pp0+n][:n]
	for i := range wear {
		w := wear[i] + 1
		wear[i] = w
		pay[i] = tag + uint64(i)
		if w >= end[i] {
			if w == end[i] {
				d.failedLog = append(d.failedLog, pp0+i)
			}
			d.writes += uint64(i + 1)
			return i + 1
		}
	}
	d.writes += uint64(n)
	return n
}

// writeRangeSlow is WriteRange with per-page redirect resolution, used once
// any page has been retired.
func (d *Device) writeRangeSlow(pp0 int, tag uint64, n int) int {
	for i := 0; i < n; i++ {
		pp := d.resolve(pp0 + i)
		w := d.wear[pp] + 1
		d.wear[pp] = w
		d.payload[pp] = tag + uint64(i)
		if w >= d.endurance[pp] {
			if w == d.endurance[pp] {
				d.failedLog = append(d.failedLog, pp)
			}
			d.writes += uint64(i + 1)
			return i + 1
		}
	}
	d.writes += uint64(n)
	return n
}

// WriteSeq applies one write each to the physical pages listed in pps, in
// order, carrying tags tag, tag+1, … — a gather-write over a precomputed
// address vector. Like WriteRange it stops after the first write that wears
// a page out (that write is applied and the failure marked, matching Write)
// and returns how many writes were applied. Schemes whose bulk paths scatter
// across the address space fill a scratch vector and hand it here, so the
// wear/payload/endurance slice headers and the device write counter stay in
// registers instead of being re-touched per write.
//
//twl:hotpath
func (d *Device) WriteSeq(pps []int, tag uint64) int {
	wear := d.wear
	end := d.endurance[:len(wear)]
	pay := d.payload[:len(wear)]
	redirected := d.redirect != nil
	for i, pp := range pps {
		if redirected {
			pp = d.resolve(pp)
		}
		w := wear[pp] + 1
		wear[pp] = w
		pay[pp] = tag + uint64(i)
		if w >= end[pp] {
			if w == end[pp] {
				d.failedLog = append(d.failedLog, pp)
			}
			d.writes += uint64(i + 1)
			return i + 1
		}
	}
	d.writes += uint64(len(pps))
	return len(pps)
}

// Read reads the payload of physical page pp (following redirects).
func (d *Device) Read(pp int) uint64 {
	d.reads++
	return d.payload[d.resolve(pp)]
}

// Peek returns the payload without counting a device read (used by schemes
// when migrating pages: the migration read is part of the swap operation and
// its latency is charged separately).
func (d *Device) Peek(pp int) uint64 { return d.payload[d.resolve(pp)] }

// Failed reports the first failure no fault-tolerance layer has handled.
// Without such a layer (no AckFailures calls) that is simply the first page
// to wear out, exactly as before spares existed; with one, failures the
// layer retired and acknowledged are invisible here and the run continues.
func (d *Device) Failed() (page int, failed bool) {
	if d.acked < len(d.failedLog) {
		return d.failedLog[d.acked], true
	}
	return -1, false
}

// FailedPages returns how many cells have reached their endurance,
// including retired ones and worn-out spares.
func (d *Device) FailedPages() int { return len(d.failedLog) }

// FailureAt returns the i-th failed cell (0 <= i < FailedPages()), in
// failure order. A fault-tolerance layer drains the log through this.
func (d *Device) FailureAt(i int) int { return d.failedLog[i] }

// AckFailures marks the first n logged failures as handled by a
// fault-tolerance layer; Failed then reports the (n+1)-th failure, if any.
// n must not shrink or exceed the log — a misbehaving layer is a
// programming error, not a device state.
func (d *Device) AckFailures(n int) {
	if n < d.acked || n > len(d.failedLog) {
		panic(fmt.Sprintf("pcm: AckFailures(%d) outside [%d,%d]", n, d.acked, len(d.failedLog)))
	}
	d.acked = n
}

// Remap retires the visible page from, pointing it at the spare page to:
// subsequent accesses to from resolve to to, and to inherits from's current
// payload. The copy models the retirement migration; it is a metadata
// operation on the simulator's books — no wear, no write count — so scheme
// invariants over TotalWrites hold unchanged across a retirement (the
// single migration write is negligible against the millions a spare
// absorbs).
//
// A retired page may be remapped again (its spare wore out and the layer
// moves it to a fresh spare); the exhausted spare leaves service. Remap
// invalidates the min-remaining watermark: the live cell set changed, so
// the minimum may recover.
func (d *Device) Remap(from, to int) error {
	visible := d.geom.Pages
	if from < 0 || from >= visible {
		return fmt.Errorf("pcm: Remap from %d outside visible range [0,%d)", from, visible)
	}
	if to < visible || to >= d.geom.TotalPages() {
		return fmt.Errorf("pcm: Remap to %d outside spare range [%d,%d)", to, visible, d.geom.TotalPages())
	}
	if d.redirect == nil {
		d.redirect = make([]int, d.geom.TotalPages())
		for i := range d.redirect {
			d.redirect[i] = -1
		}
		d.isTarget = make([]bool, d.geom.TotalPages())
	}
	if d.isTarget[to] {
		return fmt.Errorf("pcm: Remap target %d already serves a retired page", to)
	}
	src := d.resolve(from)
	if old := d.redirect[from]; old >= 0 {
		d.isTarget[old] = false
	}
	d.payload[to] = d.payload[src]
	d.redirect[from] = to
	d.isTarget[to] = true
	d.slack = 0
	d.slackAt = d.writes
	d.slackValid = false
	return nil
}

// Redirect reports the spare serving visible page pp, if it was retired.
func (d *Device) Redirect(pp int) (spare int, retired bool) {
	if d.redirect == nil || d.redirect[pp] < 0 {
		return -1, false
	}
	return d.redirect[pp], true
}

// TotalWrites returns the number of page writes applied to the array.
func (d *Device) TotalWrites() uint64 { return d.writes }

// TotalReads returns the number of page reads served.
func (d *Device) TotalReads() uint64 { return d.reads }

// TotalEndurance returns the sum of all cells' endurance, spares included —
// the number of page writes a perfect wear-leveler with perfect retirement
// could absorb. The ideal-lifetime calculations use this. The sum cannot
// wrap: at most 2^31 pages (Geometry.Validate) of at most MaxEndurance
// (2^31) each stay below 2^62.
func (d *Device) TotalEndurance() uint64 {
	var sum uint64
	for _, e := range d.endurance {
		sum += uint64(e)
	}
	return sum
}

// WearSummary aggregates the wear state of the array.
type WearSummary struct {
	TotalWear   uint64
	MaxWear     uint64
	MaxWearPage int
	// MaxFraction is the highest wear/endurance ratio across pages — 1.0
	// means some page is worn out.
	MaxFraction     float64
	MaxFractionPage int
	MeanFraction    float64
}

// Summary computes the current WearSummary.
//
// The wear fraction is computed as w * (1/e), reciprocal then multiply, and
// every wear-fraction reader uses that same expression, so summaries and
// histograms agree bit for bit.
func (d *Device) Summary() WearSummary {
	var s WearSummary
	s.MaxWearPage = -1
	s.MaxFractionPage = -1
	var fracSum float64
	for pp, w32 := range d.wear {
		w := uint64(w32)
		s.TotalWear += w
		if w > s.MaxWear {
			s.MaxWear = w
			s.MaxWearPage = pp
		}
		f := float64(w) * (1 / float64(d.endurance[pp]))
		fracSum += f
		if f > s.MaxFraction {
			s.MaxFraction = f
			s.MaxFractionPage = pp
		}
	}
	if len(d.wear) > 0 {
		s.MeanFraction = fracSum / float64(len(d.wear))
	}
	return s
}

// WearHistogram bins wear/endurance fractions into the given number of
// buckets over [0, 1]; fractions above 1 land in the last bucket.
func (d *Device) WearHistogram(buckets int) []int {
	if buckets <= 0 {
		return nil
	}
	h := make([]int, buckets)
	for pp, w := range d.wear {
		f := float64(w) * (1 / float64(d.endurance[pp]))
		b := int(f * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		h[b]++
	}
	return h
}

// Reset clears wear, payloads, failure and retirement state but keeps the
// endurance map.
func (d *Device) Reset() {
	for i := range d.wear {
		d.wear[i] = 0
	}
	for i := range d.payload {
		d.payload[i] = 0
	}
	d.writes = 0
	d.reads = 0
	d.failedLog = nil
	d.acked = 0
	d.redirect = nil
	d.isTarget = nil
	d.slack = 0
	d.slackAt = 0
	d.slackValid = false
}

// Footprint itemizes the device's per-page state arrays in bytes — the
// layout audit behind the bytes-per-page accounting in BENCH reports.
// Redirect is zero until the first retirement materializes the table.
type Footprint struct {
	Wear      int64 `json:"wear"`
	Endurance int64 `json:"endurance"`
	Payload   int64 `json:"payload"`
	Redirect  int64 `json:"redirect"`
}

// Total sums the itemized bytes.
func (f Footprint) Total() int64 {
	return f.Wear + f.Endurance + f.Payload + f.Redirect
}

// PerPage returns Total divided by the page count.
func (f Footprint) PerPage(pages int) float64 {
	if pages <= 0 {
		return 0
	}
	return float64(f.Total()) / float64(pages)
}

// Footprint reports the device's current per-page memory layout.
func (d *Device) Footprint() Footprint {
	f := Footprint{
		Wear:      int64(len(d.wear)) * 4,
		Endurance: int64(len(d.endurance)) * 4,
		Payload:   int64(len(d.payload)) * 8,
	}
	if d.redirect != nil {
		f.Redirect = int64(len(d.redirect))*8 + int64(len(d.isTarget))
	}
	return f
}
