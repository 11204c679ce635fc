package main

import (
	"fmt"
	"math"
)

// Workload names. The campaign (in-process twlsimd) is measured by the
// traced run only; its end-to-end figures are file-system bound and too
// noisy to gate, so it is not a workload of the end-to-end run.
const (
	wFig6     = "fig6-observed"
	wParsec   = "parsec"
	wLarge    = "large-device"
	wCampaign = "campaign"
)

var workloadNames = []string{wFig6, wParsec, wLarge}

// nominalPassSeconds is each workload's pass length on the reference host
// (2 cores, 2 MiB L2 per core). A run makes round(--seconds / nominal)
// passes, at least minPasses, so the work in a run is fixed by --seconds and
// not by the speed of the code measured.
var nominalPassSeconds = map[string]float64{
	wFig6:   1.0,
	wParsec: 2.0,
	wLarge:  2.0,
}

const minPasses = 3

func passCount(workload string, seconds float64) int {
	n := int(math.Round(seconds / nominalPassSeconds[workload]))
	if n < minPasses {
		n = minPasses
	}
	return n
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2e holds the samples of one untraced run.
type e2e struct {
	setupS  []float64 // per pass
	wps     []float64 // per pass
	jobS    []float64 // per pass
	heapMiB float64
}

func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":      {median(e.setupS), "s"},
		"writes_per_s": {median(e.wps), "1/s"},
		"live_heap_mb": {e.heapMiB, "MiB"},
		"cold_job_s":   {median(e.jobS), "s"},
	}
}

// passTotals accumulates one pass of a lifetime workload.
type passTotals struct {
	setupNS, simNS int64
	writes         uint64
}

func (e *e2e) addPass(t passTotals) {
	if t.writes == 0 {
		return // every operation of the pass failed
	}
	e.setupS = append(e.setupS, float64(t.setupNS)/1e9)
	e.wps = append(e.wps, float64(t.writes)/(float64(t.simNS)/1e9))
	e.jobS = append(e.jobS, float64(t.setupNS+t.simNS)/1e9)
}

// runCells runs one pass over cells in normal mode.
func runCells(cells []cellSpec, ck *checker, e *e2e) passTotals {
	var t passTotals
	for _, c := range cells {
		r, err := runCell(c, modeNormal, nil, -1)
		problem := ""
		if err == nil {
			problem = lifetimeProblem(c, r.Res)
		}
		ck.op(c.ID, fromLifetime(r.Res), err, problem)
		if err != nil {
			continue
		}
		t.setupNS += r.SetupNS
		t.simNS += r.SimNS
		t.writes += r.Res.DemandWrites
		e.heapMiB = math.Max(e.heapMiB, r.HeapMiB)
	}
	return t
}

// passCells returns pass p's copy of cells. Pass 0 runs the cells as
// defined for the workload seed (the ones expected.json pins); every later
// pass runs replicas on seeds derived from (seed, p) under "#p" ids, so a
// run averages over many inputs instead of repeating one.
func passCells(cells func(seed uint64) []cellSpec, seed uint64, p int) []cellSpec {
	if p == 0 {
		return cells(seed)
	}
	out := cells(splitmix64(seed ^ uint64(p)<<32))
	for i := range out {
		out[i].ID = fmt.Sprintf("%s#%d", out[i].ID, p)
	}
	return out
}

func largeCells(seed uint64) []cellSpec { return []cellSpec{largeRandomCell(seed)} }

// runLifetimeWorkload runs the untraced passes of fig6-observed, parsec or
// large-device.
func runLifetimeWorkload(w string, seed uint64, passes int, ck *checker) *e2e {
	e := &e2e{}
	for p := 0; p < passes; p++ {
		switch w {
		case wFig6:
			e.addPass(runCells(passCells(fig6Cells, seed, p), ck, e))
		case wParsec:
			e.addPass(runCells(passCells(parsecCells, seed, p), ck, e))
		case wLarge:
			cells := passCells(largeCells, seed, p)
			t := runCells(cells, ck, e)
			id, sys := largeShardedID(), largeShardedSys(seed)
			if p > 0 {
				id, sys = fmt.Sprintf("%s#%d", id, p), largeShardedSys(cells[0].Sys.Seed)
			}
			sr, err := runSharded(sys, false, nil, -1)
			rec, problem := record{}, ""
			if err == nil {
				rec, problem = fromSharded(sr.Res), shardedProblem(sr.Res)
				t.simNS += sr.NS
				t.writes += sr.Res.DemandWrites
			}
			ck.op(id, rec, err, problem)
			e.addPass(t)
		}
	}
	return e
}

// layerSums accumulates traced cells for the per-layer metrics.
type layerSums struct {
	writes, reads, swapWrites, deviceWrites uint64
	simTraced, simNormal, simBare           float64 // ns
	srcNS, schemeNS                         float64 // estimated ns
	readNS                                  float64
	readCalls                               uint64
	bulkWrites, bulkCalls                   uint64
	regUpdates                              uint64
	traceBytes                              int64
	perScheme                               map[string][2]float64 // est ns, writes
}

func (s *layerSums) add(normal, traced cellRun) {
	r := traced.Res
	s.writes += r.DemandWrites
	s.reads += r.DemandReads
	s.swapWrites += r.SwapWrites
	s.deviceWrites += r.DeviceWrites
	s.simTraced += float64(traced.SimNS)
	s.simNormal += float64(normal.SimNS)
	s.srcNS += traced.Source.estNS()
	s.schemeNS += traced.Scheme.estNS()
	s.readNS += traced.Scheme.read.EstNS()
	s.readCalls += traced.Scheme.read.Calls
	s.bulkWrites += traced.Source.bulkWrites
	s.bulkCalls += traced.Source.bulk.Calls
	s.regUpdates += normal.RegUpdates
	s.traceBytes += normal.TraceBytes
	if s.perScheme == nil {
		s.perScheme = map[string][2]float64{}
	}
	ps := s.perScheme[r.Scheme]
	ps[0] += traced.Scheme.estNS()
	ps[1] += float64(r.DemandWrites)
	s.perScheme[r.Scheme] = ps
}

func (s *layerSums) perWrite(x float64) float64 { return x / float64(s.writes) }

// bulkFrac is the share of demand writes delivered through NextRun or
// NextSweep. A run ending mid-commitment leaves the committed count above
// the served one, hence the clamp.
func (s *layerSums) bulkFrac() float64 {
	return math.Min(float64(s.bulkWrites), float64(s.writes)) / float64(s.writes)
}

// common emits the metrics every traced lifetime workload reports.
func (s *layerSums) common(w string, m map[string]metric) {
	m["sim.bulk_write_frac."+w] = metric{s.bulkFrac(), "ratio"}
	m["wl.ns_per_write."+w] = metric{s.perWrite(s.schemeNS), "ns"}
	m["wl.swap_write_ratio."+w] = metric{s.perWrite(float64(s.swapWrites)), "ratio"}
	m["pcm.device_writes_per_demand."+w] = metric{s.perWrite(float64(s.deviceWrites)), "ratio"}
	m["bench.trace_overhead_frac."+w] = metric{s.simTraced/s.simNormal - 1, "ratio"}
}

// sameResults is the problem when traced or bare runs changed a result.
func sameResults(runs ...cellRun) string {
	for _, r := range runs[1:] {
		if fromLifetime(r.Res).key() != fromLifetime(runs[0].Res).key() {
			return "traced or bare run changed the simulated result"
		}
	}
	return ""
}

// traceCells runs every cell normal and traced (and bare too when bare is
// set, for the observability overhead) and checks that the results agree.
// It also checks that the bulk path carried demand writes exactly when the
// unwrapped source has a bulk interface, which proves the forwarder kept
// sim.RunLifetime on the source's own path.
func traceCells(cells []cellSpec, bare bool, ck *checker, log *spanLog, parent int) (*layerSums, error) {
	s := &layerSums{}
	for _, c := range cells {
		var runs []cellRun
		if bare {
			b, err := runCell(c, modeBare, nil, -1)
			if err != nil {
				return nil, fmt.Errorf("%s (bare): %w", c.ID, err)
			}
			s.simBare += float64(b.SimNS)
			runs = append(runs, b)
		}
		normal, err := runCell(c, modeNormal, nil, -1)
		if err != nil {
			ck.op(c.ID, record{}, err, "")
			continue
		}
		traced, err := runCell(c, modeTraced, log, parent)
		if err != nil {
			ck.op(c.ID, record{}, err, "")
			continue
		}
		runs = append(runs, normal, traced)
		problem := sameResults(runs...)
		if problem == "" {
			problem = lifetimeProblem(c, normal.Res)
		}
		if bulkWanted := traced.Source.bulkSource; problem == "" && (traced.Source.bulkWrites > 0) != bulkWanted {
			problem = fmt.Sprintf("demand writes through the bulk path: %d (expected %s)",
				traced.Source.bulkWrites, map[bool]string{true: "> 0", false: "exactly 0"}[bulkWanted])
		}
		ck.op(c.ID, fromLifetime(normal.Res), nil, problem)
		s.add(normal, traced)
	}
	return s, nil
}

func traceFig6(seed uint64, ck *checker, log *spanLog, m map[string]metric) error {
	ws := log.begin(-1, "workload", wFig6)
	defer ws.end()
	s, err := traceCells(fig6Cells(seed), true, ck, log, ws.ID)
	if err != nil {
		return err
	}
	s.common(wFig6, m)
	// Self time is published on fig6 only: there calls are long bulk calls.
	// On the memory-bound per-request cells of parsec and large-device,
	// timing a call drains the pipeline, the children's estimates absorb
	// overlap that untimed execution hides, and the difference can go
	// below zero.
	m["sim.self_ns_per_write."+wFig6] = metric{s.perWrite(s.simTraced - s.srcNS - s.schemeNS), "ns"}
	m["sim.writes_per_bulk_call."+wFig6] = metric{float64(s.bulkWrites) / float64(s.bulkCalls), "count"}
	m["attack.ns_per_write."+wFig6] = metric{s.perWrite(s.srcNS), "ns"}
	m["obs.overhead_frac"] = metric{(s.simNormal - s.simBare) / s.simBare, "ratio"}
	m["obs.updates_per_write"] = metric{s.perWrite(float64(s.regUpdates)), "count"}
	m["obs.trace_bytes_per_write"] = metric{s.perWrite(float64(s.traceBytes)), "B"}
	for n, ps := range s.perScheme {
		m["wl."+n+".ns_per_write"] = metric{ps[0] / ps[1], "ns"}
	}
	return nil
}

func traceParsec(seed uint64, ck *checker, log *spanLog, m map[string]metric) error {
	ws := log.begin(-1, "workload", wParsec)
	defer ws.end()
	s, err := traceCells(parsecCells(seed), false, ck, log, ws.ID)
	if err != nil {
		return err
	}
	s.common(wParsec, m)
	m["trace.ns_per_write"] = metric{s.perWrite(s.srcNS), "ns"}
	m["trace.reads_per_write"] = metric{s.perWrite(float64(s.reads)), "count"}
	m["wl.read_ns"] = metric{s.readNS / float64(s.readCalls), "ns"}
	return nil
}

func traceLarge(seed uint64, ck *checker, log *spanLog, m map[string]metric) error {
	ws := log.begin(-1, "workload", wLarge)
	defer ws.end()
	first := len(log.spans)
	s, err := traceCells([]cellSpec{largeRandomCell(seed)}, false, ck, log, ws.ID)
	if err != nil {
		return err
	}
	var deviceNS, schemeNS int64
	for _, sp := range log.spans[first:] {
		switch sp.Name {
		case "twl.setup.device":
			deviceNS += sp.dur()
		case "twl.setup.scheme":
			schemeNS += sp.dur()
		}
	}

	sys := largeShardedSys(seed)
	normal, err := runSharded(sys, false, nil, -1)
	if err != nil {
		return err
	}
	traced, err := runSharded(sys, true, log, ws.ID)
	if err != nil {
		return err
	}
	problem := shardedProblem(traced.Res)
	if problem == "" && fromSharded(traced.Res).key() != fromSharded(normal.Res).key() {
		problem = "traced sharded run changed the simulated result"
	}
	ck.op(largeShardedID(), fromSharded(normal.Res), nil, problem)

	s.common(wLarge, m)
	// The sharded run is opaque to the wrappers; it joins only the
	// whole-run ratios.
	r := normal.Res
	m["wl.swap_write_ratio."+wLarge] = metric{float64(s.swapWrites+r.SwapWrites) / float64(s.writes+r.DemandWrites), "ratio"}
	m["pcm.device_writes_per_demand."+wLarge] = metric{float64(s.deviceWrites+r.DeviceWrites) / float64(s.writes+r.DemandWrites), "ratio"}
	m["bench.trace_overhead_frac."+wLarge] = metric{(s.simTraced+float64(traced.NS))/(s.simNormal+float64(normal.NS)) - 1, "ratio"}
	m["attack.ns_per_write."+wLarge] = metric{s.perWrite(s.srcNS), "ns"}
	m["twl.sharded.ns_per_write"] = metric{float64(traced.NS) / float64(r.DemandWrites), "ns"}
	var maxS, total float64
	for _, v := range traced.CellSeconds {
		maxS = math.Max(maxS, v)
		total += v
	}
	m["twl.sharded.shard_imbalance"] = metric{maxS / (total / float64(len(traced.CellSeconds))), "ratio"}
	m["twl.setup.device_s"] = metric{float64(deviceNS) / 1e9, "s"}
	m["twl.setup.scheme_s"] = metric{float64(schemeNS) / 1e9, "s"}
	return nil
}
