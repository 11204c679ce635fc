package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"twl/internal/wl"
)

// The device stores wear and endurance as uint32 and the tables store page
// addresses in 32 bits. Until that became the only layout, every scheme also
// ran on a 64-bit device, and a differential test required the two to agree
// on every observable. wideReferencePath holds those observables as the
// 64-bit device produced them — for every registered scheme against every
// differential source kind — so the comparison outlives the 64-bit code.
const wideReferencePath = "testdata/wide_device_reference.json"

var updateWideRef = flag.Bool("update-wide-ref", false,
	"rewrite "+wideReferencePath+" from the current device (the committed file was recorded on the 64-bit layout)")

// wideObservables is one configuration's recorded run: every LifetimeResult
// field, the device totals, and SHA-256 digests of the per-page wear and
// payload maps and of the rendered metrics and trace.
type wideObservables struct {
	Scheme         string `json:"scheme"`
	DemandWrites   uint64 `json:"demand_writes"`
	DemandReads    uint64 `json:"demand_reads"`
	DeviceWrites   uint64 `json:"device_writes"`
	SwapWrites     uint64 `json:"swap_writes"`
	Swaps          uint64 `json:"swaps"`
	FailedPage     int    `json:"failed_page"`
	Capped         bool   `json:"capped"`
	FailCause      string `json:"fail_cause"`
	NormalizedBits uint64 `json:"normalized_bits"`
	Cycles         int64  `json:"cycles"`
	Writes         uint64 `json:"writes"`
	Reads          uint64 `json:"reads"`
	Wear           string `json:"wear_sha256"`
	Payload        string `json:"payload_sha256"`
	Metrics        string `json:"metrics_sha256"`
	Trace          string `json:"trace_sha256"`
}

func digestU64s(vs []uint64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestText(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

func observe(r diffRun) wideObservables {
	o := wideObservables{
		Scheme:         r.res.Scheme,
		DemandWrites:   r.res.DemandWrites,
		DemandReads:    r.res.DemandReads,
		DeviceWrites:   r.res.DeviceWrites,
		SwapWrites:     r.res.SwapWrites,
		Swaps:          r.res.Swaps,
		FailedPage:     r.res.FailedPage,
		Capped:         r.res.Capped,
		NormalizedBits: math.Float64bits(r.res.Normalized),
		Cycles:         r.res.Cycles,
		Writes:         r.writes,
		Reads:          r.reads,
		Wear:           digestU64s(r.wear),
		Payload:        digestU64s(r.payload),
		Metrics:        digestText(r.metricsText),
		Trace:          digestText(r.traceText),
	}
	if r.res.FailCause != nil {
		o.FailCause = r.res.FailCause.Error()
	}
	return o
}

// TestPackedDeviceDifferential runs every registered scheme against every
// source kind on the device, through the fast-forward path, and requires
// bit-identical observables to the 64-bit device's recorded run: the
// LifetimeResult, the per-page wear and payload maps, device totals, the
// rendered metrics and the trace events. Combined with
// TestFastForwardDifferential (fast vs per-write on the same device) this
// closes the square — all four path combinations produce identical
// lifetimes.
func TestPackedDeviceDifferential(t *testing.T) {
	var ref map[string]wideObservables
	if !*updateWideRef {
		data, err := os.ReadFile(wideReferencePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]wideObservables{}
	for _, name := range wl.Names() {
		for _, kind := range []string{"repeat", "scan", "trace", "inconsistent"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				run := diffRunOne(t, registryFactory(name), kind, false)
				if run.res.Capped && run.res.DemandWrites == 0 {
					t.Fatal("run served no writes; differential test is vacuous")
				}
				o := observe(run)
				got[name+"/"+kind] = o
				if *updateWideRef {
					return
				}
				want, ok := ref[name+"/"+kind]
				if !ok {
					t.Fatalf("no recorded 64-bit run for %s/%s", name, kind)
				}
				if o != want {
					t.Errorf("observables differ from the 64-bit device:\ngot:  %+v\nwide: %+v", o, want)
				}
			})
		}
	}
	if *updateWideRef {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wideReferencePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
