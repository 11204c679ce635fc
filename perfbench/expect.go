package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"twl"
)

// Expected simulated results, exact, for every cell of every workload at
// the default seed and at the held-out seed. Regenerate one workload's with
// `python3 perfbench/run.py --workload <w> --seed <n> --seconds 1 --trace 0
// --record` from the repository root (it rewrites perfbench/expected.json);
// a change there is a change of simulated results, never of host speed.

const (
	defaultSeed = 1
	heldOutSeed = 424242
)

//go:embed expected.json
var expectedJSON []byte

// record is the exact simulated outcome of one operation: every
// twl.LifetimeResult field, plus the sharded extras.
type record struct {
	Scheme       string   `json:"scheme"`
	DemandWrites uint64   `json:"demand_writes"`
	DemandReads  uint64   `json:"demand_reads"`
	DeviceWrites uint64   `json:"device_writes"`
	SwapWrites   uint64   `json:"swap_writes"`
	Swaps        uint64   `json:"swaps"`
	FailedPage   int      `json:"failed_page"`
	Capped       bool     `json:"capped"`
	FailCause    string   `json:"fail_cause,omitempty"`
	RetiredPages int      `json:"retired_pages"`
	SparesUsed   int      `json:"spares_used"`
	SparePages   int      `json:"spare_pages"`
	Normalized   float64  `json:"normalized"`
	Cycles       int64    `json:"cycles"`
	Shards       int      `json:"shards,omitempty"`
	ShardPages   int      `json:"shard_pages,omitempty"`
	FailedShard  int      `json:"failed_shard,omitempty"`
	ShardDemand  []uint64 `json:"shard_demand,omitempty"`
}

func fromLifetime(r twl.LifetimeResult) record {
	rec := record{
		Scheme:       r.Scheme,
		DemandWrites: r.DemandWrites,
		DemandReads:  r.DemandReads,
		DeviceWrites: r.DeviceWrites,
		SwapWrites:   r.SwapWrites,
		Swaps:        r.Swaps,
		FailedPage:   r.FailedPage,
		Capped:       r.Capped,
		RetiredPages: r.RetiredPages,
		SparesUsed:   r.SparesUsed,
		SparePages:   r.SparePages,
		Normalized:   r.Normalized,
		Cycles:       r.Cycles,
	}
	if r.FailCause != nil {
		rec.FailCause = r.FailCause.Error()
	}
	return rec
}

func fromSharded(r *twl.ShardedResult) record {
	rec := fromLifetime(r.LifetimeResult)
	rec.Shards = r.Shards
	rec.ShardPages = r.ShardPages
	rec.FailedShard = r.FailedShard
	rec.ShardDemand = r.ShardDemand
	return rec
}

func (r record) key() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a record holds only plain values
	}
	return string(b)
}

// checker collects every operation's outcome for one run: results against
// the committed expectations when the seed has them, invariants always.
type checker struct {
	expected map[string]record // nil: no expectations for this seed
	got      map[string]record // first result per id (determinism check)
	problems []string
	attempt  int
	failed   int
}

func newChecker(seed uint64) (*checker, error) {
	c := &checker{got: map[string]record{}}
	var all map[string]map[string]record
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("perfbench: expected.json: %w", err)
	}
	c.expected = all[strconv.FormatUint(seed, 10)]
	return c, nil
}

// op records one operation: err is its error (nil when it ran), rec its
// result and problem any invariant it broke ("" when none).
func (c *checker) op(id string, rec record, err error, problem string) {
	if err == nil && problem == "" {
		problem = c.verify(id, rec)
	}
	c.count(id, err, problem)
}

// count records one operation's outcome.
func (c *checker) count(id string, err error, problem string) {
	c.attempt++
	if err != nil {
		problem = err.Error()
	}
	if problem != "" {
		c.fail(id, problem)
	}
}

// verify returns what is wrong with rec as the result of id: a different
// result earlier in this run, or a difference from the committed
// expectation. Replica cells ("#p" ids) have no committed expectation.
func (c *checker) verify(id string, rec record) string {
	if first, ok := c.got[id]; ok {
		if first.key() != rec.key() {
			return "result differs from this run's earlier result for the same cell"
		}
		return ""
	}
	if strings.Contains(id, "#") {
		return ""
	}
	c.got[id] = rec
	if c.expected == nil {
		return ""
	}
	want, ok := c.expected[id]
	switch {
	case !ok:
		return "no committed expectation for this cell"
	case want.key() != rec.key():
		return fmt.Sprintf("result %s, expected %s", rec.key(), want.key())
	}
	return ""
}

// fail records a problem not tied to one operation's result.
func (c *checker) fail(id, msg string) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, id+": "+msg)
	}
}

func (c *checker) mode() string {
	if c.expected != nil {
		return "exact results against perfbench/expected.json"
	}
	return fmt.Sprintf("invariant checks only (expected results are committed for seeds %d and %d)", defaultSeed, heldOutSeed)
}

// lifetimeProblem returns the invariant a lifetime result breaks, if any.
func lifetimeProblem(c cellSpec, r twl.LifetimeResult) string {
	switch {
	case r.DemandWrites == 0:
		return "no demand writes served"
	case r.DeviceWrites < r.DemandWrites:
		return "fewer device writes than demand writes"
	case c.Cap == 0 && r.Capped:
		return "run hit the 2x-total-endurance cap without a failure"
	case r.Capped && r.DemandWrites != c.Cap:
		return fmt.Sprintf("capped at %d demand writes, cap %d", r.DemandWrites, c.Cap)
	case !r.Capped && (r.FailedPage < 0 || r.FailedPage >= c.Sys.Pages):
		return fmt.Sprintf("failed page %d out of range", r.FailedPage)
	}
	return ""
}

// shardedProblem returns the invariant a sharded result breaks, if any.
func shardedProblem(r *twl.ShardedResult) string {
	var total uint64
	for _, d := range r.ShardDemand {
		total += d
	}
	switch {
	case len(r.ShardDemand) != r.Shards:
		return "shard demand list does not cover every shard"
	case total != r.DemandWrites:
		return fmt.Sprintf("shard demands sum to %d, merged demand writes %d", total, r.DemandWrites)
	case r.DemandWrites == 0:
		return "no demand writes served"
	case r.FailedShard < -1 || r.FailedShard >= r.Shards:
		return fmt.Sprintf("failed shard %d out of range", r.FailedShard)
	case r.Capped && r.DemandWrites != largeShardedCap:
		return fmt.Sprintf("capped at %d demand writes, cap %d", r.DemandWrites, largeShardedCap)
	}
	return ""
}

// writeExpected merges this run's results into perfbench/expected.json
// under the run's seed.
func writeExpected(seed uint64, got map[string]record) error {
	var all map[string]map[string]record
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return err
	}
	if all == nil {
		all = map[string]map[string]record{}
	}
	key := strconv.FormatUint(seed, 10)
	if all[key] == nil {
		all[key] = map[string]record{}
	}
	for id, r := range got {
		all[key][id] = r
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/expected.json", append(b, '\n'), 0o644)
}
