package main

import (
	"fmt"
	"math/rand"

	"p2"
)

// entry is one planning request, written the way a `p2 synth` user
// states it: a preset system (optionally degraded), axes, reduction axes,
// payload (0 is the default), algorithm or algorithm search, top-K and
// measured mode. A non-nil Joint makes it a PlanJointCtx request over
// those reductions instead.
type entry struct {
	Name    string
	System  string
	Nodes   int
	Faults  string
	Axes    []int
	Reduce  []int
	Bytes   float64
	Algo    p2.Algorithm
	Auto    bool
	TopK    int
	Measure p2.MeasureMode
	Joint   []p2.Reduction
}

// planColdCatalog is the plan-cold input set: every request plans on a
// fresh Planner, so synthesis is always cold. The entries span the three
// preset families, one to three axes, single and multi-axis reductions,
// the auto algorithm search, a degraded fabric, bound pruning both armed
// and idle (superpod:4x8 [16 16] prunes 8 of 10 placements reducing axis
// 0 and none reducing axis 1), the 2k-GPU a100 frontier, and a joint
// request.
var planColdCatalog = []entry{
	{Name: "fig2a-16-r0", System: "fig2a", Axes: []int{16}, Reduce: []int{0}, TopK: 5},
	{Name: "superpod2x2-32-auto", System: "superpod:2x2", Axes: []int{32}, Reduce: []int{0}, Auto: true, TopK: 5},
	{Name: "superpod4x8-16x16-r0", System: "superpod:4x8", Axes: []int{16, 16}, Reduce: []int{0}, TopK: 5},
	{Name: "superpod4x8-16x16-r1", System: "superpod:4x8", Axes: []int{16, 16}, Reduce: []int{1}, TopK: 5},
	{Name: "superpod3x4-8x12-fault", System: "superpod:3x4", Faults: "node:0/1:bw/10", Axes: []int{8, 12}, Reduce: []int{0}, TopK: 5},
	{Name: "superpod4x8-4x8x8-r01", System: "superpod:4x8", Axes: []int{4, 8, 8}, Reduce: []int{0, 1}, TopK: 5},
	{Name: "a100n8-4x4x8-r02", System: "a100", Nodes: 8, Axes: []int{4, 4, 8}, Reduce: []int{0, 2}, TopK: 5},
	{Name: "a100n64-64x16-r0", System: "a100", Nodes: 64, Axes: []int{64, 16}, Reduce: []int{0}, TopK: 5},
	{Name: "a100n128-128x16-r0", System: "a100", Nodes: 128, Axes: []int{128, 16}, Reduce: []int{0}, TopK: 5},
	{Name: "joint-superpod2x4-8x8", System: "superpod:2x4", Axes: []int{8, 8}, TopK: 5, Joint: []p2.Reduction{
		{ReduceAxes: []int{0}, Bytes: 1 << 30},
		{ReduceAxes: []int{1}, Bytes: 64 << 20, Count: 48},
	}},
}

// planMeasuredCatalog is the plan-measured input set: measured-in-the-loop
// requests, where the network emulator (netsim) does most of the work.
// The rerank entries measure the analytic top-K; the rank-all entries
// measure every candidate with bound pruning disarmed.
var planMeasuredCatalog = []entry{
	{Name: "superpod4x8-16x16-rerank10", System: "superpod:4x8", Axes: []int{16, 16}, Reduce: []int{0}, TopK: 10, Measure: p2.MeasureRerank},
	{Name: "superpod3x4-8x12-rerank10", System: "superpod:3x4", Axes: []int{8, 12}, Reduce: []int{0}, TopK: 10, Measure: p2.MeasureRerank},
	{Name: "superpod2x4-8x8-auto-rerank20", System: "superpod:2x4", Axes: []int{8, 8}, Reduce: []int{0}, Auto: true, TopK: 20, Measure: p2.MeasureRerank},
	{Name: "a100n4-8x8-r1-auto-rerank20", System: "a100", Nodes: 4, Axes: []int{8, 8}, Reduce: []int{1}, Auto: true, TopK: 20, Measure: p2.MeasureRerank},
	{Name: "fig2a-4x4-rankall10", System: "fig2a", Axes: []int{4, 4}, Reduce: []int{0}, TopK: 10, Measure: p2.MeasureRankAll},
	{Name: "a100n2-4x8-r1-rankall5", System: "a100", Nodes: 2, Axes: []int{4, 8}, Reduce: []int{1}, TopK: 5, Measure: p2.MeasureRankAll},
}

// resolved is an entry turned into the program's own inputs.
type resolved struct {
	*entry
	sys *p2.System
	req p2.Request
}

// resolve builds the system (with any faults applied) and the request of
// an entry through the public p2 API, exactly as the CLI does.
func resolve(e *entry) (*resolved, error) {
	sys, err := p2.ParseSystem(e.System, e.Nodes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	if e.Faults != "" {
		ov, err := p2.ParseFaults(sys, e.Faults)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		if sys, err = sys.WithOverrides(ov...); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	req := p2.Request{Axes: e.Axes, ReduceAxes: e.Reduce, Bytes: e.Bytes, Algo: e.Algo,
		TopK: e.TopK, Measure: e.Measure}
	if e.Auto {
		req.Algos = p2.ExtendedAlgorithms
	}
	return &resolved{entry: e, sys: sys, req: req}, nil
}

// resolveAll resolves a catalog in order.
func resolveAll(cat []entry) ([]*resolved, error) {
	out := make([]*resolved, len(cat))
	for i := range cat {
		r, err := resolve(&cat[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// cycler draws consecutive seeded permutations of the catalog indices.
type cycler struct {
	rng *rand.Rand
	n   int
}

func newCycler(seed int64, n int) *cycler {
	return &cycler{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (c *cycler) next() []int { return c.rng.Perm(c.n) }

// cycleOrder returns the first `cycles` permutations of a cycler: the
// request order of an engine run, in which every entry is requested
// exactly once per cycle, so any run of whole cycles keeps the mix exact.
func cycleOrder(seed int64, n, cycles int) [][]int {
	c := newCycler(seed, n)
	out := make([][]int, cycles)
	for i := range out {
		out[i] = c.next()
	}
	return out
}
