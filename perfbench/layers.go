package main

import (
	"time"

	"p2/internal/plan"
)

// addEngineLayers adds the engine's per-layer metrics: plan.Stats counts
// of what the pruned engine did, probe costs per unit of work, and the
// mean engine call.
func (o *outcome) addEngineLayers(st plan.Stats, w layerWork, engineMs []float64) {
	per := func(d time.Duration, n int, unit time.Duration) float64 {
		return ratio(float64(d), float64(n)*float64(unit))
	}
	sum := 0.0
	for _, v := range engineMs {
		sum += v
	}
	o.add("placement.matrices", float64(st.Placements), "count")
	o.add("placement.iterate_ms", per(w.iterate, len(engineMs), time.Millisecond), "ms")
	o.add("hierarchy.build_us", per(w.build, w.builds, time.Microsecond), "us")
	o.add("hierarchy.signatures", float64(w.signatures), "count")
	o.add("synth.runs", float64(st.SynthRuns), "count")
	o.add("synth.memo_hit_ratio", ratio(float64(st.MemoHits), float64(st.SynthRuns+st.MemoHits)), "ratio")
	o.add("synth.ms_per_run", per(w.synth, w.synthRuns, time.Millisecond), "ms")
	o.add("synth.programs", float64(w.programs), "count")
	o.add("lower.us_per_program", per(w.lower, w.lowered, time.Microsecond), "us")
	o.add("lower.steps_per_program", ratio(float64(w.steps), float64(w.lowered)), "count")
	o.add("cost.ns_per_step", per(w.cost, w.steps, time.Nanosecond), "ns")
	o.add("plan.engine_ms", ratio(sum, float64(len(engineMs))), "ms")
	o.add("plan.candidates", float64(st.Candidates), "count")
	o.add("plan.pruned_placement_ratio", ratio(float64(st.PrunedPlacements), float64(st.Placements)), "ratio")
	o.add("plan.pruned_program_ratio", ratio(float64(st.PrunedPrograms), float64(st.PrunedPrograms+st.Candidates)), "ratio")
	o.add("plan.bound_tightenings", float64(st.BoundTightenings), "count")
	o.add("netsim.emulations", float64(st.MeasuredCandidates), "count")
	if w.emulations > 0 {
		o.add("netsim.ms_per_emulation", per(w.netsim, w.emulations, time.Millisecond), "ms")
	}
	o.add("plan.rank_inversions", float64(st.RankInversions), "count")
}

// serveCounters are the daemon's /statz deltas over a run; the engine
// workloads run no daemon and report zeros.
type serveCounters struct {
	hits, misses, coalesced, shed, partials int64
}

func (o *outcome) addServeLayers(c serveCounters) {
	o.add("serve.hit_ratio", ratio(float64(c.hits), float64(c.hits+c.misses)), "ratio")
	o.add("serve.coalesced", float64(c.coalesced), "count")
	o.add("serve.shed", float64(c.shed), "count")
	o.add("serve.partials", float64(c.partials), "count")
}
