package main

import (
	"fmt"
	"time"

	"p2"
	"p2/internal/cost"
	"p2/internal/dsl"
	"p2/internal/hierarchy"
	"p2/internal/lower"
	"p2/internal/placement"
	"p2/internal/synth"
)

// layerWork accumulates what the probes of a traced pass did and how long
// each layer's public function took. A probe re-runs one layer on the
// request's own inputs after the engine call, so it gives the cost of a
// unit of that layer's work; plan.Stats says how many units the pruned
// engine really did. Probe time is never engine time.
type layerWork struct {
	matrices, builds, signatures int
	synthRuns, programs          int
	lowered, steps               int
	emulations                   int
	iterate, build, synth        time.Duration
	lower, cost, netsim          time.Duration
}

// reduction is one reduction a request plans: its axes and payload.
type reduction struct {
	axes  []int
	bytes float64
}

func reductionsOf(r *resolved) []reduction {
	if r.Joint == nil {
		return []reduction{{r.req.ReduceAxes, r.req.Bytes}}
	}
	out := make([]reduction, len(r.Joint))
	for i, red := range r.Joint {
		out[i] = reduction{red.ReduceAxes, red.Bytes}
	}
	return out
}

// probe re-runs placement.Iterate, hierarchy.Build (every placement),
// synth.Synthesize, lower.Lower and cost.Scorer.ProgramTime (every
// signature among the returned placements, which the engine certainly
// synthesized) and, for measured requests, Strategy.Measure on the
// returned strategies, each inside a probe.* span under root. It returns
// the number of programs synthesized, which must repeat exactly.
func probe(tr *tracer, root int, id string, r *resolved, out planOutcome, lw *layerWork) (int, error) {
	var mats []*placement.Matrix
	var err error
	lw.iterate += tr.timed("probe.placement", id, root, func() {
		err = placement.Iterate(r.sys.Hierarchy(), r.Axes, func(m *placement.Matrix) bool {
			mats = append(mats, m)
			return true
		})
	})
	if err != nil {
		return 0, fmt.Errorf("%s: probe placement: %w", r.Name, err)
	}
	lw.matrices += len(mats)

	type sigHier struct {
		red reduction
		h   *hierarchy.Hierarchy
	}
	returned := map[string]bool{}
	for _, m := range out.matrices() {
		returned[m.String()] = true
	}
	var toSynth []sigHier
	lw.build += tr.timed("probe.hierarchy", id, root, func() {
		for _, red := range reductionsOf(r) {
			var order []string
			first := map[string]*hierarchy.Hierarchy{}
			want := map[string]bool{}
			for _, m := range mats {
				h, berr := hierarchy.Build(hierarchy.KindReductionAxes, m, red.axes,
					hierarchy.Options{Collapse: len(red.axes) > 1})
				if berr != nil {
					err = berr
					return
				}
				lw.builds++
				sig := h.Signature()
				if first[sig] == nil {
					first[sig] = h
					order = append(order, sig)
				}
				if returned[m.String()] {
					want[sig] = true
				}
			}
			lw.signatures += len(order)
			for _, sig := range order {
				if want[sig] {
					toSynth = append(toSynth, sigHier{red, first[sig]})
				}
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("%s: probe hierarchy: %w", r.Name, err)
	}

	progs := make([][]dsl.Program, len(toSynth))
	lw.synth += tr.timed("probe.synth", id, root, func() {
		for i, sh := range toSynth {
			progs[i] = synth.Synthesize(sh.h, synth.Options{MaxSize: synth.DefaultMaxSize}).Programs
		}
	})
	programs := 0
	for _, ps := range progs {
		programs += len(ps)
	}
	lw.synthRuns += len(toSynth)
	lw.programs += programs

	lowered := make([][]*lower.Program, len(toSynth))
	lw.lower += tr.timed("probe.lower", id, root, func() {
		for i, sh := range toSynth {
			for _, p := range progs[i] {
				lp, lerr := lower.Lower(p, sh.h)
				if lerr != nil {
					err = lerr
					return
				}
				lowered[i] = append(lowered[i], lp)
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("%s: probe lower: %w", r.Name, err)
	}
	for _, lps := range lowered {
		lw.lowered += len(lps)
		for _, lp := range lps {
			lw.steps += len(lp.Steps)
		}
	}

	scorer := cost.NewScorer(r.sys)
	models := make([]*cost.Model, len(toSynth))
	for i, sh := range toSynth {
		bytes := sh.red.bytes
		if bytes <= 0 {
			bytes = cost.DefaultPayload(r.sys)
		}
		models[i] = &cost.Model{Sys: r.sys, Algo: cost.Ring, Bytes: bytes}
	}
	lw.cost += tr.timed("probe.cost", id, root, func() {
		for i, lps := range lowered {
			for _, lp := range lps {
				scorer.ProgramTime(models[i], lp)
			}
		}
	})

	if r.Measure != p2.MeasureOff {
		ss := out.strategies()
		lw.netsim += tr.timed("probe.netsim", id, root, func() {
			for _, s := range ss {
				s.Measure()
			}
		})
		lw.emulations += len(ss)
	}
	return programs, nil
}
