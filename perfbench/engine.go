package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"p2"
	"p2/internal/plan"
)

// minSamples is the fewest requests an engine run measures, in whole
// catalog cycles, whatever --seconds says: the p90 needs ten samples
// beyond it, and a plan-cold cycle takes about two seconds.
const minSamples = 100

// planOutcome is one engine answer: a ranking or a joint ranking.
type planOutcome struct {
	stats   plan.Stats
	partial bool
	ranked  []*p2.Strategy
	joint   []*p2.JointChoice
}

func (o planOutcome) fingerprint() string {
	if o.joint != nil {
		return fingerprintJoint(o.joint)
	}
	return fingerprintStrategies(o.ranked)
}

// matrices are the placements of the returned ranking.
func (o planOutcome) matrices() []*p2.Matrix {
	var out []*p2.Matrix
	for _, s := range o.ranked {
		out = append(out, s.Matrix)
	}
	for _, c := range o.joint {
		out = append(out, c.Matrix)
	}
	return out
}

// strategies are the returned strategies, per-reduction winners included.
func (o planOutcome) strategies() []*p2.Strategy {
	out := append([]*p2.Strategy(nil), o.ranked...)
	for _, c := range o.joint {
		out = append(out, c.PerReduction...)
	}
	return out
}

// callEngine plans one request on a fresh Planner through the root API:
// p2.PlanCtx, or p2.PlanJointCtx for a joint entry.
func callEngine(ctx context.Context, r *resolved) (planOutcome, error) {
	if r.Joint != nil {
		jp, err := p2.PlanJointCtx(ctx, r.sys, r.Axes, r.Joint, p2.JointOptions{TopK: r.TopK, Measure: r.Measure})
		if err != nil {
			return planOutcome{}, err
		}
		return planOutcome{stats: jp.Stats, partial: jp.Partial, joint: jp.Choices}, nil
	}
	res, err := p2.PlanCtx(ctx, r.sys, r.req)
	if err != nil {
		return planOutcome{}, err
	}
	return planOutcome{stats: res.Stats, partial: res.Partial, ranked: res.Strategies}, nil
}

// setupBatch times the engine workloads' set-up: resolving the catalog,
// the program-side work that must happen before the first request
// (building each preset system, applying faults). One resolve takes
// microseconds, too short to time alone, so it returns the time per
// resolve over a batch, run on a freshly collected heap.
func setupBatch(cat []entry) (time.Duration, error) {
	const perBatch = 100
	runtime.GC()
	start := time.Now()
	for i := 0; i < perBatch; i++ {
		if _, err := resolveAll(cat); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / perBatch, nil
}

// consistency checks that counters which are pure functions of the
// request repeat exactly each time an entry is planned, and that the
// engine's accounting closes: for a single reduction every placement is
// either pruned or synthesized or served from the memo.
type consistency struct {
	first map[string]plan.Stats
	progs map[string]int
}

func newConsistency() *consistency {
	return &consistency{first: map[string]plan.Stats{}, progs: map[string]int{}}
}

func (c *consistency) check(r *resolved, st plan.Stats) error {
	if r.Joint == nil && st.SynthRuns+st.MemoHits != st.Placements-st.PrunedPlacements {
		return fmt.Errorf("synth runs %d + memo hits %d != placements %d - pruned %d",
			st.SynthRuns, st.MemoHits, st.Placements, st.PrunedPlacements)
	}
	f, ok := c.first[r.Name]
	if !ok {
		c.first[r.Name] = st
		return nil
	}
	if st.Placements != f.Placements || st.RankInversions != f.RankInversions {
		return fmt.Errorf("placements %d / rank inversions %d, earlier %d / %d",
			st.Placements, st.RankInversions, f.Placements, f.RankInversions)
	}
	return nil
}

func (c *consistency) checkPrograms(r *resolved, n int) error {
	if f, ok := c.progs[r.Name]; ok && f != n {
		return fmt.Errorf("probe synthesized %d programs, earlier %d", n, f)
	}
	c.progs[r.Name] = n
	return nil
}

// enginePass is what one closed-loop pass over an engine catalog saw.
type enginePass struct {
	failures
	latMs []float64     // engine call durations
	wall  time.Duration // the whole pass, set-up batches included
	probe time.Duration // time inside probe spans (traced pass only)
	alloc uint64
	stats plan.Stats // summed over requests
	work  layerWork
}

// runEnginePass sends requests one at a time (a closed loop with one
// caller), one catalog cycle after another while next, given the
// requests made and the time spent so far, returns another cycle. Every
// answer is checked against its reference fingerprint. With a tracer,
// each request is a root span with a plan child and probe children.
func runEnginePass(rs []*resolved, next func(done int, elapsed time.Duration) []int, fps map[string]string, tr *tracer) *enginePass {
	p := &enginePass{}
	cons := newConsistency()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	// Allocation inside next is not the pass's.
	var betweenAlloc uint64
	cycle := func() []int {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		order := next(len(p.latMs), time.Since(start))
		runtime.ReadMemStats(&m1)
		betweenAlloc += m1.TotalAlloc - m0.TotalAlloc
		return order
	}
	for order := cycle(); order != nil; order = cycle() {
		for _, i := range order {
			r := rs[i]
			id := fmt.Sprintf("%s#%d", r.Name, len(p.latMs))
			// Each request starts on a collected heap with its memory
			// returned to the system, as a `p2 synth` process does, so
			// one request's garbage is not collected on the next one's
			// clock and its page faults do not depend on which request
			// the seed put before it.
			debug.FreeOSMemory()
			root := tr.open("request", id, 0)
			t0 := time.Now()
			out, err := callEngine(context.Background(), r)
			t1 := time.Now()
			tr.add("plan", id, root, t0, t1)
			p.latMs = append(p.latMs, ms(t1.Sub(t0)))
			switch {
			case err != nil:
				p.fail(fmt.Sprintf("%s: %v", r.Name, err))
			case out.partial:
				p.fail(fmt.Sprintf("%s: partial result without a deadline", r.Name))
			case out.fingerprint() != fps[r.Name]:
				p.fail(fmt.Sprintf("%s: ranking differs from the serial reference", r.Name))
			default:
				if cerr := cons.check(r, out.stats); cerr != nil {
					p.fail(fmt.Sprintf("%s: %v", r.Name, cerr))
				}
				addStats(&p.stats, out.stats)
			}
			if tr != nil && err == nil {
				pstart := time.Now()
				n, perr := probe(tr, root, id, r, out, &p.work)
				p.probe += time.Since(pstart)
				if perr == nil {
					perr = cons.checkPrograms(r, n)
				}
				if perr != nil {
					p.fail(fmt.Sprintf("%s: %v", r.Name, perr))
				}
			}
			tr.close(root)
		}
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc - betweenAlloc
	return p
}

func addStats(sum *plan.Stats, st plan.Stats) {
	sum.Placements += st.Placements
	sum.SynthRuns += st.SynthRuns
	sum.MemoHits += st.MemoHits
	sum.Candidates += st.Candidates
	sum.PrunedPlacements += st.PrunedPlacements
	sum.PrunedPrograms += st.PrunedPrograms
	sum.BoundTightenings += st.BoundTightenings
	sum.MeasuredCandidates += st.MeasuredCandidates
	sum.RankInversions += st.RankInversions
}

// engineWorkload describes plan-cold or plan-measured.
type engineWorkload struct {
	catalog []entry
	// traceCycles is how many whole catalog cycles the traced run plans,
	// fixed so its counters are the same for every seed.
	traceCycles int
}

func runEngine(cfg config, w engineWorkload) (*outcome, error) {
	fps, err := loadFingerprints()
	if err != nil {
		return nil, err
	}
	for _, e := range w.catalog {
		if fps[e.Name] == "" {
			return nil, fmt.Errorf("no reference fingerprint for %s", e.Name)
		}
	}
	rs, err := resolveAll(w.catalog)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceEngine(cfg, w, rs, fps)
	}
	// Set-up is sampled across the whole run, one batch per request
	// outside the measured window, and the mean batch is reported: on a
	// shared 2-vCPU host the same batch read anywhere from about 6 to
	// about 12 µs per resolve, in spells of a few batches, so a median of
	// a few batches follows whichever spell it lands in.
	var setups []float64
	cyc := newCycler(cfg.seed, len(rs))
	budget := time.Duration(cfg.seconds) * time.Second
	p := runEnginePass(rs, func(done int, elapsed time.Duration) []int {
		if done >= minSamples && elapsed >= budget {
			return nil
		}
		order := cyc.next()
		for range order {
			d, err := setupBatch(w.catalog)
			if err != nil {
				panic(err) // resolveAll already succeeded on this catalog
			}
			setups = append(setups, float64(d))
		}
		return order
	}, fps, nil)
	setup := time.Duration(mean(setups))
	n := len(p.latMs)
	busy := 0.0 // seconds inside the engine calls
	for _, v := range p.latMs {
		busy += v / 1e3
	}
	o := &outcome{failures: p.failures, attempted: n}
	lat := sortedCopy(p.latMs)
	o.add("setup_s", setup.Seconds(), "s")
	o.add("latency_p50_ms", percentile(lat, 50), "ms")
	o.addTail("latency_p90_ms", lat, 90, "ms")
	o.addTail("latency_p95_ms", lat, 95, "ms")
	// One caller waits for each answer, so requests per second of engine
	// time is the rate that caller sees, without the benchmark's own
	// collections and checks between calls.
	o.add("throughput_rps", float64(n)/busy, "req/s")
	o.add("goodput_rps", float64(n-p.failed)/busy, "req/s")
	o.add("error_frac", ratio(float64(p.failed), float64(n)), "ratio")
	o.add("alloc_mb_per_req", float64(p.alloc)/1e6/float64(n), "MB")
	o.add("peak_rss_mb", peakRSSMB(), "MB")
	o.add("samples", float64(n), "count")
	return o, nil
}

// traceEngine plans a fixed number of whole cycles twice, untraced and
// then traced, and derives the per-layer metrics from the traced pass.
func traceEngine(cfg config, w engineWorkload, rs []*resolved, fps map[string]string) (*outcome, error) {
	cycles := cycleOrder(cfg.seed, len(rs), w.traceCycles)
	replay := func() func(int, time.Duration) []int {
		c := 0
		return func(int, time.Duration) []int {
			if c == len(cycles) {
				return nil
			}
			c++
			return cycles[c-1]
		}
	}
	base := runEnginePass(rs, replay(), fps, nil)
	tr := newTracer()
	p := runEnginePass(rs, replay(), fps, tr)
	o := &outcome{failures: base.failures, attempted: len(base.latMs) + len(p.latMs), spans: tr.spans}
	o.merge(p.failures)
	o.addEngineLayers(p.stats, p.work, p.latMs)
	o.add("trace.overhead_frac", (p.wall-p.probe).Seconds()/base.wall.Seconds()-1, "ratio")
	o.addServeLayers(serveCounters{})
	return o, nil
}
