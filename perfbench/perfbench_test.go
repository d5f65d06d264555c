package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"p2"
	"p2/internal/load"
)

var update = flag.Bool("update", false, "rewrite fingerprints.json from the serial reference")

// serialFingerprint computes an entry's reference ranking with the serial
// planners. Measured entries take the serial analytic ranking (its top-K
// for rerank, all of it for rank-all), emulate each strategy, and sort
// stably by measured time so analytic order breaks ties.
func serialFingerprint(t *testing.T, r *resolved) string {
	if r.Joint != nil {
		jp, err := p2.PlanJointSerial(r.sys, r.Axes, r.Joint)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		return fingerprintJoint(jp.Choices[:min(r.TopK, len(jp.Choices))])
	}
	res, err := p2.PlanSerial(r.sys, r.req)
	if err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	ss := res.Strategies
	if r.Measure == p2.MeasureRerank {
		ss = ss[:min(r.TopK, len(ss))]
	}
	if r.Measure != p2.MeasureOff {
		for _, s := range ss {
			s.Measured = s.Measure()
		}
		sort.SliceStable(ss, func(i, j int) bool { return ss[i].Measured < ss[j].Measured })
	}
	return fingerprintStrategies(ss[:min(r.TopK, len(ss))])
}

// TestFingerprintsMatchSerialReference regenerates every committed
// fingerprint from the serial reference and requires bit-identical
// results. It takes about half a minute.
func TestFingerprintsMatchSerialReference(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("serial reference takes ~30s")
	}
	got := map[string]string{}
	for _, cat := range [][]entry{planColdCatalog, planMeasuredCatalog} {
		rs, err := resolveAll(cat)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			got[r.Name] = serialFingerprint(t, r)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("fingerprints.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serial reference fingerprints differ from fingerprints.json:\n got %v\nwant %v", got, want)
	}
}

// TestEngineMatchesFingerprints plans each catalog entry once on the
// engine and checks it against the committed reference, the check every
// benchmark request makes.
func TestEngineMatchesFingerprints(t *testing.T) {
	fps, err := loadFingerprints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range [][]entry{planColdCatalog, planMeasuredCatalog} {
		rs, err := resolveAll(cat)
		if err != nil {
			t.Fatal(err)
		}
		once := func(done int, _ time.Duration) []int {
			if done > 0 {
				return nil
			}
			return newCycler(1, len(rs)).next()
		}
		if p := runEnginePass(rs, once, fps, nil); p.failed != 0 {
			t.Errorf("%d failures: %v", p.failed, p.samples)
		}
	}
}

// TestSameSeedSameInputs: the inputs of every workload are a pure
// function of the seed, byte for byte.
func TestSameSeedSameInputs(t *testing.T) {
	inputs := func(seed int64) []byte {
		stream, err := load.Generate(serveMix(seed), 500)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal([]any{
			cycleOrder(seed, len(planColdCatalog), 20),
			cycleOrder(seed, len(planMeasuredCatalog), 20),
			stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := inputs(7), inputs(7); string(a) != string(b) {
		t.Fatal("same seed produced different inputs")
	}
}

// TestSeedChangesOrderNotMix: another seed reorders the engine requests
// but requests every catalog entry equally often.
func TestSeedChangesOrderNotMix(t *testing.T) {
	const cycles = 12
	n := len(planColdCatalog)
	a, b := cycleOrder(1, n, cycles), cycleOrder(2, n, cycles)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same order")
	}
	for _, order := range [][][]int{a, b} {
		counts := make([]int, n)
		for _, cyc := range order {
			for _, i := range cyc {
				counts[i]++
			}
		}
		for i, c := range counts {
			if c != cycles {
				t.Fatalf("entry %d requested %d times in %d cycles", i, c, cycles)
			}
		}
	}
}

// TestTailPercentileNeedsTenBeyond: a tail is reported only when at
// least ten samples rank beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
		v  float64
	}{
		{199, 95, false, 0},
		{200, 95, true, 190},
		{999, 99, false, 0},
		{1000, 99, true, 990},
		{100, 90, true, 90},
		{99, 90, false, 0},
	} {
		v, ok := tailPercentile(sample(tc.n), tc.p)
		if ok != tc.ok || v != tc.v {
			t.Errorf("p%v of %d samples = %v, %v; want %v, %v", tc.p, tc.n, v, ok, tc.v, tc.ok)
		}
	}
	if got := percentile(sample(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
}

// TestSelfTimes checks self time on a hand-built tree: overlapping
// children count once, and a child outside its parent counts only
// inside it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartUs: 0, EndUs: 100},
		{ID: 2, Parent: 1, Name: "plan", StartUs: 10, EndUs: 40},
		{ID: 3, Parent: 1, Name: "probe.synth", StartUs: 30, EndUs: 60},
		{ID: 4, Parent: 1, Name: "probe.cost", StartUs: 90, EndUs: 120},
		{ID: 5, Parent: 2, Name: "inner", StartUs: 15, EndUs: 20},
	}
	us := time.Microsecond
	want := map[int]time.Duration{1: 40 * us, 2: 25 * us, 3: 30 * us, 4: 30 * us, 5: 5 * us}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	sum := summarize(spans)
	if s := sum["request"]; s.Count != 1 || s.TotalMs != 0.1 || s.SelfMs != 0.04 {
		t.Fatalf("request summary %+v", s)
	}
}

// TestBenchmarkJSONMatchesGatedMetrics keeps BENCHMARK.json's metric
// lists and the metrics the final line carries in step.
func TestBenchmarkJSONMatchesGatedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(bench.EndToEnd); !reflect.DeepEqual(got, endToEndGated) {
		t.Errorf("BENCHMARK.json end_to_end %v, gated %v", got, endToEndGated)
	}
	if got := names(bench.PerLayer); !reflect.DeepEqual(got, perLayerGated) {
		t.Errorf("BENCHMARK.json per_layer %v, gated %v", got, perLayerGated)
	}
}

// TestTracedCountersRepeat runs the plan-measured traced run under two
// seeds: every request passes its consistency checks, and the counters
// that are pure functions of the requests come out identical.
func TestTracedCountersRepeat(t *testing.T) {
	w := engineWorkload{catalog: planMeasuredCatalog, traceCycles: 2}
	var runs []*outcome
	for _, seed := range []int64{1, 2} {
		o, err := runEngine(config{workload: "plan-measured", seed: seed, seconds: 1, trace: true}, w)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("seed %d: %d failures: %v", seed, o.failed, o.samples)
		}
		runs = append(runs, o)
	}
	for _, name := range []string{"placement.matrices", "hierarchy.signatures", "synth.programs",
		"netsim.emulations", "plan.rank_inversions"} {
		a, b := runs[0].metrics[name].Value, runs[1].metrics[name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v under seed 1, %v under seed 2", name, a, b)
		}
	}
}
