// Command perfbench is the repository's benchmark. One run measures one
// seeded workload against the planner or the daemon and checks every
// answer against a reference:
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 30 --trace 0
//
// Workloads: plan-cold (the p2.PlanCtx path with a cold synthesis memo),
// serve-mixed (an in-process `p2 serve` under open-loop mixed traffic)
// and plan-measured (measured-in-the-loop planning on the network
// emulator). With --trace 0 it reports end-to-end metrics; with --trace 1
// it runs the workload twice, untraced and traced, records spans around
// the calls into each layer and reports per-layer metrics. It prints
// every metric as "metric <name> <value> <unit>", then one JSON line
// with the gated metrics (those listed in BENCHMARK.json), and writes
// the environment stamp, every metric and any spans under
// .bench_build/perfbench/. See README.md for why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// Gated metrics: what the final JSON line carries, and what
// BENCHMARK.json lists (TestBenchmarkJSONMatchesGatedMetrics keeps the
// two in step). Every workload reports each of them.
var (
	endToEndGated = []string{"setup_s", "throughput_rps", "goodput_rps", "alloc_mb_per_req"}
	perLayerGated = []string{
		"placement.matrices", "placement.iterate_ms",
		"hierarchy.build_us", "hierarchy.signatures",
		"synth.runs", "synth.memo_hit_ratio", "synth.ms_per_run", "synth.programs",
		"lower.us_per_program", "lower.steps_per_program", "cost.ns_per_step",
		"plan.engine_ms", "plan.candidates", "plan.pruned_placement_ratio",
		"plan.pruned_program_ratio", "plan.bound_tightenings",
		"netsim.emulations", "plan.rank_inversions",
		"serve.hit_ratio", "serve.coalesced", "serve.shed", "serve.partials",
		"trace.overhead_frac"}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// failures counts failed checks and keeps the first few messages.
type failures struct {
	failed  int
	samples []string
}

func (f *failures) fail(msg string) {
	f.failed++
	if len(f.samples) < 5 {
		f.samples = append(f.samples, msg)
	}
}

// merge adds another pass's failures.
func (f *failures) merge(g failures) {
	f.failed += g.failed
	f.samples = append(f.samples, g.samples...)
}

// outcome is what one workload run measured and checked.
type outcome struct {
	failures
	attempted int
	names     []string // metric names in report order
	metrics   map[string]metric
	spans     []span
}

func (o *outcome) add(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	if _, dup := o.metrics[name]; !dup {
		o.names = append(o.names, name)
	}
	o.metrics[name] = metric{v, unit}
}

// addTail adds a tail percentile only when enough samples lie beyond it.
func (o *outcome) addTail(name string, sorted []float64, p float64, unit string) {
	if v, ok := tailPercentile(sorted, p); ok {
		o.add(name, v, unit)
	}
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "plan-cold, serve-mixed or plan-measured")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want plan-cold, serve-mixed or plan-measured)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

var workloads = map[string]func(config) (*outcome, error){
	"plan-cold": func(cfg config) (*outcome, error) {
		return runEngine(cfg, engineWorkload{catalog: planColdCatalog, traceCycles: 2})
	},
	"plan-measured": func(cfg config) (*outcome, error) {
		return runEngine(cfg, engineWorkload{catalog: planMeasuredCatalog, traceCycles: 5})
	},
	"serve-mixed": runServe,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if raceEnabled {
		return errors.New("refusing to record numbers from a -race build")
	}
	env := stamp(cfg)
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)
	o, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	for _, name := range o.names {
		m := o.metrics[name]
		fmt.Printf("metric %s %v %s\n", name, m.Value, m.Unit)
	}
	for _, s := range o.samples {
		fmt.Printf("failure %s\n", s)
	}
	if err := writeResults(cfg, env, o); err != nil {
		return err
	}
	gated := endToEndGated
	if cfg.trace {
		gated = perLayerGated
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, name := range gated {
		m, ok := o.metrics[name]
		if !ok {
			missing = append(missing, name)
		}
		res.Metrics[name] = m
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %v", cfg.workload, missing)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d requests differ from the reference or break their contract", o.failed, o.attempted)
	}
	return nil
}

// writeResults keeps the environment stamp, every metric and the spans
// of a traced run in .bench_build/perfbench/.
func writeResults(cfg config, env envStamp, o *outcome) error {
	dir := filepath.Join(".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env         envStamp               `json:"env"`
		Attempted   int                    `json:"attempted"`
		Failed      int                    `json:"failed"`
		Failures    []string               `json:"failures,omitempty"`
		Metrics     map[string]metric      `json:"metrics"`
		SpanSummary map[string]spanSummary `json:"span_summary,omitempty"`
		Spans       []span                 `json:"spans,omitempty"`
	}{env, o.attempted, o.failed, o.samples, o.metrics, nil, o.spans}
	if len(o.spans) > 0 {
		doc.SpanSummary = summarize(o.spans)
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
