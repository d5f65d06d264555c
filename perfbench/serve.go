package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"p2"
	"p2/internal/cost"
	"p2/internal/load"
	"p2/internal/plan"
	"p2/internal/serve"
)

const (
	// serveRate is the open loop's fixed arrival rate. At 100 req/s the
	// p99 already passes the latency limit on a 2-CPU machine; 50 req/s
	// keeps the daemon loaded but inside it.
	serveRate = 50.0
	// latencyLimit is the serve-mixed SLO: a response later than this,
	// counted from the request's due time, is a miss.
	latencyLimit = 250 * time.Millisecond
	// serveSetups is how many times a run boots and warms the daemon to
	// report the median set-up time.
	serveSetups = 6
	// freshSample is how many fresh complete responses, drawn by seed,
	// are re-planned on a fresh Planner and compared.
	freshSample = 12
)

// serveMix is the traffic mix: half hot keys, 5% carrying a 1 ms
// deadline, 5% malformed, the rest fresh keys that always miss.
func serveMix(seed int64) load.WorkloadConfig {
	return load.WorkloadConfig{Seed: seed, HotFrac: 0.5, TimeoutFrac: 0.05, MalformedFrac: 0.05}
}

// bootServer is the daemon's set-up, what `p2 serve -warm` does before
// it listens: NewServer and a warm start over the load catalog.
func bootServer(tr *tracer) (*serve.Server, time.Duration, time.Duration, error) {
	start := time.Now()
	s := serve.NewServer(serve.Config{})
	ws := time.Now()
	if _, err := s.Warm(context.Background(), load.Catalog()); err != nil {
		return nil, 0, 0, err
	}
	we := time.Now()
	tr.add("serve.warm", "setup", 0, ws, we)
	return s, we.Sub(start), we.Sub(ws), nil
}

// served is one request as the client saw it.
type served struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// openLoop is the benchmark's own open-loop generator. Request i is due at
// start + i/rate whatever happened before it; at most conns requests are
// outstanding (one connection each), so when all are busy the next
// request leaves late and its latency, timed from the due time, shows
// the wait.
func openLoop(url string, stream []load.Request, start time.Time, conns int) []served {
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	out := make([]served, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
				time.Sleep(time.Until(due))
				out[i] = post(client, url, stream[i].Body, due)
			}
		}()
	}
	wg.Wait()
	return out
}

func post(client *http.Client, url, body string, due time.Time) served {
	s := served{due: due, sent: time.Now()}
	resp, err := client.Post(url+"/plan", "application/json", strings.NewReader(body))
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.done, s.err = time.Now(), err
	return s
}

// servePass is one boot-and-drive of the daemon.
type servePass struct {
	stream  []load.Request
	out     []served
	statz   serveCounters
	setup   time.Duration
	warm    time.Duration
	window  time.Duration
	alloc   uint64
	peakRSS float64
}

// drive boots the daemon `setups` times, replays the stream over loopback
// HTTP against the last boot before the stream, snapshotting /statz
// around it, and reports the median boot. Half the boots (rounded down)
// run after the stream, once its daemon is gone, so one slow spell of
// the host cannot cover them all.
func drive(stream []load.Request, setups int, tr *tracer) (*servePass, error) {
	p := &servePass{stream: stream}
	var times []float64
	boot := func() (*serve.Server, error) {
		runtime.GC() // the previous boot is garbage by now
		s, d, warm, err := bootServer(tr)
		if err != nil {
			return nil, err
		}
		times, p.warm = append(times, float64(d)), warm
		return s, nil
	}
	var srv *serve.Server
	for len(times) < (setups+1)/2 {
		srv = nil
		var err error
		if srv, err = boot(); err != nil {
			return nil, err
		}
	}
	if err := p.replay(srv); err != nil {
		return nil, err
	}
	srv = nil
	for len(times) < setups {
		if _, err := boot(); err != nil {
			return nil, err
		}
	}
	p.setup = time.Duration(median(times))
	return p, nil
}

// replay sends the pass's stream to srv from the open-loop generator.
func (p *servePass) replay(srv *serve.Server) error {
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before, err := load.FetchStatz(ts.Client(), ts.URL)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now().Add(10 * time.Millisecond)
	p.out = openLoop(ts.URL, p.stream, start, runtime.NumCPU())
	for _, s := range p.out {
		if s.done.Sub(start) > p.window {
			p.window = s.done.Sub(start)
		}
	}
	runtime.ReadMemStats(&ms1)
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.peakRSS = peakRSSMB()
	after, err := load.FetchStatz(ts.Client(), ts.URL)
	if err != nil {
		return err
	}
	p.statz = serveCounters{
		hits:      after.CacheHits - before.CacheHits,
		misses:    after.CacheMisses - before.CacheMisses,
		coalesced: after.Coalesced - before.Coalesced,
		shed:      after.Shed - before.Shed,
		partials:  after.Partials - before.Partials,
	}
	return nil
}

// verdict is the classification of one response against its request
// class's contract.
type verdict struct {
	wellFormed bool
	good       bool   // a correct 2xx within the latency limit
	violation  string // non-empty: the response broke its contract
	resp       *serve.PlanResponse
	req        *serve.PlanRequest
}

// judge checks one response against the contract of its class: 400 for
// malformed bodies; a complete 200 or a 429 shed for hot and fresh keys;
// for 1 ms deadlines additionally a partial 200, a 504 or a 503. Every
// 200 has at most top-K strategies in ranking order.
func judge(r load.Request, s served) verdict {
	kind := r.Kind
	v := verdict{wellFormed: kind != load.KindMalformed}
	if s.err != nil {
		v.violation = s.err.Error()
		return v
	}
	if v.wellFormed {
		v.req = &serve.PlanRequest{}
		if err := json.Unmarshal([]byte(r.Body), v.req); err != nil {
			v.violation = "generated body does not decode: " + err.Error()
			return v
		}
	}
	switch {
	case kind == load.KindMalformed:
		if s.status != http.StatusBadRequest {
			v.violation = fmt.Sprintf("malformed body answered %d", s.status)
		}
		return v
	case s.status == http.StatusTooManyRequests:
		return v
	case kind == load.KindDeadlined && (s.status == http.StatusGatewayTimeout || s.status == http.StatusServiceUnavailable):
		return v
	case s.status != http.StatusOK:
		v.violation = fmt.Sprintf("%v request answered %d", kind, s.status)
		return v
	}
	v.resp = &serve.PlanResponse{}
	if err := json.Unmarshal(s.body, v.resp); err != nil {
		v.violation = "undecodable 200 body: " + err.Error()
		return v
	}
	switch {
	case v.resp.Partial && kind != load.KindDeadlined:
		v.violation = "partial answer to a request without a deadline"
	case v.req.TopK > 0 && len(v.resp.Strategies) > v.req.TopK:
		v.violation = fmt.Sprintf("%d strategies for top-%d", len(v.resp.Strategies), v.req.TopK)
	case !ranked(v.resp.Strategies):
		v.violation = "strategies out of ranking order"
	}
	v.good = v.violation == "" && s.done.Sub(s.due) <= latencyLimit
	return v
}

// ranked reports whether strategies are in ranking order: by measured
// time when every strategy carries one, otherwise by predicted time.
// A time of -1 (never completes) sorts last.
func ranked(ss []serve.PlanStrategy) bool {
	measured := len(ss) > 0
	for _, s := range ss {
		measured = measured && s.MeasuredSec != 0
	}
	key := func(s serve.PlanStrategy) float64 {
		t := s.PredictedSec
		if measured {
			t = s.MeasuredSec
		}
		if t < 0 {
			return math.Inf(1)
		}
		return t
	}
	for i := 1; i < len(ss); i++ {
		if key(ss[i]) < key(ss[i-1]) {
			return false
		}
	}
	return true
}

// wireEntry turns a /plan body into the equivalent planning request,
// with the daemon's defaults: reduce [0], Ring, "auto" searching the
// extended algorithm set.
func wireEntry(pr *serve.PlanRequest) (*resolved, error) {
	e := &entry{Name: fmt.Sprintf("%s/%d %v r%v %s %g top%d %s", pr.System, pr.Nodes, pr.Axes, pr.Reduce,
		pr.Algo, pr.Bytes, pr.TopK, pr.Measure),
		System: pr.System, Nodes: pr.Nodes, Faults: pr.Faults, Axes: pr.Axes, Reduce: pr.Reduce,
		Bytes: pr.Bytes, TopK: pr.TopK}
	if len(e.Reduce) == 0 {
		e.Reduce = []int{0}
	}
	var err error
	switch {
	case strings.EqualFold(pr.Algo, "auto"):
		e.Auto = true
	case pr.Algo != "":
		if e.Algo, err = cost.ParseAlgorithm(pr.Algo); err != nil {
			return nil, err
		}
	}
	if pr.Measure != "" {
		if e.Measure, err = p2.ParseMeasureMode(pr.Measure); err != nil {
			return nil, err
		}
	}
	return resolve(e)
}

// wireStrategies projects a ranking the way the daemon encodes it.
func wireStrategies(ss []*p2.Strategy) []serve.PlanStrategy {
	out := make([]serve.PlanStrategy, len(ss))
	for i, s := range ss {
		ps := serve.PlanStrategy{Matrix: s.Matrix.String(), Program: s.Program.String(),
			Algo: s.AlgoString(), PredictedSec: s.Predicted, MeasuredSec: s.Measured}
		if math.IsInf(ps.PredictedSec, 1) {
			ps.PredictedSec, ps.NeverCompletes = -1, true
		}
		if math.IsInf(ps.MeasuredSec, 1) {
			ps.MeasuredSec, ps.NeverCompletes = -1, true
		}
		out[i] = ps
	}
	return out
}

// sameStrategies compares two rankings exactly, float bits included.
func sameStrategies(a, b []serve.PlanStrategy) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Matrix != y.Matrix || x.Program != y.Program || x.Algo != y.Algo ||
			x.NeverCompletes != y.NeverCompletes ||
			math.Float64bits(x.PredictedSec) != math.Float64bits(y.PredictedSec) ||
			math.Float64bits(x.MeasuredSec) != math.Float64bits(y.MeasuredSec) {
			return false
		}
	}
	return true
}

// serveCheck is the verdict over a whole pass.
type serveCheck struct {
	failures
	sent, wellFormed, good int
	verdicts               []verdict
}

func (c *serveCheck) failRequest(i int, msg string) {
	c.fail(fmt.Sprintf("request %d: %s", i, msg))
}

// refTrace gathers what the traced reference re-plans did: their spans,
// the probes' work, the engine's counters and call times.
type refTrace struct {
	tr       *tracer
	work     layerWork
	stats    plan.Stats
	engineMs []float64
}

// check judges every response, then re-plans every hot key and a seeded
// sample of fresh complete responses on a fresh Planner (outside the
// timed window) and compares. A request fails at most once. With rt set,
// each re-plan is traced.
func check(p *servePass, seed int64, rt *refTrace) *serveCheck {
	c := &serveCheck{sent: len(p.out), verdicts: make([]verdict, len(p.out))}
	byBody := map[string][]int{}
	var fresh []int
	for i, s := range p.out {
		r := p.stream[i]
		v := judge(r, s)
		c.verdicts[i] = v
		if v.wellFormed {
			c.wellFormed++
		}
		switch {
		case v.violation != "":
			c.failRequest(i, v.violation)
		case v.resp == nil || v.resp.Partial:
			// shed, a deadline outcome or a partial: nothing to re-plan
		case r.Kind == load.KindHot:
			byBody[r.Body] = append(byBody[r.Body], i)
		case r.Kind == load.KindFresh:
			fresh = append(fresh, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fresh), func(a, b int) { fresh[a], fresh[b] = fresh[b], fresh[a] })
	for _, i := range fresh[:min(freshSample, len(fresh))] {
		byBody[p.stream[i].Body] = append(byBody[p.stream[i].Body], i)
	}
	for _, body := range sortedKeys(byBody) {
		idx := byBody[body]
		want, err := reference(c.verdicts[idx[0]].req, fmt.Sprintf("ref-%d", idx[0]), rt)
		for _, i := range idx {
			v := &c.verdicts[i]
			switch {
			case err != nil:
				v.violation = "reference plan: " + err.Error()
			case !sameStrategies(v.resp.Strategies, want):
				v.violation = "ranking differs from a fresh-Planner PlanCtx"
			default:
				continue
			}
			v.good = false
			c.failRequest(i, v.violation)
		}
	}
	for _, v := range c.verdicts {
		if v.good {
			c.good++
		}
	}
	return c
}

// reference plans a wire request on a fresh Planner, as a root span with
// a plan child and the layer probes when traced.
func reference(pr *serve.PlanRequest, id string, rt *refTrace) ([]serve.PlanStrategy, error) {
	r, err := wireEntry(pr)
	if err != nil {
		return nil, err
	}
	if rt == nil {
		out, err := callEngine(context.Background(), r)
		if err != nil {
			return nil, err
		}
		return wireStrategies(out.ranked), nil
	}
	root := rt.tr.open("request", id, 0)
	defer rt.tr.close(root)
	t0 := time.Now()
	out, err := callEngine(context.Background(), r)
	t1 := time.Now()
	rt.tr.add("plan", id, root, t0, t1)
	if err != nil {
		return nil, err
	}
	rt.engineMs = append(rt.engineMs, ms(t1.Sub(t0)))
	addStats(&rt.stats, out.stats)
	if _, err := probe(rt.tr, root, id, r, out, &rt.work); err != nil {
		return nil, err
	}
	return wireStrategies(out.ranked), nil
}

func sortedKeys(m map[string][]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// latencies returns the due-to-read latencies (ms) of the well-formed
// requests that got a response.
func latencies(p *servePass, c *serveCheck) []float64 {
	var out []float64
	for i, s := range p.out {
		if c.verdicts[i].wellFormed && s.err == nil {
			out = append(out, ms(s.done.Sub(s.due)))
		}
	}
	return sortedCopy(out)
}

func runServe(cfg config) (*outcome, error) {
	if cfg.trace {
		return traceServe(cfg)
	}
	stream, err := load.Generate(serveMix(cfg.seed), int(serveRate)*cfg.seconds)
	if err != nil {
		return nil, err
	}
	p, err := drive(stream, serveSetups, nil)
	if err != nil {
		return nil, err
	}
	c := check(p, cfg.seed, nil)
	lat := latencies(p, c)
	answered := 0
	for _, s := range p.out {
		if s.err == nil {
			answered++
		}
	}
	o := &outcome{failures: c.failures, attempted: c.sent}
	o.add("setup_s", p.setup.Seconds(), "s")
	o.add("latency_p50_ms", percentile(lat, 50), "ms")
	o.addTail("latency_p90_ms", lat, 90, "ms")
	o.addTail("latency_p95_ms", lat, 95, "ms")
	o.addTail("latency_p99_ms", lat, 99, "ms")
	o.add("throughput_rps", float64(answered)/p.window.Seconds(), "req/s")
	o.add("goodput_rps", float64(c.good)/p.window.Seconds(), "req/s")
	o.add("slo_miss_frac", ratio(float64(c.wellFormed-c.good), float64(c.wellFormed)), "ratio")
	o.add("error_frac", ratio(float64(c.failed), float64(c.sent)), "ratio")
	o.add("alloc_mb_per_req", float64(p.alloc)/1e6/float64(c.sent), "MB")
	o.add("peak_rss_mb", p.peakRSS, "MB")
	o.add("samples", float64(len(lat)), "count")
	return o, nil
}

// traceServe drives the same stream twice on freshly booted daemons,
// untraced and then traced. The traced pass turns each request into a
// root span with serve.conn_wait (due to send) and serve.server (the
// daemon's elapsed_ms, placed from the send) children, and its reference
// re-plans carry the engine's plan and probe spans.
func traceServe(cfg config) (*outcome, error) {
	stream, err := load.Generate(serveMix(cfg.seed), int(serveRate)*cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	base, err := drive(stream, 1, nil)
	if err != nil {
		return nil, err
	}
	baseCheck := check(base, cfg.seed, nil)
	tr := newTracer()
	p, err := drive(stream, 1, tr)
	if err != nil {
		return nil, err
	}
	rt := &refTrace{tr: tr}
	c := check(p, cfg.seed, rt)

	var hitMs, transportMs, missMs, lagMs []float64
	var traced, untraced float64
	for i, s := range p.out {
		id := fmt.Sprintf("req-%d", i)
		root := tr.add("request", id, 0, s.due, s.done)
		tr.add("serve.conn_wait", id, root, s.due, s.sent)
		lagMs = append(lagMs, ms(s.sent.Sub(s.due)))
		traced += ms(s.done.Sub(s.due))
		untraced += ms(base.out[i].done.Sub(base.out[i].due))
		resp := c.verdicts[i].resp
		if resp == nil {
			continue
		}
		elapsed := time.Duration(resp.ElapsedMs * float64(time.Millisecond))
		tr.add("serve.server", id, root, s.sent, s.sent.Add(elapsed))
		client := ms(s.done.Sub(s.sent))
		transportMs = append(transportMs, client-resp.ElapsedMs)
		if resp.Cached {
			hitMs = append(hitMs, client)
		} else {
			missMs = append(missMs, resp.ElapsedMs)
		}
	}
	o := &outcome{failures: baseCheck.failures, attempted: c.sent + baseCheck.sent, spans: tr.spans}
	o.merge(c.failures)
	o.addEngineLayers(rt.stats, rt.work, rt.engineMs)
	o.add("trace.overhead_frac", traced/untraced-1, "ratio")
	o.addServeLayers(p.statz)
	hitMs, transportMs, missMs, lagMs = sortedCopy(hitMs), sortedCopy(transportMs), sortedCopy(missMs), sortedCopy(lagMs)
	o.add("serve.hit_ms_p50", percentile(hitMs, 50), "ms")
	o.add("serve.transport_ms_p50", percentile(transportMs, 50), "ms")
	o.add("serve.miss_server_ms_p50", percentile(missMs, 50), "ms")
	o.add("serve.miss_server_ms_p99", percentile(missMs, 99), "ms")
	o.add("serve.misses", float64(len(missMs)), "count")
	o.add("serve.warm_s", p.warm.Seconds(), "s")
	o.add("load.send_lag_ms_p99", percentile(lagMs, 99), "ms")
	o.add("load.send_lag_ms_max", percentile(lagMs, 100), "ms")
	return o, nil
}
