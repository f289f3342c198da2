package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spantree/internal/gen"
	"spantree/internal/serve"
)

// The serve-mixed workload: an open loop at fixed arrival-rate steps,
// over loopback HTTP, against an in-process serve.Server with the
// daemon's defaults plus a 5s stall budget and a journal. These numbers
// are part of the workload definition and never adapt to the code under
// test.
var (
	// serveRates are the arrival-rate steps in operations per second.
	// The first is the reference step, where latency_ms_p50/p90 are
	// measured: a light load at which operations at fixed spacing rarely
	// overlap. The ramp then climbs by ~15% a step from just below
	// today's knee.
	serveRates = []float64{10, 23, 26.5, 30.5, 35, 40, 46, 53, 61, 70, 80, 92}
	// refMix and rampMix are the request shares of the reference step and
	// of the ramp steps. The reference step serves the torus only: the
	// sharded rand runs take 95-230 ms and drift by a third from one
	// batch to the next, so with rand in it p90 would measure that drift.
	// rand's cost shows in the ramp (throughput_per_s) and in the
	// per-layer serve.run_ms_p50.rand. Sorted by latency the reference
	// kinds come in the order listed, so p50 and p90 both fall inside the
	// include_parent requests, never on the edge between two kinds.
	refMix  = mix{kTorusSummary: 0.25, kTorusParent: 0.75}
	rampMix = mix{kTorusSummary: 1.0 / 3, kTorusParent: 1.0 / 3, kRandSummary: 1.0 / 3}
	// latencyLimitMS is the p90 limit a step must meet, latency counted
	// from each request's due time until its body is read.
	latencyLimitMS = 500.0
	// refShare is the share of the measurement time spent at the
	// reference step; each ramp step lasts rampShare of it.
	refShare  = 0.55
	rampShare = 0.12
	// churnSlots is the period, in reference-step slots, of the
	// register-then-evict pairs.
	churnSlots = 7
)

// Operation kinds of a step.
const (
	kRandSummary = iota
	kTorusSummary
	kTorusParent
	kRegister
	kEvict
	numKinds
)

var kindNames = [numKinds]string{"rand.summary", "torus.summary", "torus.parent", "register", "evict"}

// mix gives the share of each spantree request kind in a step.
type mix map[int]float64

func serveSpecs(seed uint64) (rnd, torus gen.Spec) {
	return gen.Spec{Kind: "random", N: 1 << 19, M: 8 << 19, Seed: derive(seed, 11)},
		gen.Spec{Kind: "torus2d", N: 1 << 18, Seed: derive(seed, 12)}
}

func churnSpec(seed uint64, k int) gen.Spec {
	return gen.Spec{Kind: "random", N: 1 << 16, Seed: derive(seed, 100+uint64(k))}
}

// serveEnv is one running server and the benchmark's client for it.
type serveEnv struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	base      string
	dir       string
	client    *http.Client
	tr        *http.Transport
	closeOnce sync.Once
}

func startServer(r *runCtx, rnd, torus gen.Spec, setupSpan int) (*serveEnv, error) {
	dir, err := os.MkdirTemp(filepath.Join(r.root, ".bench_build", "tmp"), "journal-")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{StallBudget: 5 * time.Second})
	if err := srv.OpenJournal(filepath.Join(dir, "registry.journal")); err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     r.nproc,
		MaxIdleConnsPerHost: r.nproc,
		DisableCompression:  true,
	}
	e := &serveEnv{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	for _, g := range []struct {
		name string
		spec gen.Spec
	}{{"rand", rnd}, {"torus", torus}} {
		sp := r.tr.begin("http.register.setup", setupSpan, 0)
		status, body, err := e.do(http.MethodPost, "/v1/graphs", registerBody(g.name, g.spec), smallBody)
		r.tr.end(sp)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("registering %s: %w", g.name, err)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = e.hs.Shutdown(ctx) // the server is ours and idle; a timeout only leaves conns to the exit
		<-e.served
		e.tr.CloseIdleConnections()
		e.srv.Close()
		os.RemoveAll(e.dir)
	})
}

// do sends one request and reads the whole body into a buffer of
// sizeHint bytes, so a body that fits is read without regrowing.
func (e *serveEnv) do(method, path string, body []byte, sizeHint int) (int, []byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := bytes.NewBuffer(make([]byte, 0, sizeHint))
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// inProcess answers a GET from the handler directly, with no connection:
// the stats sampler must not take one of the load's connections.
func (e *serveEnv) inProcess(path string, v any) error {
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

func registerBody(name string, s gen.Spec) []byte {
	b, _ := json.Marshal(serve.RegisterRequest{Name: name, Kind: s.Kind, N: s.N, M: s.M, Seed: s.Seed, RandomLabel: s.RandomLabel})
	return b
}

// item is one scheduled operation of a step.
type item struct {
	kind     int
	due      time.Duration // offset from the step's start
	body     []byte
	sizeHint int
	churn    int // churn pair index, for register and evict
}

// smallBody sizes the read buffer of every response but include_parent.
const smallBody = 4 << 10

// outcome is what the sender saw for one item.
type outcome struct {
	status  int
	body    []byte // dropped once checked
	bodyLen int
	err     error
	latMS   float64 // due -> body read
	lateMS  float64 // due -> sent
	svcMS   float64 // sent -> body read
	overdue bool    // completed after the step's end plus the latency limit
	traced  bool    // sent with a span around it
}

// stepResult is one rate step.
type stepResult struct {
	rate    float64
	items   []item
	outs    []outcome
	p90     float64 // spantree requests, a failed one counting as over any limit
	maxLat  float64 // the step's slowest operation
	backlog bool
	// allocation and GC pause over the step (traced runs only)
	allocBytes, gcPauseNS uint64
	stats                 []serve.StatsResponse
}

func (s *stepResult) pass() bool { return s.p90 <= latencyLimitMS && !s.backlog }

// schedule builds a step of rate*dur slots at fixed spacing. With churn
// set, slots 2 and 5 of every churnSlots hold a register and its evict
// instead of a request, so writes fall between reads; every other slot
// holds a spantree request, the kinds in the mix's shares in a seeded
// order.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, m mix, churn bool, churnBase int, seedBase *uint64, parentHint int) []item {
	n := max(int(rate*dur.Seconds()+0.5), 1)
	items := make([]item, n)
	var reqs []int
	for i := range items {
		items[i].due = time.Duration(float64(i) / rate * float64(time.Second))
		items[i].sizeHint = smallBody
		switch k := churnBase + i/churnSlots; {
		case churn && i%churnSlots == 2 && i+3 < n:
			items[i].kind, items[i].churn = kRegister, k
		case churn && i%churnSlots == 5 && items[i-3].kind == kRegister:
			items[i].kind, items[i].churn = kEvict, k
		default:
			reqs = append(reqs, i)
		}
	}
	var kinds []int
	for _, k := range []int{kTorusSummary, kTorusParent, kRandSummary} {
		for range int(m[k]*float64(len(reqs)) + 0.5) {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < len(reqs) {
		kinds = append(kinds, kTorusParent)
	}
	kinds = kinds[:len(reqs)]
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for j, i := range reqs {
		*seedBase++
		req := serve.SpanTreeRequest{Graph: "torus", Seed: *seedBase, IncludeParent: kinds[j] == kTorusParent}
		if kinds[j] == kRandSummary {
			req.Graph = "rand"
		}
		items[i].kind = kinds[j]
		items[i].body, _ = json.Marshal(req)
		if req.IncludeParent {
			items[i].sizeHint = parentHint
		}
	}
	return items
}

// runStep sends the items from nproc sender goroutines over at most
// nproc connections. A sender takes the next item, waits until it is
// due, and sends it at once if it is already late; latency counts from
// the due time. The body is read inside the timed interval; decoding
// happens later. In a traced run every second item of each kind is
// traced, so traced and untraced requests share the step's load, mix and
// host conditions, and /v1/stats is sampled throughout.
func runStep(r *runCtx, e *serveEnv, items []item, dur time.Duration, reqBase int64) ([]outcome, []serve.StatsResponse) {
	outs := make([]outcome, len(items))
	tracedItem := make([]bool, len(items))
	if r.trace {
		var seen [numKinds]int
		for i, it := range items {
			tracedItem[i] = seen[it.kind]%2 == 1
			seen[it.kind]++
		}
	}
	registered := make(map[int]chan struct{})
	for _, it := range items {
		if it.kind == kRegister {
			registered[it.churn] = make(chan struct{})
		}
	}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				due := start.Add(it.due)
				if it.kind == kEvict {
					// An evict never overtakes its register.
					<-registered[it.churn]
				}
				method, path, reqBody := http.MethodPost, "/v1/spantree", it.body
				switch name := fmt.Sprintf("churn-%d", it.churn); it.kind {
				case kRegister:
					path, reqBody = "/v1/graphs", registerBody(name, churnSpec(r.seed, it.churn))
				case kEvict:
					method, path = http.MethodDelete, "/v1/graphs/"+name
				}
				time.Sleep(time.Until(due))
				sp := -1
				if tracedItem[i] {
					sp = r.tr.begin("http."+kindNames[it.kind], -1, reqBase+int64(i))
				}
				sent := time.Now()
				status, body, err := e.do(method, path, reqBody, it.sizeHint)
				if it.kind == kRegister {
					close(registered[it.churn])
				}
				done := time.Now()
				r.tr.end(sp)
				outs[i] = outcome{
					status: status, body: body, bodyLen: len(body), err: err,
					latMS: ms(done.Sub(due)), lateMS: ms(sent.Sub(due)), svcMS: ms(done.Sub(sent)),
					overdue: done.After(start.Add(dur + time.Duration(latencyLimitMS*float64(time.Millisecond)))),
					traced:  tracedItem[i],
				}
			}
		}()
	}
	var stats []serve.StatsResponse
	if r.trace {
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		tick := time.NewTicker(100 * time.Millisecond)
		for running := true; running; {
			var st serve.StatsResponse
			if err := e.inProcess("/v1/stats", &st); err == nil {
				stats = append(stats, st)
			}
			select {
			case <-finished:
				running = false
			case <-tick.C:
			}
		}
		tick.Stop()
	}
	wg.Wait()
	return outs, stats
}

// serveRefs is the oracle for the served graphs.
type serveRefs struct {
	rand, torus *reference
	churnN      int
}

// checkStep decodes and checks every response of a step, outside the
// timed intervals, on nproc goroutines. It returns the decoded spantree
// responses by item index.
func checkStep(r *runCtx, refs *serveRefs, items []item, outs []outcome) ([]*serve.SpanTreeResponse, error) {
	resps := make([]*serve.SpanTreeResponse, len(items))
	var checks []func() error
	for i := range items {
		it, o := items[i], outs[i]
		if o.err != nil || o.status != http.StatusOK && o.status != http.StatusCreated {
			continue
		}
		switch it.kind {
		case kRegister:
			checks = append(checks, func() error {
				var gi serve.GraphInfo
				if err := json.Unmarshal(o.body, &gi); err != nil {
					return &checkError{check: "register.body", graph: gi.Name, err: err}
				}
				if gi.N != refs.churnN {
					return &checkError{check: "register.n", graph: gi.Name, err: fmt.Errorf("n = %d, want %d", gi.N, refs.churnN)}
				}
				return nil
			})
		case kEvict:
		default:
			ref := refs.torus
			if it.kind == kRandSummary {
				ref = refs.rand
			}
			checks = append(checks, func() error {
				var resp serve.SpanTreeResponse
				if err := json.Unmarshal(o.body, &resp); err != nil {
					return &checkError{check: "response.body", graph: ref.name, err: err}
				}
				resps[i] = &resp
				if resp.Graph != ref.name {
					return ref.fail("graph", "response names graph %q", resp.Graph)
				}
				if it.kind == kTorusParent {
					if len(resp.Parent) == 0 {
						return ref.fail("parent", "include_parent response carries no parent array")
					}
					return ref.checkForest(resp.Parent, resp.Roots, resp.TreeEdges)
				}
				if resp.Parent != nil {
					return ref.fail("parent", "summary response carries a parent array")
				}
				return ref.checkSummary(resp.N, resp.Roots, resp.TreeEdges)
			})
		}
	}
	err := runChecks(checks, r.nproc)
	// Keep only what the metrics read: no bodies, no parent arrays.
	for i := range items {
		outs[i].body = nil
		if resps[i] != nil {
			resps[i].Parent = nil
		}
	}
	runtime.GC()
	return resps, err
}

// servePhase is everything the rate-step ladder saw.
type servePhase struct {
	steps []*stepResult
	resps [][]*serve.SpanTreeResponse
}

func runServePhase(r *runCtx, e *serveEnv, refs *serveRefs, dur time.Duration, rng *rand.Rand, seeds *uint64) (*servePhase, error) {
	ph := &servePhase{}
	churnBase := 0
	reqBase := int64(0)
	// A parent array entry is at most the digits of n plus a comma.
	parentHint := (len(strconv.Itoa(refs.torus.g.NumVertices()))+1)*refs.torus.g.NumVertices() + smallBody
	rampDur := time.Duration(float64(dur) * rampShare)
	for k, rate := range serveRates {
		d := rampDur
		if k == 0 {
			d = time.Duration(float64(dur) * refShare)
		}
		m := rampMix
		if k == 0 {
			m = refMix
		}
		items := schedule(rng, rate, d, m, k == 0, churnBase, seeds, parentHint)
		for _, it := range items {
			if it.kind == kRegister {
				churnBase = it.churn + 1
			}
		}
		st := &stepResult{rate: rate, items: items}
		var m0, m1 runtime.MemStats
		if r.trace {
			runtime.ReadMemStats(&m0)
		}
		st.outs, st.stats = runStep(r, e, items, d, reqBase)
		if r.trace {
			runtime.ReadMemStats(&m1)
			st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
			st.gcPauseNS = m1.PauseTotalNs - m0.PauseTotalNs
		}
		reqBase += int64(len(items))
		var lats []float64
		for i, it := range items {
			o := st.outs[i]
			if o.overdue {
				st.backlog = true
			}
			st.maxLat = max(st.maxLat, o.latMS)
			if it.kind >= kRegister {
				continue
			}
			if o.err != nil || o.status != http.StatusOK {
				lats = append(lats, failedLatency)
			} else {
				lats = append(lats, o.latMS)
			}
		}
		st.p90 = quantile(lats, 0.9)
		resps, err := checkStep(r, refs, items, st.outs)
		if err != nil {
			return nil, err
		}
		ph.steps = append(ph.steps, st)
		ph.resps = append(ph.resps, resps)
		if n := len(ph.steps); n >= 3 && !st.pass() && !ph.steps[n-2].pass() {
			break // the ladder stops after two consecutive steps over the limit
		}
	}
	return ph, nil
}

// encodeSamples is how many in-process include_parent requests a traced
// run times after the load for serve.encode_ms_p50.
const encodeSamples = 16

// failedLatency stands in for the latency of a failed or refused
// request: it misses any limit.
const failedLatency = 1e9

// maxRate is the highest rate meeting the limit: the ladder ends at the
// first of two consecutive failing steps (a lone failing step between
// passing ones is taken as a transient), and the rate is interpolated on
// p90 between the last passing step before it and that step (from the
// origin when nothing passed before it; the top step when none fails).
func maxRate(steps []*stepResult) float64 {
	loR, loP := 0.0, 0.0
	for i, s := range steps {
		if s.pass() {
			loR, loP = s.rate, s.p90
			continue
		}
		if i+1 < len(steps) && steps[i+1].pass() {
			continue
		}
		hiP := s.p90
		if s.backlog && hiP <= latencyLimitMS {
			// The backlog left an operation later than the step's end
			// plus the limit, so the slowest latency is over the limit.
			hiP = s.maxLat
		}
		hiP = min(hiP, 4*latencyLimitMS) // a refused request is "over", not infinitely over
		if hiP <= loP {
			return loR
		}
		return loR + (s.rate-loR)*(latencyLimitMS-loP)/(hiP-loP)
	}
	return loR
}

func runServe(r *runCtx) error {
	rnd, torus := serveSpecs(r.seed)
	r.prov.Config["graphs"] = map[string]gen.Spec{"rand": rnd, "torus": torus}
	r.prov.Config["churn"] = churnSpec(r.seed, 0)
	r.prov.Config["rate_steps_rps"] = serveRates
	r.prov.Config["latency_limit_ms"] = latencyLimitMS
	r.prov.Config["server"] = "serve.Config{StallBudget: 5s} (spantreed defaults otherwise), journal in a temp dir"
	if err := os.MkdirAll(filepath.Join(r.root, ".bench_build", "tmp"), 0o755); err != nil {
		return err
	}

	r.tr.setOn(r.trace)
	var (
		env    *serveEnv
		setups []float64
	)
	for i := range setupRepeats {
		if env != nil {
			env.close()
			env = nil
			releaseMemory()
		}
		sp := r.tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		var err error
		env, err = startServer(r, rnd, torus, sp)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(sp)
	}
	defer env.close()

	// The resolved per-graph config: a policy change shows up here.
	var list serve.GraphListResponse
	status, body, err := env.do(http.MethodGet, "/v1/graphs", nil, smallBody)
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &list)
	} else if err == nil {
		err = fmt.Errorf("GET /v1/graphs: status %d", status)
	}
	if err != nil {
		return err
	}
	r.prov.Config["resolved"] = list.Graphs
	randShards := 0
	for _, gi := range list.Graphs {
		if gi.Name == "rand" {
			randShards = gi.Shards
		}
	}

	// The oracle regenerates every graph from its spec; this is the gen
	// layer's work, timed, but outside set-up.
	refs := &serveRefs{}
	for _, g := range []struct {
		ref  **reference
		name string
		spec gen.Spec
	}{{&refs.rand, "rand", rnd}, {&refs.torus, "torus", torus}} {
		sp := r.tr.begin("gen.Generate", -1, 0)
		gr, err := gen.Generate(g.spec)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if *g.ref, err = newReference(g.name, gr); err != nil {
			return err
		}
	}
	cg, err := gen.Generate(churnSpec(r.seed, 0))
	if err != nil {
		return err
	}
	refs.churnN = cg.NumVertices()
	genMS := r.tr.selfTimes()["gen.Generate"]
	r.tr.setOn(false)
	releaseMemory()

	rng := rand.New(rand.NewSource(int64(derive(r.seed, 13))))
	seeds := derive(r.seed, 14)
	r.tr.setOn(r.trace)
	ph, err := runServePhase(r, env, refs, time.Duration(r.seconds*float64(time.Second)), rng, &seeds)
	r.tr.setOn(false)
	if err != nil {
		return err
	}

	// Attempts and failures over every step; typed refusals count here,
	// never as incorrect output. The end-to-end latencies come from the
	// reference step's untraced operations (all of them in an untraced
	// run), tLat from its traced requests.
	completed := make(map[int]int)
	var refLat, tLat, regLat, lateRef []float64
	overLimit := 0
	for si, st := range ph.steps {
		for i, it := range st.items {
			o := st.outs[i]
			r.attempted++
			ok := o.err == nil && (o.status == http.StatusOK || o.status == http.StatusCreated)
			if !ok {
				r.failed++
				continue
			}
			completed[it.kind]++
			if si != 0 {
				continue
			}
			switch {
			case it.kind == kEvict:
			case o.traced:
				if it.kind != kRegister {
					tLat = append(tLat, o.latMS)
				}
			case it.kind == kRegister:
				regLat = append(regLat, o.latMS)
			default:
				refLat = append(refLat, o.latMS)
				lateRef = append(lateRef, o.lateMS)
				if o.latMS > latencyLimitMS {
					overLimit++
				}
			}
		}
	}
	for k := range numKinds {
		if completed[k] == 0 {
			r.unexercised = append(r.unexercised, "serve: no completed "+kindNames[k]+" request")
		}
	}

	ref := ph.steps[0]
	nref, refFail := 0, 0
	for i, it := range ref.items {
		if it.kind >= kRegister || ref.outs[i].traced {
			continue
		}
		nref++
		if o := ref.outs[i]; o.err != nil || o.status != http.StatusOK {
			refFail++
		}
	}

	rep := &r.rep
	rep.add("setup_s", quantile(setups, 0.5), "s", len(setups), "server + journal + register rand and torus over HTTP")
	rep.add("req_ms_p50", quantile(refLat, 0.5), "ms", len(refLat), fmt.Sprintf("at the %.0f rps reference step, from due time", ref.rate))
	rep.add("req_ms_p90", quantile(refLat, 0.9), "ms", len(refLat), fmt.Sprintf("at the %.0f rps reference step, from due time", ref.rate))
	rep.add("register_ms_p50", quantile(regLat, 0.5), "ms", len(regLat), "journaled POST /v1/graphs, from due time")
	rep.add("max_rate_rps", maxRate(ph.steps), "1/s", len(ph.steps), fmt.Sprintf("highest rate step with p90 <= %.0f ms and no backlog, interpolated", latencyLimitMS))
	rep.alias("latency_ms_p50", "req_ms_p50")
	rep.alias("latency_ms_p90", "req_ms_p90")
	rep.alias("side_ms_p50", "register_ms_p50")
	rep.alias("throughput_per_s", "max_rate_rps")
	rep.add("fail_frac", float64(refFail+overLimit)/float64(max(nref, 1)), "frac", nref, "reference step: errors, non-200s and over-limit requests / attempts")
	for _, st := range ph.steps {
		fmt.Printf("step %5.1f rps: p90=%.1f ms backlog=%v pass=%v n=%d", st.rate, st.p90, st.backlog, st.pass(), len(st.items))
		for k := range numKinds {
			var lat []float64
			for i, it := range st.items {
				if it.kind == k && st.outs[i].err == nil {
					lat = append(lat, st.outs[i].latMS)
				}
			}
			if len(lat) > 0 {
				fmt.Printf(" | %s p50=%.1f p90=%.1f n=%d", kindNames[k], quantile(lat, 0.5), quantile(lat, 0.9), len(lat))
			}
		}
		fmt.Println()
	}
	if !r.trace {
		return nil
	}

	rep.add("gen.generate_ms", sum(genMS), "ms", len(genMS), "gen.Generate of rand + torus, as the server does at registration")
	rep.absent("spantree.session_new_ms", "ms")
	rep.absent("spantree.allocs_per_find", "count")
	for _, n := range []string{"core.cursor_roots_per_run", "core.failed_claims_per_run", "core.steals_per_run"} {
		rep.absent(n, "count")
	}
	rep.absent("core.steal_hit_rate", "frac")
	rep.absent("core.load_imbalance", "ratio")

	var runRand, runTorus, wireSum, wirePar, kbPar, evict []float64
	var alloc, pause uint64
	nreq := 0
	var last serve.StatsResponse
	var first *serve.StatsResponse
	admitMin := int64(-1)
	for si, st := range ph.steps {
		alloc += st.allocBytes
		pause += st.gcPauseNS
		for i, it := range st.items {
			o := st.outs[i]
			if o.err != nil || o.status != http.StatusOK {
				continue
			}
			if it.kind == kEvict {
				evict = append(evict, o.latMS)
				continue
			}
			resp := ph.resps[si][i]
			if resp == nil {
				continue
			}
			nreq++
			run := float64(resp.ElapsedUS) / 1e3
			wire := o.svcMS - run
			switch it.kind {
			case kRandSummary:
				runRand = append(runRand, run)
				wireSum = append(wireSum, wire)
			case kTorusSummary:
				runTorus = append(runTorus, run)
				wireSum = append(wireSum, wire)
			case kTorusParent:
				runTorus = append(runTorus, run)
				wirePar = append(wirePar, wire)
				kbPar = append(kbPar, float64(o.bodyLen)/1024)
			}
		}
		for j := range st.stats {
			s := st.stats[j]
			if first == nil {
				first = &st.stats[j]
			}
			last = s
			if admitMin < 0 || s.AdmitLimit < admitMin {
				admitMin = s.AdmitLimit
			}
		}
	}
	if first == nil {
		return errors.New("serve: no /v1/stats sample in the traced run")
	}
	enc, err := serverEncode(r, env, refs.torus, &seeds)
	if err != nil {
		return err
	}
	rep.add("serve.run_ms_p50.rand", quantile(runRand, 0.5), "ms", len(runRand), "elapsed_us of rand requests")
	rep.add("serve.run_ms_p50.torus", quantile(runTorus, 0.5), "ms", len(runTorus), "elapsed_us of torus requests")
	rep.add("serve.wire_ms_p50.summary", quantile(wireSum, 0.5), "ms", len(wireSum), "client service time - elapsed_us")
	rep.add("serve.wire_ms_p50.parent", quantile(wirePar, 0.5), "ms", len(wirePar), "client service time - elapsed_us")
	rep.add("serve.encode_ms_p50", quantile(enc, 0.5), "ms", len(enc), "in-process torus include_parent request: handler time - elapsed_us")
	rep.add("serve.response_kb.parent", mean(kbPar), "KB", len(kbPar), "")
	rep.add("serve.shards.rand", float64(randShards), "count", 1, "from GET /v1/graphs")
	rep.add("serve.rejected", float64(last.Rejected-first.Rejected), "count", len(ph.steps), "from /v1/stats")
	rep.add("serve.deadlines", float64(last.Deadlines-first.Deadlines), "count", len(ph.steps), "from /v1/stats")
	rep.add("serve.stall_trips", float64(last.StallTrips-first.StallTrips), "count", len(ph.steps), "from /v1/stats")
	rep.add("serve.degrade_steps", float64(last.DegradeSteps-first.DegradeSteps), "count", len(ph.steps), "from /v1/stats")
	rep.add("serve.admit_limit_min", float64(admitMin), "count", len(ph.steps), "minimum sampled admission limit")
	rep.add("serve.evict_ms_p50", quantile(evict, 0.5), "ms", len(evict), "journaled DELETE /v1/graphs/{name}")
	rep.add("runtime.alloc_kb_per_req", float64(alloc)/1024/float64(max(nreq, 1)), "KB", nreq, "whole process (client + server) per spantree request")
	rep.add("runtime.gc_pause_ms", float64(pause)/1e6, "ms", nreq, "GC pause during the steps, total")
	rep.add("bench.late_ms_p90", quantile(lateRef, 0.9), "ms", len(lateRef), "sender lateness of the reference step's untraced requests")
	p50, tp50 := quantile(refLat, 0.5), quantile(tLat, 0.5)
	rep.add("bench.untraced_ms_p50", p50, "ms", len(refLat), "req_ms_p50, untraced requests")
	rep.add("bench.traced_ms_p50", tp50, "ms", len(tLat), "req_ms_p50, traced requests")
	rep.add("bench.trace_overhead_frac", tp50/p50-1, "frac", len(tLat), "traced / untraced req_ms_p50 - 1")
	return nil
}

// serverEncode times the server's own encode path after the load has
// stopped: it sends torus include_parent requests to the handler
// in-process, one at a time, and takes the handler's time minus the
// elapsed_us it reports for the run, which leaves writeJSON plus the
// request's decode and admission. Every parent array is checked
// afterwards, outside the timed call.
func serverEncode(r *runCtx, e *serveEnv, ref *reference, seeds *uint64) ([]float64, error) {
	r.tr.setOn(true)
	defer r.tr.setOn(false)
	var out []float64
	for k := range encodeSamples {
		*seeds++
		body, _ := json.Marshal(serve.SpanTreeRequest{Graph: ref.name, Seed: *seeds, IncludeParent: true})
		req := httptest.NewRequest(http.MethodPost, "/v1/spantree", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		r.attempted++
		sp := r.tr.begin("serve.ServeHTTP.parent", -1, int64(k))
		t0 := time.Now()
		e.srv.ServeHTTP(rec, req)
		dt := ms(time.Since(t0))
		r.tr.end(sp)
		if rec.Code != http.StatusOK {
			r.failed++
			continue
		}
		var resp serve.SpanTreeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return nil, &checkError{check: "response.body", graph: ref.name, err: err}
		}
		if err := ref.checkForest(resp.Parent, resp.Roots, resp.TreeEdges); err != nil {
			return nil, err
		}
		out = append(out, dt-float64(resp.ElapsedUS)/1e3)
	}
	return out, nil
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
