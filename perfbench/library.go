package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"spantree"
	"spantree/internal/gen"
	"spantree/internal/graph"
)

// libWorkload is a closed loop with one caller: pooled Session.Find at
// p = nproc on one graph, with a sequential BFS every seqEvery calls.
type libWorkload struct {
	spec func(seed uint64) gen.Spec
	// cursorRoots says whether the quiescence reseeding must run
	// (disconnected input) or must not (connected input).
	cursorRoots bool
}

// seqEvery: every seqEvery-th iteration runs the sequential reference
// instead of a pooled Find.
const seqEvery = 5

var (
	findRandom = libWorkload{
		spec: func(seed uint64) gen.Spec {
			return gen.Spec{Kind: "random", N: 1 << 20, M: 4 << 20, Seed: seed}
		},
		cursorRoots: true,
	}
	findTorus = libWorkload{
		spec: func(seed uint64) gen.Spec {
			return gen.Spec{Kind: "torus2d", N: 1 << 20, Seed: seed, RandomLabel: true}
		},
		cursorRoots: false,
	}
)

// latencies are the timed calls of one kind of iteration.
type latencies struct{ findMS, seqMS []float64 }

// libRun is what the measurement loop of a library workload saw.
type libRun struct {
	// plain and traced split the iterations: in a traced run they
	// alternate, so both halves see the same host conditions.
	plain, traced latencies
	// core counters, summed over every pooled run.
	finds                                            int
	cursorRoots, failedClaims, steals, stealAttempts int64
	imbalance                                        []float64
	// process counters around the traced Find calls.
	mallocs, allocBytes, gcPauseNS uint64
	memFinds                       int
}

func runLibrary(r *runCtx, w libWorkload) error {
	spec := w.spec(derive(r.seed, 1))
	opts := spantree.SessionOptions{NumProcs: r.nproc}
	r.prov.Config["graph"] = spec
	r.prov.Config["session"] = map[string]any{
		"num_procs": opts.NumProcs, "pool_size": 1, "algorithm": opts.Algorithm.String(),
		"direction": opts.Direction.String(), "layout": opts.Layout.String(), "shards": opts.Shards,
	}

	// Set-up: generation plus pool construction, repeated; the last
	// one is kept. Traced runs record spans here too.
	r.tr.setOn(r.trace)
	var (
		g      *graph.Graph
		pool   *spantree.SessionPool
		setups []float64
	)
	for i := range setupRepeats {
		if pool != nil {
			pool.Close()
			g, pool = nil, nil
			releaseMemory()
		}
		sp := r.tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		gs := r.tr.begin("gen.Generate", sp, int64(i))
		var err error
		g, err = gen.Generate(spec)
		r.tr.end(gs)
		if err != nil {
			return err
		}
		ps := r.tr.begin("spantree.NewSessionPool", sp, int64(i))
		pool, err = spantree.NewSessionPool(g, opts, 1)
		r.tr.end(ps)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(sp)
	}
	defer pool.Close()
	r.tr.setOn(false)

	ref, err := newReference(spec.Kind, g)
	if err != nil {
		return err
	}
	releaseMemory()

	run, err := libLoop(r, pool, ref, time.Duration(r.seconds*float64(time.Second)))
	if err != nil {
		return err
	}
	if w.cursorRoots && run.cursorRoots == 0 {
		r.unexercised = append(r.unexercised, "core: quiescence reseeding (cursor roots = 0 on a disconnected graph)")
	}
	if !w.cursorRoots && run.cursorRoots != 0 {
		r.unexercised = append(r.unexercised, fmt.Sprintf("core: the connected control saw %d cursor roots", run.cursorRoots))
	}

	rep := &r.rep
	plain := run.plain
	rep.add("setup_s", quantile(setups, 0.5), "s", len(setups), "generate + NewSessionPool")
	rep.add("find_ms_p50", quantile(plain.findMS, 0.5), "ms", len(plain.findMS), "pooled Session.Find")
	rep.add("find_ms_p90", quantile(plain.findMS, 0.9), "ms", len(plain.findMS), "pooled Session.Find")
	rep.add("seq_ms_p50", quantile(plain.seqMS, 0.5), "ms", len(plain.seqMS), "AlgSequentialBFS on the same graph")
	rep.add("finds_per_s", 1e3/mean(plain.findMS), "1/s", len(plain.findMS), "1000 / mean find_ms: the reciprocal of the mean Find latency")
	rep.alias("latency_ms_p50", "find_ms_p50")
	rep.alias("latency_ms_p90", "find_ms_p90")
	rep.alias("side_ms_p50", "seq_ms_p50")
	rep.alias("throughput_per_s", "finds_per_s")
	rep.add("fail_frac", float64(r.failed)/float64(max(r.attempted, 1)), "frac", r.attempted, "errors / attempts")
	if !r.trace {
		return nil
	}

	self := r.tr.selfTimes()
	runs := float64(max(run.finds, 1))
	rep.add("gen.generate_ms", quantile(self["gen.Generate"], 0.5), "ms", len(self["gen.Generate"]), "")
	rep.add("spantree.session_new_ms", quantile(self["spantree.NewSessionPool"], 0.5), "ms", len(self["spantree.NewSessionPool"]), "")
	rep.add("spantree.allocs_per_find", float64(run.mallocs)/float64(max(run.memFinds, 1)), "count", run.memFinds, "")
	rep.add("core.cursor_roots_per_run", float64(run.cursorRoots)/runs, "count", run.finds, "")
	rep.add("core.failed_claims_per_run", float64(run.failedClaims)/runs, "count", run.finds, "")
	rep.add("core.steals_per_run", float64(run.steals)/runs, "count", run.finds, "")
	hit := 1.0
	if run.stealAttempts > 0 {
		hit = float64(run.steals) / float64(run.stealAttempts)
	}
	rep.add("core.steal_hit_rate", hit, "frac", int(run.stealAttempts), "")
	rep.add("core.load_imbalance", mean(run.imbalance), "ratio", len(run.imbalance), "max/mean vertices per worker")
	for _, n := range []string{"serve.run_ms_p50.rand", "serve.run_ms_p50.torus", "serve.wire_ms_p50.summary", "serve.wire_ms_p50.parent", "serve.encode_ms_p50"} {
		rep.absent(n, "ms")
	}
	rep.absent("serve.response_kb.parent", "KB")
	for _, n := range []string{"serve.shards.rand", "serve.rejected", "serve.deadlines", "serve.stall_trips", "serve.degrade_steps", "serve.admit_limit_min"} {
		rep.absent(n, "count")
	}
	rep.absent("serve.evict_ms_p50", "ms")
	rep.add("runtime.alloc_kb_per_req", float64(run.allocBytes)/1024/float64(max(run.memFinds, 1)), "KB", run.memFinds, "per pooled Find")
	rep.add("runtime.gc_pause_ms", float64(run.gcPauseNS)/1e6, "ms", run.memFinds, "GC pause inside timed Find calls, total")
	rep.absent("bench.late_ms_p90", "ms")
	p50, tp50 := quantile(plain.findMS, 0.5), quantile(run.traced.findMS, 0.5)
	rep.add("bench.untraced_ms_p50", p50, "ms", len(plain.findMS), "find_ms_p50, untraced iterations")
	rep.add("bench.traced_ms_p50", tp50, "ms", len(run.traced.findMS), "find_ms_p50, traced iterations")
	rep.add("bench.trace_overhead_frac", tp50/p50-1, "frac", len(run.traced.findMS), "traced / untraced find_ms_p50 - 1")
	return nil
}

// libLoop runs the closed loop for dur. In a traced run every odd
// iteration is traced: spans around its calls and memory statistics
// around its Find. Each output is copied out of the session, and the
// copies are checked in batches of nproc between calls, outside every
// timed interval; a forced GC then clears the checker's garbage so it
// does not land inside the next timed call.
func libLoop(r *runCtx, pool *spantree.SessionPool, ref *reference, dur time.Duration) (*libRun, error) {
	s := &libRun{}
	n := ref.g.NumVertices()
	bufs := make([][]graph.VID, r.nproc)
	for i := range bufs {
		bufs[i] = make([]graph.VID, n)
	}
	var checks []func() error
	used := 0
	flush := func() error {
		err := runChecks(checks, r.nproc)
		checks, used = checks[:0], 0
		runtime.GC()
		return err
	}
	findSeed := derive(r.seed, 2)
	ctx := context.Background()
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		req := int64(i)
		traced := r.trace && i%2 == 1
		r.tr.setOn(traced)
		lat := &s.plain
		if traced {
			lat = &s.traced
		}
		r.attempted++
		if i%seqEvery == seqEvery-1 {
			sp := r.tr.begin("spantree.Find.seqbfs", -1, req)
			t0 := time.Now()
			res, err := spantree.Find(ref.g, spantree.Options{Algorithm: spantree.AlgSequentialBFS})
			dt := time.Since(t0)
			r.tr.end(sp)
			if err != nil {
				r.failed++
				continue
			}
			lat.seqMS = append(lat.seqMS, ms(dt))
			checks = append(checks, func() error { return ref.checkForest(res.Parent, res.Roots, res.TreeEdges) })
		} else {
			sess, err := pool.Acquire(ctx)
			if err != nil {
				return nil, err
			}
			if traced {
				runtime.ReadMemStats(&m0)
			}
			sp := r.tr.begin("spantree.Session.Find", -1, req)
			t0 := time.Now()
			res, err := sess.Find(findSeed + uint64(i))
			dt := time.Since(t0)
			r.tr.end(sp)
			if traced {
				runtime.ReadMemStats(&m1)
				s.mallocs += m1.Mallocs - m0.Mallocs
				s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
				s.gcPauseNS += m1.PauseTotalNs - m0.PauseTotalNs
				s.memFinds++
			}
			if err != nil {
				pool.Release(sess)
				r.failed++
				continue
			}
			lat.findMS = append(lat.findMS, ms(dt))
			s.finds++
			if ws := res.WorkStealing; ws != nil {
				s.cursorRoots += ws.CursorRoots
				s.failedClaims += ws.FailedClaims
				s.steals += ws.Steals
				s.stealAttempts += ws.StealAttempts
				s.imbalance = append(s.imbalance, ws.MaxLoadImbalance())
			}
			buf := bufs[used]
			used++
			copy(buf, res.Parent)
			roots, te := res.Roots, res.TreeEdges
			pool.Release(sess)
			checks = append(checks, func() error { return ref.checkForest(buf, roots, te) })
		}
		if len(checks) == r.nproc {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	r.tr.setOn(false)
	if err := flush(); err != nil {
		return nil, err
	}
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// releaseMemory returns freed graphs to the OS between set-ups, so the
// peak RSS reflects one set-up, not a pile of dead ones.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
