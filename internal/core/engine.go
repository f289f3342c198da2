package core

// The execution driver behind SpanningForest, LockstepForest and the
// pooled Workspace: one team of NumProcs workers sharing one parent
// array, run as the paper's two steps. The stub walk (step 1) runs on
// the calling goroutine and seeds the workers' queues round-robin; one
// barrier separates it from the work-stealing traversal (step 2), whose
// workers join through a second barrier (the coordinator is the extra
// participant), so a run pays the paper's B = 2. Afterwards the root
// sentinels are normalized, Stats is derived from the recorder, and a
// tripped detection threshold completes the forest with the SV
// fallback.

import (
	"spantree/internal/barrier"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
	"spantree/internal/xrand"
)

// plantStub runs step 1 on the calling goroutine: the stub walk (or the
// single random root under NoStub) from r reseeded with the run's seed,
// its vertices distributed round-robin over the workers' queues, and the
// barrier that ends the step. Claimed seeds are appended to buf, which a
// pooled caller sizes for the walk's maximum yield. probe (charged the
// walk and the queue pushes) may be nil.
func (t *traversal) plantStub(r *xrand.Rand, probe *smpmodel.Probe, buf []graph.VID) []graph.VID {
	r.Reseed(t.o.Seed)
	seeds := buf[:0]
	if t.o.NoStub {
		s := graph.VID(r.Intn(t.n))
		t.claimSeq(s, graph.None)
		seeds = append(seeds, s)
	} else {
		seeds = stubSpanningTree(t, r, probe, seeds)
	}
	p := t.o.NumProcs
	for i, s := range seeds {
		t.queues[i%p].Push(int32(s))
		probe.NonContig(1)
		t.rec.Trace(0, obs.EvSeed, int64(s), int64(i%p))
	}
	t.o.Model.AddBarriers(1)
	t.rec.AddBarrierEpisodes(1)
	t.rec.Trace(-1, obs.EvBarrier, 1, 0)
	return seeds
}

// run executes both steps of the algorithm with one-shot worker
// goroutines.
func (t *traversal) run() ([]graph.VID, Stats, error) {
	o := t.o
	var stats Stats
	stats.VerticesPerProc = make([]int64, o.NumProcs)
	stats.EdgesPerProc = make([]int64, o.NumProcs)
	if t.n == 0 {
		return t.parent, stats, nil
	}
	var rootRand xrand.Rand
	stats.StubSize = len(t.plantStub(&rootRand, o.Model.Probe(0), nil))
	if t.cancel.Tripped() {
		// Canceled before the traversal even started (e.g. an already-
		// expired deadline): don't spin up the team.
		return t.stopOutcome(&stats)
	}

	// Step 2: the work-stealing traversal. The workers join through one
	// barrier episode, which gives them per-worker barrier_waits just
	// like the SV family. The stuck-run watchdog is armed only around
	// this step — the stub walk above never beats.
	if t.wd != nil {
		t.wd.Arm(t.cancel, o.StallBudget)
		defer t.wd.Disarm()
	}
	p := o.NumProcs
	bar := barrier.NewSense(p + 1)
	bar.Observe(t.rec)
	for tid := 0; tid < p; tid++ {
		go func(tid int) {
			// Every worker reaches the join barrier whatever happens in its
			// body: a panic is isolated here (recorded, the run's flag
			// tripped so the teammates drain at their next poll) and the
			// coordinator below never waits on a dead goroutine.
			defer bar.Wait(tid)
			defer func() {
				if r := recover(); r != nil {
					t.recoverWorker(tid, r)
				}
			}()
			t.worker(tid)
		}(tid)
	}
	bar.Wait(p) // the coordinator is the extra participant
	o.Model.AddBarriers(1)
	return t.finish(&stats)
}

// finish resolves a run whose traversal step has joined: a tripped flag
// goes to stopOutcome; otherwise the span is reported, the roots are
// normalized, Stats is derived, and a tripped detection threshold
// completes the forest with Shiloach-Vishkin.
func (t *traversal) finish(stats *Stats) ([]graph.VID, Stats, error) {
	if t.cancel.Tripped() {
		return t.stopOutcome(stats)
	}
	if t.span != nil {
		t.o.Model.AddSpanNC(t.spanMax())
	}
	t.normalizeRoots()
	t.finishStats(stats)
	if t.abort.Load() {
		stats.FallbackTriggered = true
		svStats, err := t.fallback()
		stats.SVStats = svStats
		if err != nil {
			return nil, *stats, err
		}
	}
	return t.parent, *stats, nil
}

// stopOutcome resolves a run whose stop flag tripped. Context stops
// return the typed error (fault.ErrCanceled / fault.ErrDeadline) with
// the partial Stats; an isolated worker panic degrades to the
// sequential BFS so the caller still receives a valid forest, with the
// PanicError surfaced through Stats.Panic. The partially-written
// parallel parent array is abandoned, never repaired in place.
func (t *traversal) stopOutcome(stats *Stats) ([]graph.VID, Stats, error) {
	if t.cancel.Cause() == fault.CauseStalled {
		t.rec.Worker(0).Incr(obs.StallTrips)
	}
	t.finishStats(stats)
	if t.cancel.Cause() == fault.CausePanicked {
		stats.Panic = t.cancel.Panic()
		stats.DegradedToSeq = true
		return spanseq.BFS(t.g, t.o.Model.Probe(0)), *stats, nil
	}
	return nil, *stats, t.cancel.Err()
}

// finishStats records the queues' high-water marks into the recorder
// and derives the public Stats values from the recorder's snapshot —
// the Stats struct is a view over the unified observability layer.
func (t *traversal) finishStats(stats *Stats) {
	for i, q := range t.queues {
		t.rec.Worker(i).Max(obs.QueueHighWater, int64(q.HighWater()))
	}
	snap := t.rec.Snapshot()
	stats.Steals = snap.Totals.StealSuccesses
	stats.StealAttempts = snap.Totals.StealAttempts
	stats.ChunkGrow = snap.Totals.ChunkGrow
	stats.ChunkShrink = snap.Totals.ChunkShrink
	stats.StolenVertices = snap.Totals.StolenVertices
	stats.FailedClaims = snap.Totals.FailedClaims
	stats.CursorRoots = snap.Totals.SeededComponents
	for i := 0; i < t.o.NumProcs && i < len(snap.Workers); i++ {
		stats.VerticesPerProc[i] = snap.Workers[i].VerticesClaimed
		stats.EdgesPerProc[i] = snap.Workers[i].EdgesScanned
	}
}

// finishStatsPooled is finishStats for pooled runs: the same
// derivation, but through Recorder.Total and cached per-worker handles
// instead of a Snapshot, whose slice-of-workers view allocates on every
// call.
func (t *traversal) finishStatsPooled(stats *Stats, ows []*obs.Worker) {
	for i, q := range t.queues {
		ows[i].Max(obs.QueueHighWater, int64(q.HighWater()))
	}
	stats.Steals = t.rec.Total(obs.StealSuccesses)
	stats.StealAttempts = t.rec.Total(obs.StealAttempts)
	stats.ChunkGrow = t.rec.Total(obs.ChunkGrow)
	stats.ChunkShrink = t.rec.Total(obs.ChunkShrink)
	stats.StolenVertices = t.rec.Total(obs.StolenVertices)
	stats.FailedClaims = t.rec.Total(obs.FailedClaims)
	stats.CursorRoots = t.rec.Total(obs.SeededComponents)
	for i := range ows {
		stats.VerticesPerProc[i] = ows[i].Get(obs.VerticesClaimed)
		stats.EdgesPerProc[i] = ows[i].Get(obs.EdgesScanned)
	}
}

// rearm resets every run-scoped field of the traversal for the next
// pooled Run: parent sentinels, cursors, phases, the failed-steal
// signals, and the per-run seed. The queue and recorder resets are the
// caller's.
func (t *traversal) rearm(seed uint64) {
	for i := range t.parent {
		t.parent[i] = graph.None
	}
	t.o.Seed = seed
	t.fail.Reset()
	t.visited.Store(0)
	t.cursor.Store(0)
	t.sleepers.Store(0)
	t.abort.Store(false)
	t.phase.Store(phaseTopDown)
	t.buCursor.Store(0)
	t.buClaims.Store(0)
}
