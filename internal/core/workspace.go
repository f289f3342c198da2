package core

import (
	"errors"
	"fmt"
	"sync"

	"spantree/internal/barrier"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/spanseq"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// WorkspaceOptions sizes the provisioned buffers of a Workspace.
type WorkspaceOptions struct {
	// QueueCapacity is the per-queue frontier the workspace provisions
	// for, in vertices. The steal-half ring doubles when more than half
	// its buffer is live, so each queue's buffer is allocated at twice
	// this value — with the default (0, meaning the graph's vertex count)
	// no run can ever grow a queue, because the total frontier of a
	// traversal is bounded by the vertex count. A smaller value trades
	// that guarantee for memory: a run whose frontier outgrows the
	// provision still completes correctly, it just reallocates (and the
	// session's steady state is no longer allocation-free).
	QueueCapacity int
}

// ErrWorkspaceClosed is returned by Run after Close.
var ErrWorkspaceClosed = errors.New("core: Run on a closed Workspace")

// Workspace is a reusable runtime for SpanningForest on one fixed graph:
// every buffer the algorithm needs (the parent array, the work-stealing
// queues, the per-worker drain/child/steal buffers, the observability
// recorder, the seed list) is allocated once at construction, and the
// worker goroutines are spawned once and parked between runs on their
// run-start channels, synchronizing each run's end through one reused
// sense-reversing barrier. A warmed workspace therefore executes Run
// with zero steady-state heap allocations — the property the serving
// layer's pooled sessions are built on.
//
// A Workspace is NOT safe for concurrent use: one Run at a time (the
// session pool enforces this by handing each workspace to one request).
// Close releases the parked team; it is the only way the goroutines
// exit, so callers must Close workspaces they drop.
type Workspace struct {
	t  *traversal
	qs []*wsq.StealHalf // concrete queues, for Reset between runs
	// wake[tid] carries the run-start signal to parked worker tid; the
	// workers and the coordinator (the extra participant) join through
	// bar.
	wake []chan struct{}
	bar  *barrier.Sense
	wss  []workerState
	// ows caches one recorder handle per worker: Recorder.Worker escapes
	// its handle to the heap on every call, so the handles are resolved
	// once here and shared with the worker states and the stats
	// derivation.
	ows []*obs.Worker
	wg  sync.WaitGroup

	rootRand xrand.Rand
	seeds    []graph.VID
	stats    Stats
	closed   bool
}

// NewWorkspace builds a workspace for g with the given run options.
// opt.Seed is ignored (each Run takes its own); opt.Cancel must be nil —
// the workspace owns its cancel flag, exposed through Flag. Options that
// allocate per run or change the memory shape (Model, Obs, Chaos,
// StealOne, Deg2Eliminate) are rejected: a workspace is the serving
// fast path, not the experiment harness.
func NewWorkspace(g *graph.Graph, opt Options, wopt WorkspaceOptions) (*Workspace, error) {
	if opt.NumProcs < 1 {
		return nil, fmt.Errorf("core: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	switch {
	case opt.Model != nil:
		return nil, errors.New("core: Workspace does not support a cost Model")
	case opt.Obs != nil:
		return nil, errors.New("core: Workspace does not support an external Obs recorder")
	case opt.Chaos != nil:
		return nil, errors.New("core: Workspace does not support chaos injection")
	case opt.Cancel != nil:
		return nil, errors.New("core: Workspace owns its cancel flag; use Flag instead of Options.Cancel")
	case opt.StealOne:
		return nil, errors.New("core: Workspace does not support the StealOne ablation")
	case opt.Deg2Eliminate:
		return nil, errors.New("core: Workspace does not support Deg2Eliminate")
	}
	o := opt.withDefaults()

	w := &Workspace{}
	// The queue supplier runs once per worker during construction; each
	// buffer holds twice the provisioned frontier, see WorkspaceOptions.
	qcap := wopt.QueueCapacity
	if n := g.NumVertices(); qcap <= 0 || qcap > n {
		qcap = n
	}
	qcap = max(qcap, 16)
	mk := func() workQueue {
		q := wsq.NewStealHalf(2 * qcap)
		w.qs = append(w.qs, q)
		return stealHalfQueue{q}
	}
	t, err := newTraversalQ(g, o, mk)
	if err != nil {
		return nil, err
	}
	w.t = t

	// Per-worker buffers, provisioned for the worst case so the hot loop
	// never grows them: the child buffer can receive every not-yet-claimed
	// vertex of a chunk's neighborhoods (bounded by the frontier), a
	// steal takes at most half a victim's live queue.
	p := o.NumProcs
	ctrl := newChunkController(&t.o)
	ctrlMax := ctrl.Max()
	w.ows = make([]*obs.Worker, p)
	w.wss = make([]workerState, p)
	for tid := range w.wss {
		w.ows[tid] = t.rec.Worker(tid)
		ws := &w.wss[tid]
		ws.chunk = make([]int32, ctrlMax)
		ws.out = make([]int32, 0, max(4*ctrlMax, qcap))
		ws.stealBuf = make([]int32, 0, max(qcap/2+1, 256))
		ws.ow = w.ows[tid]
	}
	w.seeds = make([]graph.VID, 0, o.StubSteps+1)
	w.stats.VerticesPerProc = make([]int64, p)
	w.stats.EdgesPerProc = make([]int64, p)

	// The parked team: one goroutine per worker, created once, woken per
	// run, joined per run through the reused barrier. They exit only when
	// Close retires the wake channels.
	w.bar = barrier.NewSense(p + 1)
	w.bar.Observe(t.rec)
	w.wake = make([]chan struct{}, p)
	for tid := range w.wake {
		w.wake[tid] = make(chan struct{})
		w.wg.Add(1)
		go func(tid int) {
			defer w.wg.Done()
			for range w.wake[tid] {
				w.runOne(tid)
			}
		}(tid)
	}
	return w, nil
}

// runOne executes one parked worker's share of one run, with the same
// isolation contract as a one-shot run: the worker reaches the join
// barrier whatever happens in its body, and a panic trips the run flag
// so the teammates drain at their next poll.
func (w *Workspace) runOne(tid int) {
	defer w.bar.Wait(tid)
	defer func() {
		if r := recover(); r != nil {
			w.t.recoverWorker(tid, r)
		}
	}()
	w.t.workerLoop(tid, &w.wss[tid])
}

// Flag returns the workspace's cancel flag. The reuse contract: callers
// that arm it (fault.Watch, TripContext) must Reset it before the next
// Run — Run itself never resets the flag, so a trip that lands between
// the caller's Watch and the run's first poll is never lost.
func (w *Workspace) Flag() *fault.Flag { return w.t.cancel }

// NumProcs returns the workspace's worker count.
func (w *Workspace) NumProcs() int { return w.t.o.NumProcs }

// Graph returns the graph the workspace was built for.
func (w *Workspace) Graph() *graph.Graph { return w.t.g }

// Run executes the two-step algorithm with the given seed on the pooled
// buffers. The returned parent slice and Stats are owned by the
// workspace and valid only until the next Run — callers consume or copy
// them before releasing the workspace.
//
// Cancellation follows the one-shot contract: if the workspace flag
// trips (via fault.Watch on Flag), Run drains and returns
// fault.ErrCanceled / fault.ErrDeadline with partial stats; an isolated
// worker panic degrades to the sequential BFS. In every case the
// workspace remains reusable.
func (w *Workspace) Run(seed uint64) ([]graph.VID, *Stats, error) {
	if w.closed {
		return nil, nil, ErrWorkspaceClosed
	}
	t := w.t

	// Rearm the shared state. Everything below is written by this
	// goroutine before the wake sends, which happen-before the workers'
	// reads.
	t.rearm(seed)
	for _, q := range w.qs {
		q.Reset()
	}
	t.rec.Reset()
	vp, ep := w.stats.VerticesPerProc, w.stats.EdgesPerProc
	clear(vp)
	clear(ep)
	w.stats = Stats{VerticesPerProc: vp, EdgesPerProc: ep}

	if t.n == 0 {
		return t.parent, &w.stats, nil
	}

	// Step 1: the stub spanning tree on the calling goroutine, into the
	// pooled seed buffer.
	w.seeds = t.plantStub(&w.rootRand, nil, w.seeds)
	w.stats.StubSize = len(w.seeds)
	if t.cancel.Tripped() {
		// Canceled before the traversal started (e.g. an already-expired
		// deadline): don't wake the team.
		return w.stop()
	}

	// Step 2: wake the parked team and join it through the reused
	// barrier. The parked watchdog rearms here and disarms synchronously
	// on every exit path, so the next Run's flag Reset can never race a
	// late stall trip; Arm/Disarm exchange a value on a preallocated
	// channel, keeping the steady state allocation-free.
	if t.wd != nil {
		t.wd.Arm(t.cancel, t.o.StallBudget)
		defer t.wd.Disarm()
	}
	for tid := range w.wss {
		t.resetWorkerState(tid, &w.wss[tid])
	}
	for _, wake := range w.wake {
		wake <- struct{}{}
	}
	w.bar.Wait(len(w.wake)) // the coordinator is the extra participant
	if t.cancel.Tripped() {
		return w.stop()
	}
	t.normalizeRoots()
	t.finishStatsPooled(&w.stats, w.ows)

	if t.abort.Load() {
		// Pathological case detected: finish with Shiloach-Vishkin. The
		// fallback allocates — leaving the zero-alloc steady state is the
		// right trade on an input that defeated the traversal.
		w.stats.FallbackTriggered = true
		svStats, err := t.fallback()
		w.stats.SVStats = svStats
		if err != nil {
			return nil, &w.stats, err
		}
	}
	return t.parent, &w.stats, nil
}

// stop resolves a pooled run whose flag tripped, mirroring stopOutcome
// without the allocating Snapshot: context stops return the typed error
// with partial stats; a worker panic degrades to the sequential BFS.
func (w *Workspace) stop() ([]graph.VID, *Stats, error) {
	t := w.t
	if t.cancel.Cause() == fault.CauseStalled {
		w.ows[0].Incr(obs.StallTrips)
	}
	t.finishStatsPooled(&w.stats, w.ows)
	if t.cancel.Cause() == fault.CausePanicked {
		w.stats.Panic = t.cancel.Panic()
		w.stats.DegradedToSeq = true
		return spanseq.BFS(t.g, nil), &w.stats, nil
	}
	return nil, &w.stats, t.cancel.Err()
}

// Close retires the parked team and marks the workspace unusable. It
// must not race a Run. Idempotent.
func (w *Workspace) Close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, wake := range w.wake {
		close(wake)
	}
	w.wg.Wait()
	w.t.wd.Close()
}
