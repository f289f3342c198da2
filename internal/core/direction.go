package core

// Direction-optimizing traversal. The work-stealing drain is a pure
// top-down push: each popped vertex streams its adjacency and CASes
// unclaimed neighbors, paying a non-contiguous queue write per claim.
// When the live frontier (queued, unprocessed vertices) is a large
// fraction of what is left unclaimed, most of those adjacency probes
// land on already-claimed vertices and the queue traffic dominates. At
// that point workers flip to a bottom-up sweep: stream the parent array
// in vertex order, and for each still-unclaimed vertex scan its
// neighbors for any claimed parent — one CAS per vertex claimed, no
// per-edge queue writes, and the parent-array stream is contiguous
// (charged as smpmodel.BottomUpScans). A sweep that claims too little
// flips back to top-down. This is the classic direction-optimizing
// (top-down / bottom-up) switch fused into the chunked drain, applied
// identically (and deterministically) in the lockstep driver.
//
// The quiescence protocol needs every claimed vertex to be queued,
// expanded, or closed by a later completed sweep. Sweep claims are
// pushed like top-down children. When a sweep ends still dense, the
// queues are cleared before the next sweep starts: that sweep rescans
// every unclaimed vertex against all of its neighbours, so each dropped
// vertex is closed (has no unclaimed neighbour) once it completes. The
// last sweep's claims stay queued and hand off to top-down as the
// frontier. No worker sleeps while a sweep quantum is in flight, so
// quiescence never sees a half-finished sweep.

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// Direction selects the traversal's direction policy.
type Direction int

const (
	// DirectionAuto (the default) lets the traversal switch between
	// top-down push and bottom-up sweep phases on frontier density.
	DirectionAuto Direction = iota
	// DirectionTopDown pins the traversal to the pure top-down push
	// (the pre-direction-optimization behavior; the ablation baseline).
	DirectionTopDown
)

// String returns the CLI name of the direction policy.
func (d Direction) String() string {
	if d == DirectionTopDown {
		return "topdown"
	}
	return "auto"
}

// ParseDirection converts a CLI name into a Direction.
func ParseDirection(s string) (Direction, error) {
	switch s {
	case "auto":
		return DirectionAuto, nil
	case "topdown":
		return DirectionTopDown, nil
	}
	return 0, fmt.Errorf("core: unknown direction %q (want auto or topdown)", s)
}

// Traversal phases (traversal.phase values).
const (
	phaseTopDown int32 = iota
	phaseBottomUp
)

const (
	// defaultBottomUpAlpha gates the top-down → bottom-up switch:
	// enter bottom-up when frontier*alpha >= remaining. The default
	// keeps the switch off on high-diameter inputs (a torus frontier is
	// O(sqrt n), never a quarter of the remainder) and triggers it on
	// the low-diameter generators where the frontier balloons.
	defaultBottomUpAlpha = 4
	// buBeta gates staying bottom-up: after a full sweep of the vertex
	// range, keep sweeping only if the sweep claimed at least n/buBeta
	// vertices; otherwise the frontier has thinned and top-down resumes.
	buBeta = 24
	// buGamma gates entry on absolute frontier density: enter bottom-up
	// only when frontier*buGamma >= n. A sweep always streams the whole
	// parent array, so it can only pay when a sizable fraction of the
	// graph is about to be claimed — without this gate the endgame of a
	// mesh traversal (small frontier, small remainder, ratio satisfied)
	// would trade a cheap top-down finish for full-array sweeps.
	buGamma = 16
	// buChunk is the fixed bottom-up scan quantum (vertices per cursor
	// grab). Fixed — not the adaptive chunk — so the lockstep driver
	// stays chunk-policy-invariant.
	buChunk = 64
	// buMinGraph disables direction optimization below this vertex
	// count: tiny graphs finish before a sweep pays for itself.
	buMinGraph = 4096
	// buMinAvgDeg disables direction optimization on sparse graphs
	// (fewer than this many arcs per vertex on average). A bottom-up
	// scan only pays when the early exit on the first claimed neighbor
	// skips most of a long adjacency list; with short lists every
	// non-claiming scan costs nearly as much as a top-down expansion,
	// so a sweep over the sparse remainder (measured on the m = 1.5n
	// random family: ~14 non-contiguous probes per bottom-up claim vs
	// ~3 top-down) loses even where the frontier is dense. Meshes sit
	// at degree 2-4 and are already excluded by their O(sqrt n)
	// frontiers; the geometric families (degree ~8-11) stay armed.
	buMinAvgDeg = 6
	// buMinRemaining keeps the traversal top-down for the endgame: a
	// sweep scans every vertex to find the last few stragglers, which
	// top-down reaches directly.
	buMinRemaining = 1024
)

// buShouldSwitch reports whether the frontier is dense enough to enter
// a bottom-up phase, charging the queue-length poll (one shared-counter
// read per queue) to probe. Returns the observed frontier size.
func (t *traversal) buShouldSwitch(probe *smpmodel.Probe) (int64, bool) {
	remaining := int64(t.n) - t.visited.Load()
	if remaining <= buMinRemaining {
		return 0, false
	}
	var frontier int64
	for _, q := range t.queues {
		frontier += int64(q.Len())
	}
	probe.NonContig(int64(len(t.queues)))
	dense := frontier*int64(t.buAlpha) >= remaining && frontier*buGamma >= int64(t.n)
	return frontier, dense
}

// buEnter flips the phase to bottom-up. Idempotent under buMu: the
// first worker to decide resets the sweep state, later callers bail.
func (t *traversal) buEnter(frontier int64, ow *obs.Worker) {
	t.buMu.Lock()
	defer t.buMu.Unlock()
	if t.phase.Load() != phaseTopDown {
		return
	}
	t.buClaims.Store(0)
	// The cursor reset must be visible before the phase flip: workers
	// observing phaseBottomUp grab chunks from the fresh sweep.
	t.buCursor.Store(0)
	t.phase.Store(phaseBottomUp)
	ow.Incr(obs.DirectionSwitches)
	ow.Trace(obs.EvDirection, int64(phaseBottomUp), frontier)
}

// buSweepEnd runs when a worker's cursor grab falls past n: the sweep
// is exhausted, and one worker (serialized by buMu) decides whether to
// sweep again or return to top-down. A sweep that claimed fewer than
// n/buBeta vertices, or left fewer than buMinRemaining unclaimed, ends
// the bottom-up phase.
func (t *traversal) buSweepEnd(tid int, ow *obs.Worker) {
	t.buMu.Lock()
	defer t.buMu.Unlock()
	if t.phase.Load() != phaseBottomUp || t.buCursor.Load() < int64(t.n) {
		return // another worker already reset or ended the sweep
	}
	claims := t.buClaims.Load()
	remaining := int64(t.n) - t.visited.Load()
	if remaining > buMinRemaining && claims*buBeta >= int64(t.n) {
		// Still dense: sweep again. Every queued vertex was claimed
		// before the next sweep starts, and that sweep rescans every
		// unclaimed vertex against all of its neighbours, so once it
		// completes no queued vertex has an unclaimed neighbour left.
		// Drop the queues before the cursor reset: expanding them would
		// claim nothing.
		for _, q := range t.queues {
			q.Clear()
		}
		// Chaos stalls here hold the sweep boundary open: pushes from
		// in-flight quanta and stale top-down chunks land between the
		// clear and the reset.
		t.inj.Visit(tid, chaos.PointDrain)
		t.buClaims.Store(0)
		t.buCursor.Store(0)
		return
	}
	t.phase.Store(phaseTopDown)
	ow.Incr(obs.DirectionSwitches)
	ow.Trace(obs.EvDirection, int64(phaseTopDown), claims)
}

// bottomUpQuantum runs one bottom-up scan quantum for a concurrent
// worker: grab buChunk vertices off the shared sweep cursor, scan them,
// push the claims onto the worker's own queue, and publish the visit
// count so termination and quiescence see bottom-up progress.
func (t *traversal) bottomUpQuantum(tid int, ws *workerState, myQ workQueue) {
	start := t.buCursor.Add(buChunk) - buChunk
	ws.probe.NonContig(1) // shared sweep-cursor fetch-add
	if start >= int64(t.n) {
		t.buSweepEnd(tid, ws.ow)
		return
	}
	hi := min(int(start)+buChunk, t.n)
	// Reuse the steal buffer as the claims buffer: its 256 capacity
	// covers buChunk, and reuse keeps pooled sessions allocation-free.
	claims := t.scanBottomUp(int(start), hi, ws.probe, &ws.lc, &ws.pend, ws.stealBuf[:0])
	if len(claims) > 0 {
		myQ.PushBatch(claims)
		ws.probe.NonContig(2 + int64(len(claims)))
		t.buClaims.Add(int64(len(claims)))
	}
	t.flushVisited(ws)
}

// scanBottomUp scans vertices [lo, hi): for each still-unclaimed vertex
// it streams the adjacency until the first claimed neighbor and tries
// one CAS to adopt it as parent. Appends claimed vertices to claims and
// returns the extended slice. Shared by the concurrent and lockstep
// drivers; charging: the parent-array stream is BottomUpScans, the
// offset load and adjacency stream go to the active layout's classes,
// and each neighbor's claim-state load plus the winning CAS stay
// non-contiguous exactly as in the top-down push.
func (t *traversal) scanBottomUp(lo, hi int, probe *smpmodel.Probe,
	lc *obs.Local, pend *int64, claims []int32) []int32 {
	probe.BottomUpScan(int64(hi - lo))
	lc.Add(obs.BottomUpScanned, int64(hi-lo))
	if t.cg != nil {
		return t.scanBottomUpCompact(lo, hi, probe, lc, pend, claims)
	}
	for v := lo; v < hi; v++ {
		gv := graph.VID(v)
		if atomic.LoadInt32(&t.parent[gv]) != graph.None {
			continue
		}
		nb := t.g.Neighbors(gv)
		probe.NonContig(1) // load adjacency offset
		scanned := len(nb)
		for i, w := range nb {
			probe.NonContig(1) // claim-state load of parent[w]
			if atomic.LoadInt32(&t.parent[w]) == graph.None {
				continue
			}
			scanned = i + 1
			if t.claim(gv, w) {
				probe.NonContig(1) // winning claim CAS
				if t.span != nil {
					// w's claimer publishes span[w] after its claim CAS, so
					// this read can race ahead and see the zero value; that
					// only under-counts the modeled span, and the lockstep
					// driver (which produces the figures) is exact.
					atomic.StoreInt64(&t.span[gv],
						atomic.LoadInt64(&t.span[w])+procCostNC(len(nb)))
				}
				claims = append(claims, int32(gv))
				*pend++
				lc.Incr(obs.BottomUpClaims)
			} else {
				lc.Incr(obs.FailedClaims) // raced with a top-down claim of v
			}
			break
		}
		probe.Contig(int64(scanned))
		lc.Add(obs.EdgesScanned, int64(scanned))
	}
	return claims
}

// scanBottomUpCompact is scanBottomUp's compact-layout twin: identical
// claim order, adjacency read through the uint32 arena and charged to
// the compact access classes.
func (t *traversal) scanBottomUpCompact(lo, hi int, probe *smpmodel.Probe,
	lc *obs.Local, pend *int64, claims []int32) []int32 {
	for v := lo; v < hi; v++ {
		gv := graph.VID(v)
		if atomic.LoadInt32(&t.parent[gv]) != graph.None {
			continue
		}
		nb := t.cg.Neighbors32(gv)
		probe.NonContigC(1) // load adjacency offset (uint32 arena)
		scanned := len(nb)
		for i, w := range nb {
			probe.NonContig(1) // claim-state load of parent[w]
			if atomic.LoadInt32(&t.parent[w]) == graph.None {
				continue
			}
			scanned = i + 1
			if t.claim(gv, graph.VID(w)) {
				probe.NonContig(1) // winning claim CAS
				if t.span != nil {
					atomic.StoreInt64(&t.span[gv],
						atomic.LoadInt64(&t.span[w])+procCostNC(len(nb)))
				}
				claims = append(claims, int32(gv))
				*pend++
				lc.Incr(obs.BottomUpClaims)
			} else {
				lc.Incr(obs.FailedClaims)
			}
			break
		}
		probe.ContigC(int64(scanned))
		lc.Add(obs.EdgesScanned, int64(scanned))
	}
	return claims
}
