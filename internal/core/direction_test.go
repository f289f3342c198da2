package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/spanseq"
	"spantree/internal/verify"
)

// fig4Family builds a small instance of every Fig. 4 generator family,
// sized past buMinGraph so direction optimization is armed.
func fig4Family() []*graph.Graph {
	const n, seed = 1 << 12, uint64(7)
	return []*graph.Graph{
		gen.Torus2D(64, 64),
		graph.RandomRelabel(gen.Torus2D(64, 64), seed^0xA5A5),
		gen.Random(n, 12*n, seed),
		gen.Mesh2D(64, 64, 0.60, seed),
		gen.Mesh3D(16, 16, 16, 0.40, seed),
		gen.AD3(n, seed),
		gen.GeoFlat(n, gen.DefaultGeoFlatParams(), seed),
		gen.GeoHier(n, gen.DefaultGeoHierParams(), seed),
		gen.Chain(n),
		graph.RandomRelabel(gen.Chain(n), seed^0x5A5A),
	}
}

// sweepRestartGraph needs several bottom-up sweeps: three dense random
// components, each seeded at quiescence and each entering its own
// bottom-up episode, with more sweeps than episodes, so the queues are
// cleared at a sweep restart at least once (TestSweepRestartStress pins
// that at p = 1).
func sweepRestartGraph() *graph.Graph {
	return graph.Union(gen.Random(8192, 32768, 7), gen.Random(8192, 32768, 8),
		gen.Random(8192, 32768, 9))
}

func numRoots(parent []graph.VID) int {
	roots := 0
	for _, pv := range parent {
		if pv == graph.None {
			roots++
		}
	}
	return roots
}

func TestDirectionAndLayoutParse(t *testing.T) {
	for _, tc := range []struct {
		in  string
		dir Direction
	}{{"auto", DirectionAuto}, {"topdown", DirectionTopDown}} {
		d, err := ParseDirection(tc.in)
		if err != nil || d != tc.dir || d.String() != tc.in {
			t.Fatalf("ParseDirection(%q) = %v, %v", tc.in, d, err)
		}
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Fatal("bad direction accepted")
	}
	for _, tc := range []struct {
		in  string
		lay Layout
	}{{"wide", LayoutWide}, {"compact", LayoutCompact}} {
		l, err := ParseLayout(tc.in)
		if err != nil || l != tc.lay || l.String() != tc.in {
			t.Fatalf("ParseLayout(%q) = %v, %v", tc.in, l, err)
		}
	}
	if _, err := ParseLayout("sparse"); err == nil {
		t.Fatal("bad layout accepted")
	}
}

// TestLayoutForestsByteIdenticalAtP1 pins that the compact layout is a
// pure re-encoding of the hot path: at p = 1 both drivers are
// deterministic, so the wide and compact layouts must claim in the same
// order and produce byte-identical forests on every Fig. 4 family.
func TestLayoutForestsByteIdenticalAtP1(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range fig4Family() {
			wide, _, err := run(g, Options{NumProcs: 1, Seed: 5, Layout: LayoutWide})
			if err != nil {
				t.Fatalf("%s %v wide: %v", name, g, err)
			}
			compact, _, err := run(g, Options{NumProcs: 1, Seed: 5, Layout: LayoutCompact})
			if err != nil {
				t.Fatalf("%s %v compact: %v", name, g, err)
			}
			if len(wide) != len(compact) {
				t.Fatalf("%s %v: forest lengths differ", name, g)
			}
			for v := range wide {
				if wide[v] != compact[v] {
					t.Fatalf("%s %v: parent[%d] = %d wide vs %d compact",
						name, g, v, wide[v], compact[v])
				}
			}
			if err := verify.Forest(g, wide); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
		}
	}
}

// TestBottomUpEngagesOnBallooningFrontier pins the tentpole behavior:
// on a low-diameter geometric graph the lockstep driver must actually
// switch into the bottom-up phase, claim vertices there, and still
// produce a valid forest. (A traversal may legitimately end inside the
// bottom-up phase, so only the entry switch is guaranteed.) The
// concurrent driver's switch points are scheduling-dependent, so it
// only asserts validity.
func TestBottomUpEngagesOnBallooningFrontier(t *testing.T) {
	// Dense random: low diameter and average degree 24, past the
	// buMinAvgDeg arming gate at any scale (geo-hier only crosses it
	// around n = 2^16 — its density grows with n).
	g := gen.Random(1<<14, 12<<14, 7)
	rec := obs.New(4)
	parent, _, err := LockstepForest(g, Options{NumProcs: 4, Seed: 7, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatal(err)
	}
	tot := rec.NewReport("", nil).Snapshot.Totals
	if tot.DirectionSwitches == 0 {
		t.Fatal("DirectionSwitches = 0: bottom-up never engaged")
	}
	if tot.BottomUpClaims == 0 || tot.BottomUpScanned == 0 {
		t.Fatalf("bottom-up phase idle: claims=%d scanned=%d",
			tot.BottomUpClaims, tot.BottomUpScanned)
	}

	for name, run := range drivers() {
		for _, lay := range []Layout{LayoutWide, LayoutCompact} {
			p, _, err := run(g, Options{NumProcs: 4, Seed: 7, Layout: lay})
			if err != nil {
				t.Fatalf("%s %v: %v", name, lay, err)
			}
			if err := verify.Forest(g, p); err != nil {
				t.Fatalf("%s %v: %v", name, lay, err)
			}
		}
	}
}

// TestTopDownPinDisablesSwitching: DirectionTopDown must never enter
// the bottom-up phase, whatever the frontier does.
func TestTopDownPinDisablesSwitching(t *testing.T) {
	g := gen.Random(1<<14, 12<<14, 7)
	rec := obs.New(4)
	parent, _, err := LockstepForest(g, Options{NumProcs: 4, Seed: 7, Obs: rec, Direction: DirectionTopDown})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatal(err)
	}
	tot := rec.NewReport("", nil).Snapshot.Totals
	if tot.DirectionSwitches != 0 || tot.BottomUpScanned != 0 {
		t.Fatalf("pinned top-down still switched: switches=%d scanned=%d",
			tot.DirectionSwitches, tot.BottomUpScanned)
	}
}

// TestLockstepChunkInvariantWithBottomUp extends the chunk-invariance
// pin to a graph where the bottom-up phase engages: the bottom-up scan
// quantum is fixed (buChunk), so the forest must stay identical across
// drain chunk policies even when sweeps interleave with the drain.
func TestLockstepChunkInvariantWithBottomUp(t *testing.T) {
	g := gen.Random(1<<14, 12<<14, 7)
	variants := []Options{
		{NumProcs: 4, Seed: 5, ChunkPolicy: ChunkFixed, ChunkSize: 1},
		{NumProcs: 4, Seed: 5, ChunkPolicy: ChunkFixed, ChunkSize: 64},
		{NumProcs: 4, Seed: 5, ChunkPolicy: ChunkAdaptive},
	}
	var ref []graph.VID
	for i, opt := range variants {
		parent, _, err := LockstepForest(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = parent
			if err := verify.Forest(g, parent); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for v := range ref {
			if parent[v] != ref[v] {
				t.Fatalf("variant %d: parent[%d] = %d, want %d — chunk policy leaked into the schedule",
					i, v, parent[v], ref[v])
			}
		}
	}
}

// TestCompactLayoutRejectsNothingAtTestScale: the Options plumbing must
// surface CompactOf errors instead of panicking; representable graphs
// must run.
func TestCompactLayoutOnTinyGraphs(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range shapes() {
			parent, _, err := run(g, Options{NumProcs: 2, Seed: 3, Layout: LayoutCompact})
			if err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
		}
	}
}

// TestSweepRestartDropsClosedVertices pins the frontier hand-off on
// counters, not timings: this graph takes one bottom-up episode of two
// sweeps at p = 1, and the restart drops every vertex queued before it,
// so the run scans fewer arcs than the graph has. Expanding the dropped
// vertices instead pushes the count past len(g.Adj).
func TestSweepRestartDropsClosedVertices(t *testing.T) {
	g := gen.Random(1<<16, 4<<16, 7)
	n := int64(g.NumVertices())
	wantComps := numRoots(spanseq.BFS(g, nil))
	for name, run := range drivers() {
		rec := obs.New(1)
		parent, _, err := run(g, Options{NumProcs: 1, Seed: 5, Obs: rec})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := numRoots(parent); got != wantComps {
			t.Fatalf("%s: %d roots, want %d", name, got, wantComps)
		}
		tot := rec.NewReport("", nil).Snapshot.Totals
		if tot.DirectionSwitches != 2 || tot.BottomUpScanned != 2*n {
			t.Fatalf("%s: switches=%d swept=%d, want one episode of two sweeps (2, %d)",
				name, tot.DirectionSwitches, tot.BottomUpScanned, 2*n)
		}
		if tot.EdgesScanned >= int64(len(g.Adj)) {
			t.Fatalf("%s: scanned %d arcs, want fewer than the graph's %d",
				name, tot.EdgesScanned, len(g.Adj))
		}
	}
}

// TestSweepRestartStress drives the sweep restart with real races (run
// it under -race): both drivers, both queue designs, p = 2, 4, 8. Every
// run must verify and seed exactly one root per component — a vertex
// dropped before its neighbours were closed would leave them unclaimed
// at quiescence and split its component.
func TestSweepRestartStress(t *testing.T) {
	g := sweepRestartGraph()
	n := int64(g.NumVertices())
	wantComps := graph.NumComponents(g)
	rec := obs.New(1)
	if _, _, err := LockstepForest(g, Options{NumProcs: 1, Seed: 5, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	tot := rec.NewReport("", nil).Snapshot.Totals
	if episodes := (tot.DirectionSwitches + 1) / 2; tot.BottomUpScanned <= episodes*n {
		t.Fatalf("swept %d vertices over %d bottom-up episodes of n=%d: no sweep restarted",
			tot.BottomUpScanned, episodes, n)
	}
	for name, run := range drivers() {
		for _, stealOne := range []bool{false, true} {
			for _, p := range []int{2, 4, 8} {
				for seed := uint64(1); seed <= 3; seed++ {
					parent, _, err := run(g, Options{NumProcs: p, Seed: seed, StealOne: stealOne})
					if err != nil {
						t.Fatalf("%s stealOne=%v p=%d seed=%d: %v", name, stealOne, p, seed, err)
					}
					if err := verify.Forest(g, parent); err != nil {
						t.Fatalf("%s stealOne=%v p=%d seed=%d: %v", name, stealOne, p, seed, err)
					}
					if got := numRoots(parent); got != wantComps {
						t.Fatalf("%s stealOne=%v p=%d seed=%d: %d roots, want %d",
							name, stealOne, p, seed, got, wantComps)
					}
				}
			}
		}
	}
}
