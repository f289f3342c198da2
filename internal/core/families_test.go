package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

// fig4Families builds small instances of the ten Fig. 4 graph families —
// the same shapes the harness measures, scaled down for test time.
func fig4Families() map[string]*graph.Graph {
	n := 1 << 10
	s := 32
	return map[string]*graph.Graph{
		"torus":        gen.Torus2D(s, s),
		"torus-random": graph.RandomRelabel(gen.Torus2D(s, s), 0xA5A5),
		"random-nlogn": gen.Random(n, n*10, 7),
		"mesh2d":       gen.Mesh2D(s, s, 0.60, 7),
		"mesh3d":       gen.Mesh3D(10, 10, 10, 0.40, 7),
		"ad3":          gen.AD3(n, 7),
		"geo-flat":     gen.GeoFlat(n, gen.DefaultGeoFlatParams(), 7),
		"geo-hier":     gen.GeoHier(n, gen.DefaultGeoHierParams(), 7),
		"chain":        gen.Chain(n),
		"chain-random": graph.RandomRelabel(gen.Chain(n), 0x5A5A),
	}
}

// TestForestAllFamilies is the driver property test: on every Fig. 4
// family, both drivers at p = 1 and p = 4 must return a forest that
// verifies and carries exactly one root per component.
func TestForestAllFamilies(t *testing.T) {
	drivers := map[string]func(*graph.Graph, Options) ([]graph.VID, Stats, error){
		"lockstep":   LockstepForest,
		"concurrent": SpanningForest,
	}
	for name, g := range fig4Families() {
		wantComps := graph.NumComponents(g)
		for dname, run := range drivers {
			for _, p := range []int{1, 4} {
				parent, _, err := run(g, Options{NumProcs: p, Seed: 11, Model: smpmodel.New(p)})
				if err != nil {
					t.Fatalf("%s %s p=%d: %v", name, dname, p, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s %s p=%d: %v", name, dname, p, err)
				}
				roots := 0
				for _, pv := range parent {
					if pv == graph.None {
						roots++
					}
				}
				if roots != wantComps {
					t.Fatalf("%s %s p=%d: %d roots, want %d", name, dname, p, roots, wantComps)
				}
			}
		}
	}
}
