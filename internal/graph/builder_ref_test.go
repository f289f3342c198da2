package graph_test

import (
	"slices"
	"sort"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/xrand"
)

// sortBuild is the sort-based reference CSR construction: canonicalize,
// sort and dedup the edge list, scatter both arcs of every edge, then
// sort each neighbour list on its own.
func sortBuild(n int, edges []graph.Edge) (offs []int64, adj []graph.VID) {
	var es []graph.Edge
	for _, e := range edges {
		if e.U != e.V {
			es = append(es, e.Canon())
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	es = slices.Compact(es)
	offs = make([]int64, n+1)
	for _, e := range es {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	adj = make([]graph.VID, offs[n])
	next := slices.Clone(offs[:n])
	for _, e := range es {
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	for v := 0; v < n; v++ {
		nb := adj[offs[v]:offs[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return offs, adj
}

// TestBuilderMatchesSortReference checks that the builder's sort-free
// neighbour-list fill produces byte-identical CSR to the sort-based
// reference on every generator, plain and randomly relabelled. The
// builder is fed each graph's edges shuffled, in both orientations,
// with duplicates and self-loops, so the dedup and canonicalization
// paths run too.
func TestBuilderMatchesSortReference(t *testing.T) {
	for _, kind := range gen.Kinds() {
		for _, relabel := range []bool{false, true} {
			g, err := gen.Generate(gen.Spec{Kind: kind, N: 600, M: 2400, Seed: 11, RandomLabel: relabel})
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumVertices()
			r := xrand.New(uint64(len(g.Adj)))
			var messy []graph.Edge
			for _, e := range g.Edges() {
				messy = append(messy, e, graph.Edge{U: e.V, V: e.U})
				if r.Intn(4) == 0 {
					messy = append(messy, graph.Edge{U: e.U, V: e.U})
				}
			}
			for i := len(messy) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				messy[i], messy[j] = messy[j], messy[i]
			}
			h, err := graph.FromEdges(n, messy)
			if err != nil {
				t.Fatal(err)
			}
			offs, adj := sortBuild(n, messy)
			if !slices.Equal(h.Offs, offs) || !slices.Equal(h.Adj, adj) {
				t.Fatalf("%s relabel=%v: builder CSR differs from the sort reference", kind, relabel)
			}
			if !slices.Equal(g.Offs, offs) || !slices.Equal(g.Adj, adj) {
				t.Fatalf("%s relabel=%v: generated CSR differs from the sort reference", kind, relabel)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("%s relabel=%v: %v", kind, relabel, err)
			}
		}
	}
}
