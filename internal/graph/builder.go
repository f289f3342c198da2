package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces a canonical CSR
// Graph: self-loops dropped, parallel edges deduplicated, neighbor lists
// sorted. It is the single entry point all generators use, so every
// Graph in the library satisfies Validate.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices. It panics if
// n < 0 or n exceeds the int32 vertex space.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder with negative n = %d", n))
	}
	if int64(n) > int64(1)<<31-1 {
		panic(fmt.Sprintf("graph: n = %d exceeds int32 vertex space", n))
	}
	return &Builder{n: n}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// NumPendingEdges returns the number of edges added so far (before
// dedup).
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// AddEdge records the undirected edge {u,v}. Self-loops are silently
// dropped; duplicates are removed at Build time. It panics on
// out-of-range endpoints: generators are internal code, and a bad
// endpoint is a programming error, not an input error.
func (b *Builder) AddEdge(u, v VID) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v}.Canon())
}

// Grow appends extra vertices, returning the id of the first new vertex.
func (b *Builder) Grow(extra int) VID {
	if extra < 0 {
		panic("graph: Grow with negative extra")
	}
	first := VID(b.n)
	b.n += extra
	return first
}

// Build produces the canonical CSR graph and resets nothing: the builder
// may continue to accumulate edges for a later Build.
func (b *Builder) Build() *Graph {
	// Sort canonical edges to dedup.
	es := slices.Clone(b.edges)
	slices.SortFunc(es, func(x, y Edge) int {
		if c := cmp.Compare(x.U, y.U); c != 0 {
			return c
		}
		return cmp.Compare(x.V, y.V)
	})
	return fromCanonicalEdges(b.n, slices.Compact(es))
}

// fromCanonicalEdges builds CSR from deduplicated canonical (U<V) edges
// in (U,V)-sorted order. Each list is filled with its smaller neighbours
// first, in one pass (they arrive in U order), and its larger ones
// second, in another (they arrive in V order), so every list comes out
// sorted without a per-vertex sort.
func fromCanonicalEdges(n int, es []Edge) *Graph {
	offs := make([]int64, n+1)
	for _, e := range es {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]VID, offs[n])
	next := make([]int64, n)
	copy(next, offs[:n])
	for _, e := range es {
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	for _, e := range es {
		adj[next[e.U]] = e.V
		next[e.U]++
	}
	return &Graph{Offs: offs, Adj: adj}
}

// FromEdges builds a canonical graph with n vertices from an arbitrary
// edge list (self-loops dropped, duplicates removed). It returns an
// error for out-of-range endpoints, making it suitable for external
// input, unlike Builder.AddEdge which panics.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	b := NewBuilder(n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// Union returns the disjoint union of the given graphs: vertex ids of
// graph i are shifted by the total vertex count of graphs 0..i-1. Useful
// for constructing disconnected test inputs.
func Union(gs ...*Graph) *Graph {
	total := 0
	for _, g := range gs {
		total += g.NumVertices()
	}
	b := NewBuilder(total)
	base := VID(0)
	for _, g := range gs {
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(VID(v)) {
				if VID(v) < w {
					b.AddEdge(base+VID(v), base+w)
				}
			}
		}
		base += VID(g.NumVertices())
	}
	u := b.Build()
	u.Name = "union"
	return u
}
