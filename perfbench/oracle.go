package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"spantree"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

// reference is the oracle's view of one graph: the graph generated from
// its gen.Spec by the benchmark itself and its component count, computed
// once by the sequential BFS. Outputs are checked against it, never against each other: the
// concurrent traversal returns a different valid forest on every run.
type reference struct {
	name  string
	g     *graph.Graph
	roots int
}

func newReference(name string, g *graph.Graph) (*reference, error) {
	res, err := spantree.Find(g, spantree.Options{Algorithm: spantree.AlgSequentialBFS})
	if err != nil {
		return nil, fmt.Errorf("oracle reference pass on %s: %w", name, err)
	}
	return &reference{name: name, g: g, roots: res.Roots}, nil
}

// checkError names the oracle check an output failed.
type checkError struct {
	check string
	graph string
	err   error
}

func (e *checkError) Error() string {
	return fmt.Sprintf("output on graph %s failed check %s: %v", e.graph, e.check, e.err)
}

func (r *reference) fail(check string, format string, args ...any) error {
	return &checkError{check: check, graph: r.name, err: fmt.Errorf(format, args...)}
}

// checkSummary checks the counts every output reports.
func (r *reference) checkSummary(n, roots, treeEdges int) error {
	if want := r.g.NumVertices(); n != want {
		return r.fail("n", "n = %d, want %d", n, want)
	}
	if roots != r.roots {
		return r.fail("roots", "roots = %d, reference component count is %d", roots, r.roots)
	}
	if treeEdges != n-roots {
		return r.fail("tree_edges", "tree_edges = %d, want n - roots = %d", treeEdges, n-roots)
	}
	return nil
}

// checkForest checks a received parent array and the counts reported
// with it: the array must pass verify.Forest against the regenerated
// graph, its own root count must equal the reference, and the reported
// counts must agree.
func (r *reference) checkForest(parent []graph.VID, roots, treeEdges int) error {
	if err := verify.Forest(r.g, parent); err != nil {
		return &checkError{check: "verify.Forest", graph: r.name, err: err}
	}
	counted := 0
	for _, p := range parent {
		if p == graph.None {
			counted++
		}
	}
	if counted != r.roots {
		return r.fail("roots", "parent array has %d roots, reference component count is %d", counted, r.roots)
	}
	return r.checkSummary(len(parent), roots, treeEdges)
}

// runChecks runs the checks on at most workers goroutines and returns the
// first failure.
func runChecks(checks []func() error, workers int) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
		next  = make(chan func() error)
	)
	for range min(workers, len(checks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if err := c(); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range checks {
		next <- c
	}
	close(next)
	wg.Wait()
	return first
}

// selfTest proves the oracle can fail: it feeds the checks a forest with
// a cycle, a forest with a parent that is not a neighbour, a forest and
// a summary with a wrong root count, and requires each to be rejected by
// the check it targets. A valid forest must pass.
func selfTest() error {
	spec := gen.Spec{Kind: "random", N: 4096, M: 3000, Seed: 7}
	g, err := gen.Generate(spec)
	if err != nil {
		return err
	}
	ref, err := newReference("selftest", g)
	if err != nil {
		return err
	}
	if ref.roots < 2 {
		return fmt.Errorf("self-test graph has %d components, want several", ref.roots)
	}
	res, err := spantree.Find(g, spantree.Options{NumProcs: 2, Seed: 1})
	if err != nil {
		return err
	}
	good := res.Parent
	n := len(good)
	if err := ref.checkForest(good, res.Roots, res.TreeEdges); err != nil {
		return fmt.Errorf("self-test: a valid forest was rejected: %w", err)
	}

	// A cycle: re-hang a root under its own child, so the two point at
	// each other.
	cyc := append([]graph.VID(nil), good...)
	child := -1
	for v, p := range cyc {
		if p != graph.None && cyc[p] == graph.None {
			child = v
			break
		}
	}
	if child < 0 {
		return errors.New("self-test: no root with a child")
	}
	cyc[cyc[child]] = graph.VID(child)

	// A parent that is not a neighbour.
	far := append([]graph.VID(nil), good...)
	v := -1
	var u graph.VID
	for x := range far {
		if far[x] == graph.None {
			continue
		}
		for w := graph.VID(0); int(w) < n; w++ {
			if w != graph.VID(x) && !g.HasEdge(graph.VID(x), w) {
				v, u = x, w
				break
			}
		}
		break
	}
	if v < 0 {
		return errors.New("self-test: no vertex to re-hang")
	}
	far[v] = u

	// A wrong root count: cut one tree edge, so a component has two roots.
	cut := append([]graph.VID(nil), good...)
	cut[child] = graph.None

	cases := []struct {
		name, check, msg string
		err              error
	}{
		{"cycle", "verify.Forest", "cycle", ref.checkForest(cyc, res.Roots, res.TreeEdges)},
		{"non-neighbour parent", "verify.Forest", "not an edge", ref.checkForest(far, res.Roots, res.TreeEdges)},
		{"extra root in the parent array", "verify.Forest", "roots", ref.checkForest(cut, res.Roots+1, res.TreeEdges-1)},
		{"wrong root count in a summary", "roots", "reference component count", ref.checkSummary(n, res.Roots+1, n-res.Roots-1)},
	}
	for _, c := range cases {
		var ce *checkError
		if !errors.As(c.err, &ce) || ce.check != c.check || !strings.Contains(ce.err.Error(), c.msg) {
			return fmt.Errorf("self-test: %s: want rejection by %s mentioning %q, got %v", c.name, c.check, c.msg, c.err)
		}
	}
	return nil
}
