// Command perfbench is the repository's benchmark. It builds its inputs
// from a workload seed, drives the public entry points of the gen,
// spantree, core, spanseq and serve layers, times those calls from the
// outside, checks every output against an independent oracle, and prints
// the metrics named in BENCHMARK.json. See METRICS.md for what each
// workload and metric is for.
//
//	perfbench -root .. -workload find-random -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are BENCHMARK.json's end_to_end list, measured untraced; with
// -trace 1 they are its per_layer list, from a run that alternates
// untraced and traced iterations (find-*) or requests (serve-mixed) and
// records spans around every call of the traced ones. Every run starts
// with the oracle self-test. Exit codes: 0 success, 1 error, a failed
// self-test or a layer the run failed to exercise, 3 incorrect output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is
// the median.
const setupRepeats = 5

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
}

// runCtx is the state one workload run shares with run and main.
type runCtx struct {
	*runConfig
	nproc     int
	tr        *tracer
	prov      *provenance
	rep       report
	attempted int
	failed    int
	// unexercised lists layers the run was meant to reach and did not.
	unexercised []string
}

var workloads = map[string]func(*runCtx) error{
	"find-random": func(r *runCtx) error { return runLibrary(r, findRandom) },
	"find-torus":  func(r *runCtx) error { return runLibrary(r, findTorus) },
	"serve-mixed": runServe,
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names each kind of run must print.
type benchSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
}

func main() {
	var (
		c     runConfig
		trace int
	)
	flag.StringVar(&c.workload, "workload", "", "workload: find-random, find-torus or serve-mixed")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed; drives every generator, request and order")
	flag.Float64Var(&c.seconds, "seconds", 30, "measurement time of one run")
	flag.IntVar(&trace, "trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&c.root, "root", ".", "checkout root holding BENCHMARK.json and the spantree module")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(1)
	}
	c.trace = trace == 1

	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle self-test failed:", err)
		os.Exit(1)
	}
	fmt.Println("oracle self-test passed: the cycle, the non-neighbour parent and both wrong root counts were rejected")
	code, err := run(&c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(c *runConfig) (int, error) {
	raw, err := os.ReadFile(filepath.Join(c.root, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return 1, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	w, ok := workloads[c.workload]
	if !ok {
		return 1, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return 1, fmt.Errorf("-seconds must be positive")
	}
	r := &runCtx{runConfig: c, nproc: runtime.NumCPU(), tr: newTracer()}
	r.prov = newProvenance(c)
	steal0, total0, stealOK := cpuTicks()
	if err := w(r); err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			return 3, fmt.Errorf("INCORRECT OUTPUT: %w", err)
		}
		return 1, err
	}
	r.rep.add("rss_peak_mb", rssPeakMB(), "MB", 1, "")
	if steal1, total1, ok := cpuTicks(); ok && stealOK && total1 > total0 {
		r.rep.add("bench.cpu_steal_frac", float64(steal1-steal0)/float64(total1-total0), "frac", 1, "host noise: CPU time stolen by the hypervisor during the run")
	} else {
		r.rep.add("bench.cpu_steal_frac", 0, "frac", 0, "/proc/stat unreadable")
	}

	printReport(os.Stdout, r.prov, &r.rep)
	if c.trace {
		if err := writeSpans(r); err != nil {
			return 1, err
		}
	}
	if len(r.unexercised) > 0 {
		return 1, fmt.Errorf("run did not exercise its layers: %v", r.unexercised)
	}

	names := spec.EndToEnd
	if c.trace {
		names = spec.PerLayer
	}
	res := result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultItem{}}
	for _, n := range names {
		m, ok := r.rep.get(n.Name)
		if !ok {
			return 1, fmt.Errorf("metric %s named in BENCHMARK.json was not measured", n.Name)
		}
		res.Metrics[n.Name] = resultItem{Value: m.Value, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return 1, errors.New("no operation was attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	return 0, nil
}

// writeSpans dumps the traced run's spans and per-name self times under
// the checkout's build directory.
func writeSpans(r *runCtx) error {
	dir := filepath.Join(r.root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := r.tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfSummary struct {
		Name    string  `json:"name"`
		Count   int     `json:"count"`
		P50MS   float64 `json:"p50_ms"`
		TotalMS float64 `json:"total_ms"`
	}
	var summary []selfSummary
	for _, n := range names {
		xs := self[n]
		summary = append(summary, selfSummary{n, len(xs), quantile(xs, 0.5), mean(xs) * float64(len(xs))})
		fmt.Printf("self_time %-28s p50=%.3fms total=%.1fms n=%d\n", n, quantile(xs, 0.5), mean(xs)*float64(len(xs)), len(xs))
	}
	b, err := json.Marshal(struct {
		Provenance *provenance   `json:"provenance"`
		SelfTime   []selfSummary `json:"self_time"`
		Spans      []span        `json:"spans"`
	}{r.prov, summary, r.tr.snapshot()})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", r.workload, r.seed, time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// derive gives each use of the workload seed its own stream (splitmix64).
func derive(seed, tag uint64) uint64 {
	z := seed + tag*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
