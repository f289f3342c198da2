package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported number. Samples is the sample count behind a
// timing or a ratio (0 when the metric does not apply to the workload,
// in which case Value is 0 and Note says so).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
	Note    string
}

// report collects a run's metrics in a fixed order.
type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit string, samples int, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Value: value, Unit: unit, Samples: samples, Note: note})
}

// absent records a per-layer metric the workload does not exercise.
func (r *report) absent(name, unit string) {
	r.add(name, 0, unit, 0, "not exercised by this workload")
}

// alias records a BENCHMARK.json metric under its workload-neutral name,
// copying the workload-specific metric it stands for.
func (r *report) alias(name, of string) {
	m, _ := r.get(of)
	r.add(name, m.Value, m.Unit, m.Samples, "= "+of)
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuTicks reads the machine's steal and total CPU time from /proc/stat
// (false where it cannot be read). Steal is time a virtual CPU was ready
// but the hypervisor ran someone else: the host noise behind a slow run.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// provenance records where and on what a run measured.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Trace        bool           `json:"trace"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	CPUModel     string         `json:"cpu_model"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SourceDigest string         `json:"source_digest"`
	Config       map[string]any `json:"config"`
}

func newProvenance(c *runConfig) *provenance {
	return &provenance{
		Workload:     c.workload,
		Seed:         c.seed,
		Seconds:      c.seconds,
		Trace:        c.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit(),
		SourceDigest: sourceDigest(c.root),
		Config:       map[string]any{},
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the program under test (every .go file and go.mod
// outside the benchmark's own directory and the build directory), so runs
// on a checkout with no git metadata still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "perfbench" || rel == ".bench_build" || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") && rel != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// printReport writes the human-readable lines: provenance, then every
// metric with its unit and sample count.
func printReport(w io.Writer, prov *provenance, rep *report) {
	b, _ := json.Marshal(prov)
	fmt.Fprintf(w, "provenance %s\n", b)
	for _, m := range rep.metrics {
		note := ""
		if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Fprintf(w, "metric %-32s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.Samples, note)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
