// Command perfbench is the repository benchmark: it drives the simulator
// through its public entry points on one workload, checks every run's
// outputs, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a separate traced run (--trace 1).
//
// The system has two clocks and the benchmark reports both. Virtual time
// is the simulated DGX-A100; for a given seed it is deterministic, so the
// virtual metrics repeat exactly. Host time is what running the simulator
// costs, measured over repeated units of work.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload train-products --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it are a
// human-readable table of every metric with its unit and a stamp line
// (commit, Go version, GOMAXPROCS, nproc, seed and workload parameters).
// With --trace 1 the spans, the per-family device busy/idle totals and the
// CPU-profile attribution are written to --out as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"wholegraph/internal/tensor"
)

// Seeds: defaultSeed is the seed a plain run uses; heldOutSeed is reserved
// for confirming a later performance claim on inputs not seen while the
// change was written (choosing-metrics §6.3). Any other seed is valid.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's metric set, kept in insertion order for printing.
type report struct {
	names []string
	m     map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

// tally counts operations and records failed output checks.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) op(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// check records a failed correctness condition; the run then reports
// correct=false.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "workload seed (dataset, trainer and request streams)")
	seconds := flag.Float64("seconds", 10, "length of the measured phase: it fixes how many units of work host_s is the minimum of")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span and attribution file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	// One process, host parallelism bounded by the CPUs present: the row
	// kernels' worker pool follows GOMAXPROCS.
	tensor.SetWorkers(runtime.GOMAXPROCS(0))

	stamp := map[string]any{
		"workload":   w.name,
		"commit":     commit(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"seed":       *seed,
		"seeds":      map[string]int64{"default": defaultSeed, "held_out": heldOutSeed},
		"seconds":    *seconds,
		"trace":      *traced,
		"params":     w.params,
	}
	sj, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", sj)

	var (
		rep *report
		t   tally
		err error
	)
	if *traced == 0 {
		rep, err = endToEnd(w, *seed, *seconds, &t)
	} else {
		rep, err = perLayer(w, *seed, &t, stamp, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.names {
		if v := rep.m[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			t.check(false, "metric %s is %v", n, v)
			rep.set(n, rep.m[n].Unit, 0) // JSON has no NaN or Inf
		}
	}
	if t.attempted < 1 {
		t.attempted, t.failed = 1, 1
		t.check(false, "no operation ran")
	}
	printTable(rep)
	for _, p := range t.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(t.problems) == 0, t.attempted, t.failed, rep.m}
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(rj))
	return 0
}

func printTable(r *report) {
	for _, n := range r.names {
		fmt.Printf("  %-36s %16.6g %s\n", n, r.m[n].Value, r.m[n].Unit)
	}
}

// commit returns the VCS revision the binary was built from, when the
// build ran inside a git checkout; "unknown" otherwise.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// procStatusMiB reads one memory field (VmRSS, VmHWM) of
// /proc/self/status in MiB.
func procStatusMiB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// retainedRSSMiB collects garbage, returns freed pages to the kernel and
// reads the resident set that remains.
func retainedRSSMiB() (float64, error) {
	debug.FreeOSMemory()
	return procStatusMiB("VmRSS")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank p-quantile of xs (0 < p <= 1).
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
