// Command perfbench is the repository's benchmark: it runs one named
// workload of the diagnosis pipeline from a seed, checks every diagnosis
// it produced against the product-unfolding reference of [8], and prints
// its metrics by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after building with perfbench/run.py):
//
//	perfbench --workload online-pipeline --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics of a
// separate traced run, and the Chrome trace of the run's first stream or
// session is written under --out.
//
// The benchmark measures every layer from outside: it times calls into
// each package's public functions and reads public counters. It adds no
// instrumentation to the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed part of the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for data dirs and trace files")
	flag.Parse()

	cfg, err := loadConfig(*workload, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	run := &run{
		cfg:     cfg,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		out:     *out,
		res:     newResult(),
	}
	if err := os.MkdirAll(run.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	stamp := map[string]any{
		"workload":   *workload,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(stamp)
	fmt.Printf("# stamp %s\n", b)

	if err := workloads[*workload](run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(run.res.print(run.traced))
}

// commit names the source the benchmark was built from: the git commit
// when the checkout has one, else a digest of the Go sources computed by
// run.py (PERFBENCH_COMMIT).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// run is one invocation: the workload's parameters, the seed and time
// budget, and the result being filled in.
type run struct {
	cfg     config
	seed    int64
	seconds time.Duration
	traced  bool
	out     string
	res     *result
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"online-pipeline":  runOnline,
	"oneshot-pipeline": runOneshot,
	"serve-durable":    func(r *run) error { return runServe(r, false) },
	"serve-pooled":     func(r *run) error { return runServe(r, true) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result collects a run's metric values, its operation counts and every
// correctness problem found.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
	problems  []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.values[name] = v
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("%v", err)
	}
}

// ops counts n attempted operations, the last of them failed when err is
// non-nil.
func (r *result) ops(n int, err error) {
	r.attempted += n - 1
	r.op(err)
}

// mismatch records a correctness failure: it counts as a failed
// operation, never silently dropped.
func (r *result) mismatch(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

func (r *result) problem(format string, args ...any) {
	const keep = 20
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// finish derives the error fraction: failed or mismatched operations
// over operations attempted.
func (r *result) finish() {
	if r.attempted > 0 {
		r.set("error_frac", float64(r.failed)/float64(r.attempted))
	}
}

// print writes every measured metric in readable form, the problems to
// standard error, and the final JSON line with the metric set the mode
// calls for. It returns the exit code.
func (r *result) print(traced bool) int {
	r.finish()
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if v, ok := r.values[s.name]; ok {
				fmt.Printf("%-28s %14.6g %s\n", s.name, v, s.unit)
			}
		}
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: problem:", p)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, s := range want {
		v, ok := r.values[s.name]
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", s.name)
			return 1
		}
		metrics[s.name] = value{v, s.unit}
	}
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil { // a metric is not a finite number
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
