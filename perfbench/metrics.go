package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// spec names one metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// workload with tracing off. Each is defined for every workload; see
// README.md for what a "stream" and an "append" are on each. The tail
// latency is the 90th percentile: the highest that leaves at least ten
// samples beyond it in an online-pipeline run (about 130 appends) and in
// a fifth of a serve window (about 140 appends).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"stream_s", "s"},
	{"append_p90_ms", "ms"},
	{"alarms_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by the traced run.
// A layer a workload does not exercise reports 0.
var perLayer = []spec{
	{"error_frac", "ratio"},
	{"append_p50_ms", "ms"},
	{"online.append_max_s", "s"},
	{"diagnosis.build_ms", "ms"},
	{"diagnosis.extract_ms", "ms"},
	{"dqsq.rewrite_ms", "ms"},
	{"dqsq.rewritten_rules", "count"},
	{"dqsq.adornments", "count"},
	{"dqsq.adornments_max_per_rel", "count"},
	{"dqsq.sup_facts", "count"},
	{"dqsq.in_facts", "count"},
	{"dqsq.answer_facts", "count"},
	{"ddatalog.eval_s", "s"},
	{"ddatalog.derived", "count"},
	{"ddatalog.replicated", "count"},
	{"dist.messages", "count"},
	{"dist.bytes", "bytes"},
	{"dist.cpu_per_wall", "ratio"},
	{"rel.facts_stored", "count"},
	{"term.store_len", "count"},
	{"mem.allocs_per_append", "count"},
	{"mem.alloc_mb", "MB"},
	{"product.run_ms", "ms"},
	{"product.events", "count"},
	{"oneshot.vs_product", "ratio"},
	{"serve.append_server_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.create_ms", "ms"},
	{"serve.get_ms", "ms"},
	{"serve.removed_unsorted", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_append", "bytes"},
	{"wal.group_size", "count"},
	{"snapshot.write_ms", "ms"},
	{"snapshot.bytes_per_append", "bytes"},
	{"pool.dispatch_ms", "ms"},
	{"pool.overhead_ms", "ms"},
	{"pool.hedged_per_append", "ratio"},
	{"pool.retries", "count"},
	{"pool.checkpoints", "count"},
	{"gen.lag_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"trace.self_bench_ms", "ms"},
	{"trace.self_diagnosis_ms", "ms"},
	{"trace.self_dqsq_ms", "ms"},
	{"trace.self_ddatalog_ms", "ms"},
	{"trace.self_dist_ms", "ms"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			m[s.name] = s.unit
		}
	}
	return m
}()

// zeroLayers sets the named per-layer metrics to 0: the layers the
// workload does not exercise.
func (r *result) zeroLayers(names ...string) {
	for _, n := range names {
		r.set(n, 0)
	}
}

// ---- parameters ----

//go:embed workloads.json
var workloadsJSON []byte

// config is one workload's parameters (workloads.json), with the
// smallest-size overrides ("smoke") applied when asked for.
type config struct {
	Name          string
	SetupRepeats  int
	EvalTimeout   time.Duration
	Peers         int     `json:"peers"`
	Branching     int     `json:"branching"`
	Alarms        int     `json:"alarms"`
	MinStreams    int     `json:"min_streams"`
	SessionsPerS  float64 `json:"sessions_per_s"`
	Inflight      int     `json:"inflight"`
	TelecomLines  int     `json:"telecom_lines"`
	TelecomAlarms int     `json:"telecom_alarms"`
	TelecomSeqs   int     `json:"telecom_streams"`
	Workers       int     `json:"workers"`
}

func loadConfig(workload string, smoke bool) (config, error) {
	var file struct {
		SetupRepeats int                        `json:"setup_repeats"`
		EvalTimeoutS float64                    `json:"eval_timeout_s"`
		Workloads    map[string]json.RawMessage `json:"workloads"`
		Smoke        map[string]json.RawMessage `json:"smoke"`
	}
	if err := json.Unmarshal(workloadsJSON, &file); err != nil {
		return config{}, fmt.Errorf("workloads.json: %w", err)
	}
	raw, ok := file.Workloads[workload]
	if !ok || workloads[workload] == nil {
		return config{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames())
	}
	var c config
	if err := json.Unmarshal(raw, &c); err != nil {
		return config{}, fmt.Errorf("workloads.json %s: %w", workload, err)
	}
	if o, ok := file.Smoke[workload]; smoke && ok {
		if err := json.Unmarshal(o, &c); err != nil {
			return config{}, fmt.Errorf("workloads.json smoke %s: %w", workload, err)
		}
	}
	c.Name = workload
	c.SetupRepeats = file.SetupRepeats
	c.EvalTimeout = time.Duration(file.EvalTimeoutS * float64(time.Second))
	if c.Inflight <= 0 {
		c.Inflight = runtime.NumCPU()
	}
	return c, nil
}

// subSeed derives the seed of the k-th input of a run (splitmix64), so
// inputs of neighbouring seeds are unrelated.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

// ---- statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// ---- process probes ----

// liveHeapMB collects garbage and returns the live heap in MB. Callers
// keep the state they want counted reachable across the call. Two
// collections: the first only moves sync.Pool contents to the victim
// cache, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocs reads the process's cumulative heap allocations (objects,
// bytes) without stopping the world.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
