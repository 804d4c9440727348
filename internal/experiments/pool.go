package experiments

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/wire"
)

// PoolOverheadRow quantifies what the session pool costs one append and
// what a wider worker fleet buys a batch of sessions. The latency side
// drives the same alarm sequence into two sessions over a pipeline net:
// one directly against the worker-side backend (the local serving path),
// one through a frontend pool over an in-process mesh — so the measured
// gap is exactly the pool machinery: wire codec round trip, dispatch,
// executor queue, journal bookkeeping. Bodies must stay byte-identical
// (elapsed_ms scrubbed), the pool's correctness bar. The throughput side
// runs the same multi-session batch against one worker and three;
// the gain tracks the cores actually available — on a single-CPU box the
// fleet buys concurrency, not wall-clock, and WorkerGain can even dip
// below 1. To tell "the fleet did more work" apart from "same work,
// worse scheduling", each batch phase also records the process CPU time
// it burned (workers are in-process, so RUSAGE_SELF covers them): equal
// CPU with unequal wall is a scheduling artifact; inflated CPU on the
// wider fleet is genuine extra work.
type PoolOverheadRow struct {
	Appends           int
	LocalNsPerAppend  int64   // median direct-backend append
	PooledNsPerAppend int64   // median append through the pool
	OverheadRatio     float64 // pooled / local (medians)
	BodiesEqual       bool    // pooled bodies byte-identical to local

	Sessions         int
	OneWorkerMs      int64 // batch wall-clock, 1 worker
	ThreeWorkerMs    int64 // batch wall-clock, 3 workers
	OneWorkerCPUMs   int64 // process CPU time (user+sys) burned by the 1-worker batch
	ThreeWorkerCPUMs int64 // process CPU time (user+sys) burned by the 3-worker batch
	WorkerGain       float64
}

// scrubElapsedMS blanks the one legitimately-nondeterministic field in
// an append body before comparing pooled and local bytes.
var scrubElapsedMS = regexp.MustCompile(`"elapsed_ms": [0-9eE.+-]+`)

// poolEvalBudget is the per-append evaluation budget. Pipeline unfolding
// cost is bursty (an unlucky alarm order can make one append take
// seconds), so the budget is deliberately generous: an outlier append
// inflates one latency sample instead of erroring the whole run.
const poolEvalBudget = 120 * time.Second

// poolWorker is one mesh-backed worker over a fresh store.
func poolWorker(mesh *transport.Mesh, name string) (*pool.Worker, error) {
	w := pool.NewWorker(pool.WorkerConfig{
		Transport: mesh.Node(name),
		Backend:   serve.NewPoolBackend(serve.NewStore(serve.StoreConfig{}, nil), nil),
	})
	return w, w.Start()
}

// PoolOverhead runs the pool-overhead experiment: n single-alarm appends
// (default 16 — incremental evaluation cost grows superlinearly in the
// prefix, so longer streams take minutes, not more signal) on a 6-peer
// pipeline net, local vs pooled, then an 8-session batch on one worker
// vs three.
func PoolOverhead(n int) (*PoolOverheadRow, error) {
	if n <= 0 {
		n = 16
	}
	pn := gen.Pipeline(6, 2)
	netText := parser.FormatNet(pn)
	seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(7)), n)
	alarms := make([]string, len(seq))
	for i := range seq {
		alarms[i] = parser.FormatAlarms(seq[i : i+1])
	}
	row := &PoolOverheadRow{Appends: len(alarms), BodiesEqual: true, Sessions: 8}

	// Local side: the exact worker-side code path, minus the pool.
	backend := serve.NewPoolBackend(serve.NewStore(serve.StoreConfig{}, nil), nil)
	if _, err := backend.Create("local", netText, "dqsq", 0); err != nil {
		return nil, err
	}
	localLats := make([]time.Duration, len(alarms))
	localBodies := make([]string, len(alarms))
	for i, a := range alarms {
		start := time.Now()
		body, err := backend.Append("local", a, poolEvalBudget)
		localLats[i] = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("local append %d: %w", i, err)
		}
		localBodies[i] = scrubElapsedMS.ReplaceAllString(string(body), "X")
	}

	// Pooled side: one frontend, one worker, a real placement and journal
	// around every append.
	mesh := transport.NewMesh()
	w, err := poolWorker(mesh, "w1")
	if err != nil {
		return nil, err
	}
	defer w.Close()
	p, err := pool.New(pool.Config{
		Transport:  mesh.Node("fe"),
		Workers:    []string{"w1"},
		ProbeEvery: 250 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	res := p.Create(netText, "dqsq", 0, poolEvalBudget)
	if res.Code != wire.SessOK {
		return nil, fmt.Errorf("pooled create: code %d: %s", res.Code, res.Err)
	}
	id := ""
	if m := regexp.MustCompile(`"id": "([^"]*)"`).FindStringSubmatch(string(res.Body)); m != nil {
		id = m[1]
	}
	pooledLats := make([]time.Duration, len(alarms))
	for i, a := range alarms {
		start := time.Now()
		res := p.Append(id, a, poolEvalBudget)
		pooledLats[i] = time.Since(start)
		if res.Code != wire.SessOK {
			return nil, fmt.Errorf("pooled append %d: code %d: %s", i, res.Code, res.Err)
		}
		if scrubElapsedMS.ReplaceAllString(string(res.Body), "X") != localBodies[i] {
			row.BodiesEqual = false
		}
	}

	row.LocalNsPerAppend = medianNs(localLats)
	row.PooledNsPerAppend = medianNs(pooledLats)
	if row.LocalNsPerAppend > 0 {
		row.OverheadRatio = float64(row.PooledNsPerAppend) / float64(row.LocalNsPerAppend)
	}

	// Throughput: the same session batch, one worker vs three. Each
	// session streams a shorter prefix so the batch stays a few seconds.
	batchAlarms := alarms
	if len(batchAlarms) > 8 {
		batchAlarms = batchAlarms[:8]
	}
	runBatch := func(workers []string) (time.Duration, error) {
		mesh := transport.NewMesh()
		for _, name := range workers {
			w, err := poolWorker(mesh, name)
			if err != nil {
				return 0, err
			}
			defer w.Close()
		}
		p, err := pool.New(pool.Config{
			Transport:  mesh.Node("fe"),
			Workers:    workers,
			ProbeEvery: 250 * time.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		defer p.Close()
		ids := make([]string, row.Sessions)
		for i := range ids {
			res := p.Create(netText, "dqsq", 0, poolEvalBudget)
			if res.Code != wire.SessOK {
				return 0, fmt.Errorf("batch create: code %d: %s", res.Code, res.Err)
			}
			if m := regexp.MustCompile(`"id": "([^"]*)"`).FindStringSubmatch(string(res.Body)); m != nil {
				ids[i] = m[1]
			}
		}
		var wg sync.WaitGroup
		errc := make(chan error, len(ids))
		start := time.Now()
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for _, a := range batchAlarms {
					if res := p.Append(id, a, poolEvalBudget); res.Code != wire.SessOK {
						errc <- fmt.Errorf("batch append to %s: code %d: %s", id, res.Code, res.Err)
						return
					}
				}
			}(id)
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errc:
			return 0, err
		default:
		}
		return elapsed, nil
	}
	cpu0 := processCPUMs()
	one, err := runBatch([]string{"w1"})
	if err != nil {
		return nil, err
	}
	cpu1 := processCPUMs()
	three, err := runBatch([]string{"w1", "w2", "w3"})
	if err != nil {
		return nil, err
	}
	cpu2 := processCPUMs()
	row.OneWorkerMs = one.Milliseconds()
	row.ThreeWorkerMs = three.Milliseconds()
	row.OneWorkerCPUMs = cpu1 - cpu0
	row.ThreeWorkerCPUMs = cpu2 - cpu1
	if three > 0 {
		row.WorkerGain = float64(one) / float64(three)
	}
	return row, nil
}

// processCPUMs reads the process's cumulative CPU time (user + system)
// in milliseconds; differencing it around a phase attributes that phase's
// compute, including in-process pool workers and their goroutines.
func processCPUMs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	user := time.Duration(ru.Utime.Sec)*time.Second + time.Duration(ru.Utime.Usec)*time.Microsecond
	sys := time.Duration(ru.Stime.Sec)*time.Second + time.Duration(ru.Stime.Usec)*time.Microsecond
	return (user + sys).Milliseconds()
}

func medianNs(lats []time.Duration) int64 {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2].Nanoseconds()
}
