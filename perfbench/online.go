package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adorn"
	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/diagnosis"
	"repro/internal/gen"
	"repro/internal/obs"
)

// online-pipeline: one warm online dQSQ session per alarm stream
// (diagnosis.OnlineDiagnoser at default parallelism) on
// gen.Pipeline(peers, branching); the alarms of gen.PipelineSeq are
// appended one at a time. Stream k of a run is drawn from subSeed(seed, k);
// a run diagnoses streams 0, 1, ... until its time is up.

// onlineStream is the outcome of diagnosing one stream.
type onlineStream struct {
	seq     alarm.Seq
	diags   []diagnosis.Diagnoses // after each append
	lats    []time.Duration       // per append
	wall    time.Duration         // whole stream
	cpu     time.Duration
	heapMB  float64 // live heap holding the warm session, after the stream
	objects uint64  // heap allocations during the stream
	bytes   uint64

	derived, replicated, messages int
	counts                        engineCounts
	adornments, adornMax          int
}

func runOnline(rn *run) error {
	c, res := rn.cfg, rn.res
	pn := gen.Pipeline(c.Peers, c.Branching)
	streamSeq := func(k int) alarm.Seq {
		return gen.PipelineSeq(pn, rand.New(rand.NewSource(subSeed(rn.seed, k))), c.Alarms)
	}

	// Set-up: the diagnoser is built. Set-up time is the median over
	// SetupRepeats builds at the start and the build before every stream,
	// each from a collected heap, so that a slow spell of the machine
	// shifts few of the samples.
	var setups []float64
	build := func() *diagnosis.OnlineDiagnoser {
		runtime.GC()
		start := time.Now()
		d, err := diagnosis.NewOnlineDiagnoser(pn, datalog.Budget{})
		setups = append(setups, secs(time.Since(start)))
		res.op(err)
		return d
	}
	for i := 0; i < c.SetupRepeats; i++ {
		if build() == nil {
			return fmt.Errorf("online-pipeline: diagnoser build failed")
		}
	}

	stream := func(k int, tr obs.Tracer) *onlineStream {
		d := build()
		if d == nil {
			return nil
		}
		id := fmt.Sprintf("s%d", k)
		var root obs.Span
		if tr != nil {
			d.SetTracer(tr)
			root = tr.Begin("bench", "stream "+id)
		}
		s := &onlineStream{seq: streamSeq(k)}
		objs0, bytes0 := allocs()
		cpu0, start := cpuTime(), time.Now()
		for i := range s.seq {
			var sp obs.Span
			if tr != nil {
				sp = tr.Begin("bench", fmt.Sprintf("append %s.a%d", id, i))
			}
			t := time.Now()
			rep, err := d.Append(s.seq[i:i+1], c.EvalTimeout)
			s.lats = append(s.lats, time.Since(t))
			sp.End()
			res.op(err)
			if err != nil {
				return nil
			}
			s.diags = append(s.diags, rep.Diagnoses)
			s.messages = rep.Messages
		}
		s.wall, s.cpu = time.Since(start), cpuTime()-cpu0
		root.End()
		objs1, bytes1 := allocs()
		s.objects, s.bytes = objs1-objs0, bytes1-bytes0
		s.heapMB = liveHeapMB()
		eng := d.Session().Engine()
		s.derived, s.replicated = eng.Totals()
		s.counts = inspectEngine(eng)
		var keys []adorn.Key
		for _, e := range d.Session().Trace().Snapshot() {
			keys = append(keys, e.Key)
		}
		s.adornments, s.adornMax = adornStats(keys)
		runtime.KeepAlive(d)
		return s
	}

	// Timed part, in two passes over the same streams. The first pass
	// diagnoses streams 0, 1, ... for half the time. The second diagnoses
	// them again: untraced, each stream's faster run counts, which filters
	// a slow spell of the machine during one of them; traced, it is the
	// traced run.
	var first, second []*onlineStream
	start := time.Now()
	for k := 0; k < c.MinStreams || time.Since(start) < rn.seconds/2; k++ {
		s := stream(k, nil)
		if s == nil {
			break
		}
		first = append(first, s)
	}
	var traceEvents [][]obs.Event
	for k := range first {
		if k > 0 && time.Since(start) > rn.seconds*5/4 {
			break // the machine slowed down: keep the run's length bounded
		}
		var tr obs.Tracer
		var w *obs.ChromeTraceWriter
		if rn.traced {
			w = newTraceWriter()
			tr = w
		}
		s := stream(k, tr)
		if s == nil {
			break
		}
		second = append(second, s)
		if w != nil {
			traceEvents = append(traceEvents, w.Events())
			if k == 0 {
				if err := rn.writeTrace(w, ""); err != nil {
					return err
				}
			}
		}
	}
	if len(second) == 0 {
		return fmt.Errorf("online-pipeline: no stream completed twice")
	}
	first = first[:len(second)]

	// Correctness, outside the timed part: every prefix's diagnoses equal
	// product[8] on that prefix, and the deterministic counts of a
	// stream's two runs are equal.
	var productMS []float64
	var events int
	for k := range first {
		for _, s := range []*onlineStream{first[k], second[k]} {
			for i := range s.diags {
				ref, err := productRef(pn, s.seq[:i+1])
				if err != nil {
					res.mismatch("stream %d prefix %d: %v", k, i+1, err)
					continue
				}
				if !s.diags[i].Equal(ref.diags) {
					res.mismatch("stream %d prefix %d: online dQSQ %v != product[8] %v", k, i+1, s.diags[i].Keys(), ref.diags.Keys())
				}
				if i == len(s.seq)-1 && s == first[k] {
					productMS = append(productMS, ms(ref.elapsed))
					if k == 0 {
						events = ref.events
					}
				}
			}
		}
		p, t := first[k], second[k]
		if t.derived != p.derived || t.replicated != p.replicated || t.messages != p.messages || t.counts != p.counts {
			res.mismatch("stream %d: counts differ between runs: derived %d/%d replicated %d/%d messages %d/%d",
				k, p.derived, t.derived, p.replicated, t.replicated, p.messages, t.messages)
		}
	}

	best := first
	if !rn.traced {
		best = make([]*onlineStream, len(first))
		for k := range first {
			best[k] = first[k]
			if second[k].wall < first[k].wall {
				best[k] = second[k]
			}
		}
	}
	var walls, lats, heaps, maxes []float64
	var appends, cpuNS, wallNS, objects, bytes float64
	for _, s := range best {
		walls = append(walls, secs(s.wall))
		var sl []float64
		for _, l := range s.lats {
			sl = append(sl, ms(l))
		}
		lats = append(lats, sl...)
		maxes = append(maxes, maxOf(sl)/1000)
		heaps = append(heaps, s.heapMB)
		appends += float64(len(s.lats))
		cpuNS += float64(s.cpu)
		wallNS += float64(s.wall)
		objects += float64(s.objects)
		bytes += float64(s.bytes)
	}
	res.set("setup_s", median(setups))
	res.set("stream_s", mean(walls))
	res.set("append_p90_ms", quantile(lats, 0.9))
	res.set("alarms_per_s", appends/(wallNS/1e9))
	res.set("heap_mb", mean(heaps))
	if !rn.traced {
		return nil
	}

	s0 := first[0]
	res.set("append_p50_ms", median(lats))
	res.set("online.append_max_s", mean(maxes))
	res.set("diagnosis.build_ms", median(setups)*1000)
	res.set("dqsq.adornments", float64(s0.adornments))
	res.set("dqsq.adornments_max_per_rel", float64(s0.adornMax))
	res.set("ddatalog.derived", float64(s0.derived))
	res.set("ddatalog.replicated", float64(s0.replicated))
	res.set("dist.messages", float64(s0.messages))
	res.set("dist.bytes", float64(counterSum(traceEvents[0], "dist_bytes_total")))
	res.set("dqsq.rewritten_rules", float64(counterSum(traceEvents[0], "ddatalog_rules_installed_total")))
	res.set("dist.cpu_per_wall", cpuNS/wallNS)
	res.setEngineCounts(s0.counts)
	res.set("mem.allocs_per_append", objects/appends)
	res.set("mem.alloc_mb", bytes/float64(len(first))/(1<<20))
	res.set("product.run_ms", mean(productMS))
	res.set("product.events", float64(events))
	res.set("oneshot.vs_product", mean(walls)*1000/mean(productMS))

	var plainNS, tracedNS float64
	self := make(map[string]time.Duration)
	for k, t := range second {
		plainNS += float64(first[k].wall)
		tracedNS += float64(t.wall)
		for l, d := range selfTimes(traceEvents[k]) {
			self[l] += d
		}
	}
	res.set("trace.overhead_frac", tracedNS/plainNS-1)
	res.setSelfTimes(self, len(second))
	// Lazy rewriting and evaluation run inside Append: their time is in
	// the self times, not separately callable from outside.
	res.zeroLayers("diagnosis.extract_ms", "dqsq.rewrite_ms", "ddatalog.eval_s")
	res.zeroServeLayers()
	return nil
}

// zeroServeLayers zeroes the serving-stack layers for the in-process
// workloads, which do not exercise them.
func (r *result) zeroServeLayers() {
	r.zeroLayers("serve.append_server_ms", "serve.http_ms", "serve.create_ms", "serve.get_ms",
		"wal.fsync_ms", "wal.bytes_per_append", "wal.group_size",
		"snapshot.write_ms", "snapshot.bytes_per_append", "serve.removed_unsorted",
		"pool.dispatch_ms", "pool.overhead_ms", "pool.hedged_per_append", "pool.retries", "pool.checkpoints",
		"gen.lag_ms")
}
