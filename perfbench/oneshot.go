package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adorn"
	"repro/internal/alarm"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/diagnosis"
	"repro/internal/dqsq"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/petri"
)

// oneshot-pipeline: the streams of online-pipeline, each diagnosed in one
// call, diagnosis.Run(..., EngineDQSQ) — the diagnose CLI default. The
// whole program is rewritten up front (dqsq.Rewrite) and no state is
// kept between calls. product[8] and Direct run on the same inputs as
// references.

// layeredRun is one one-shot dQSQ diagnosis driven through the public
// functions of each layer, the way diagnosis.Run composes them, so that
// each layer's call can be timed on its own.
type layeredRun struct {
	diags                              diagnosis.Diagnoses
	build, rewrite, eval, extract, all time.Duration

	derived, replicated, messages, bytes int
	rules, adornments, adornMax          int
	counts                               engineCounts
	heapMB                               float64
}

func oneshotLayered(pn *petri.PetriNet, seq alarm.Seq, timeout time.Duration, tr obs.Tracer, id string) (*layeredRun, error) {
	span := func(layer string) obs.Span {
		if tr == nil {
			return obs.Span{}
		}
		return tr.Begin("bench", layer+" "+id)
	}
	l := &layeredRun{}
	root := span("stream")
	start := time.Now()

	sp, t := span("diagnosis.build"), time.Now()
	padded, err := petri.Pad2(pn)
	if err != nil {
		return nil, err
	}
	prog, query, err := diagnosis.BuildDiagnosisProgram(padded, seq)
	if err != nil {
		return nil, err
	}
	l.build = time.Since(t)
	sp.End()

	sp, t = span("dqsq.rewrite"), time.Now()
	rw, err := dqsq.Rewrite(prog, query)
	if err != nil {
		return nil, err
	}
	l.rewrite = time.Since(t)
	sp.End()

	sp, t = span("ddatalog.eval"), time.Now()
	eng, err := ddatalog.NewEngine(rw.Program, datalog.Budget{})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		eng.SetTracer(tr)
	}
	res, err := eng.Run(rw.Query, timeout)
	if err != nil {
		return nil, err
	}
	l.eval = time.Since(t)
	sp.End()

	sp, t = span("diagnosis.extract"), time.Now()
	l.diags = diagnosis.ExtractDiagnoses(res.Store, res.Answers, true)
	l.extract = time.Since(t)
	sp.End()
	l.all = time.Since(start)
	root.End()

	l.derived, l.replicated = res.Stats.Derived, res.Stats.Replicated
	l.messages = res.Stats.Net.MessagesSent
	for _, n := range res.Stats.Net.BytesSentByPair {
		l.bytes += n
	}
	l.rules = len(rw.Program.Rules)
	var keys []adorn.Key
	for _, ks := range rw.KeysByPeer {
		keys = append(keys, ks...)
	}
	l.adornments, l.adornMax = adornStats(keys)
	l.counts = inspectEngine(eng)
	l.heapMB = liveHeapMB()
	runtime.KeepAlive(eng)
	return l, nil
}

func runOneshot(rn *run) error {
	c, res := rn.cfg, rn.res
	gnet := gen.Pipeline(c.Peers, c.Branching)
	netText := parser.FormatNet(gnet)
	streamText := func(k int) string {
		return parser.FormatAlarms(gen.PipelineSeq(gnet, rand.New(rand.NewSource(subSeed(rn.seed, k))), c.Alarms))
	}

	// Set-up: the net and the stream are parsed from text, as the diagnose
	// CLI does. Set-up time is the median over SetupRepeats parses at the
	// start and the parse before every call, each from a collected heap.
	var setups []float64
	setup := func(k int) (*petri.PetriNet, alarm.Seq, error) {
		runtime.GC()
		start := time.Now()
		sys, err := core.LoadNet(netText)
		var seq alarm.Seq
		if err == nil {
			seq, err = core.ParseAlarms(streamText(k))
		}
		setups = append(setups, secs(time.Since(start)))
		res.op(err)
		if err != nil {
			return nil, nil, err
		}
		return sys.PN, seq, nil
	}
	for i := 0; i < c.SetupRepeats; i++ {
		if _, _, err := setup(0); err != nil {
			return err
		}
	}

	type call struct {
		pn      *petri.PetriNet
		seq     alarm.Seq
		diags   diagnosis.Diagnoses
		wall    time.Duration
		cpu     time.Duration
		objects uint64
		bytes   uint64
	}
	diagnose := func(k int) (*call, error) {
		pn, seq, err := setup(k)
		if err != nil {
			return nil, err
		}
		objs0, bytes0 := allocs()
		cpu0, t := cpuTime(), time.Now()
		rep, err := diagnosis.Run(pn, seq, diagnosis.EngineDQSQ, diagnosis.Options{Timeout: c.EvalTimeout})
		cl := &call{pn: pn, seq: seq, wall: time.Since(t), cpu: cpuTime() - cpu0}
		objs1, bytes1 := allocs()
		res.op(err)
		if err != nil {
			return nil, err
		}
		cl.diags, cl.objects, cl.bytes = rep.Diagnoses, objs1-objs0, bytes1-bytes0
		return cl, nil
	}

	// Timed part, in two passes over the same streams. The first pass
	// diagnoses streams 0, 1, ... for half the time (a third when traced).
	// The second diagnoses them again: untraced, each stream's faster call
	// counts, which filters a slow spell of the machine during one of
	// them; traced, it runs each stream through the layers untraced and
	// traced.
	budget := rn.seconds / 2
	if rn.traced {
		budget = rn.seconds / 3
	}
	var first, second []*call
	start := time.Now()
	for k := 0; k < c.MinStreams || time.Since(start) < budget; k++ {
		cl, err := diagnose(k)
		if err != nil {
			break
		}
		first = append(first, cl)
	}
	var plain, traced []*layeredRun
	var traceEvents [][]obs.Event
	for k, f := range first {
		if k > 0 && time.Since(start) > rn.seconds*5/4 {
			break // the machine slowed down: keep the run's length bounded
		}
		if !rn.traced {
			cl, err := diagnose(k)
			if err != nil {
				break
			}
			second = append(second, cl)
			continue
		}
		id := fmt.Sprintf("s%d", k)
		p, err := oneshotLayered(f.pn, f.seq, c.EvalTimeout, nil, id)
		res.op(err)
		if err != nil {
			break
		}
		w := newTraceWriter()
		tl, err := oneshotLayered(f.pn, f.seq, c.EvalTimeout, w, id)
		res.op(err)
		if err != nil {
			break
		}
		plain, traced = append(plain, p), append(traced, tl)
		traceEvents = append(traceEvents, w.Events())
		if k == 0 {
			if err := rn.writeTrace(w, ""); err != nil {
				return err
			}
		}
	}
	if len(second) == 0 && len(plain) == 0 {
		return fmt.Errorf("oneshot-pipeline: no stream diagnosed twice")
	}
	first = first[:max(len(second), len(plain))]

	// Live heap of one one-shot evaluation, engine held.
	heap := 0.0
	if rn.traced {
		heap = plain[0].heapMB
	} else if l, err := oneshotLayered(first[0].pn, first[0].seq, c.EvalTimeout, nil, "heap"); err != nil {
		res.op(err)
	} else {
		heap = l.heapMB
	}

	// Correctness, outside the timed part: dQSQ equals product[8] and
	// Direct on every stream, in every run; the layered runs' counts
	// repeat exactly.
	var productMS []float64
	events := 0
	for k, f := range first {
		ref, err := productRef(f.pn, f.seq)
		if err != nil {
			res.mismatch("stream %d: %v", k, err)
			continue
		}
		productMS = append(productMS, ms(ref.elapsed))
		if k == 0 {
			events = ref.events
		}
		direct := diagnosis.Direct(f.pn, f.seq, diagnosis.DirectOptions{})
		if !ref.diags.Equal(direct) {
			res.mismatch("stream %d: product[8] %v != Direct %v", k, ref.diags.Keys(), direct.Keys())
		}
		runs := []diagnosis.Diagnoses{f.diags}
		if k < len(second) {
			runs = append(runs, second[k].diags)
		}
		if k < len(plain) {
			runs = append(runs, plain[k].diags, traced[k].diags)
			p, t := plain[k], traced[k]
			if p.derived != t.derived || p.replicated != t.replicated || p.messages != t.messages || p.bytes != t.bytes || p.counts != t.counts {
				res.mismatch("stream %d: counts differ between runs: derived %d/%d messages %d/%d",
					k, p.derived, t.derived, p.messages, t.messages)
			}
		}
		for _, d := range runs {
			if !d.Equal(ref.diags) {
				res.mismatch("stream %d: dQSQ %v != product[8] %v", k, d.Keys(), ref.diags.Keys())
			}
		}
	}

	var walls []float64
	var cpuNS, wallNS, objects, bytes float64
	for k, cl := range first {
		if k < len(second) && second[k].wall < cl.wall {
			cl = second[k]
		}
		walls = append(walls, secs(cl.wall))
		cpuNS += float64(cl.cpu)
		wallNS += float64(cl.wall)
		objects += float64(cl.objects)
		bytes += float64(cl.bytes)
	}
	n := float64(len(walls))
	res.set("setup_s", median(setups))
	res.set("stream_s", mean(walls))
	res.set("append_p90_ms", quantile(walls, 0.9)*1000)
	res.set("alarms_per_s", float64(c.Alarms)*n/(wallNS/1e9))
	res.set("heap_mb", heap)
	if !rn.traced {
		return nil
	}

	var build, rewrite, eval, extract []float64
	var plainNS, tracedNS float64
	self := make(map[string]time.Duration)
	for k, p := range plain {
		build = append(build, ms(p.build))
		rewrite = append(rewrite, ms(p.rewrite))
		eval = append(eval, secs(p.eval))
		extract = append(extract, ms(p.extract))
		plainNS += float64(p.all)
		tracedNS += float64(traced[k].all)
		for l, d := range selfTimes(traceEvents[k]) {
			self[l] += d
		}
	}
	p0 := plain[0]
	res.set("append_p50_ms", median(walls)*1000)
	res.set("online.append_max_s", maxOf(walls))
	res.set("diagnosis.build_ms", median(build))
	res.set("diagnosis.extract_ms", median(extract))
	res.set("dqsq.rewrite_ms", median(rewrite))
	res.set("dqsq.rewritten_rules", float64(p0.rules))
	res.set("dqsq.adornments", float64(p0.adornments))
	res.set("dqsq.adornments_max_per_rel", float64(p0.adornMax))
	res.set("ddatalog.eval_s", median(eval))
	res.set("ddatalog.derived", float64(p0.derived))
	res.set("ddatalog.replicated", float64(p0.replicated))
	res.set("dist.messages", float64(p0.messages))
	res.set("dist.bytes", float64(p0.bytes))
	res.set("dist.cpu_per_wall", cpuNS/wallNS)
	res.setEngineCounts(p0.counts)
	res.set("mem.allocs_per_append", objects/n)
	res.set("mem.alloc_mb", bytes/n/(1<<20))
	res.set("product.run_ms", mean(productMS))
	res.set("product.events", float64(events))
	res.set("oneshot.vs_product", mean(walls)*1000/mean(productMS))
	res.set("trace.overhead_frac", tracedNS/plainNS-1)
	res.setSelfTimes(self, len(traced))
	res.zeroServeLayers()
	return nil
}
