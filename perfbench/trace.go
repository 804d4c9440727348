package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// The traced run records the benchmark's own spans around each public
// call into the same obs.ChromeTraceWriter that the engine's existing
// spans land in (installed through the public SetTracer hooks). Bench
// spans sit on the "bench" track and are named "<layer> <id>": every span
// of one stream, append or session carries the same id. Spans stay in
// memory and are written out at the end.

// layers orders the layers from the outside in; a layer's self time is
// the time its spans cover that no span of a deeper layer covers.
var layers = []string{"bench", "diagnosis", "dqsq", "ddatalog", "dist"}

// benchLayer maps a bench span's layer word onto the layer it times.
var benchLayer = map[string]string{
	"stream":            "bench",
	"session":           "bench",
	"serve.http":        "bench",
	"append":            "diagnosis",
	"diagnosis.build":   "diagnosis",
	"diagnosis.extract": "diagnosis",
	"dqsq.rewrite":      "dqsq",
	"ddatalog.eval":     "ddatalog",
}

// layerOf classifies one recorded span.
func layerOf(ev obs.Event) string {
	switch ev.Track {
	case "bench":
		word, _, _ := strings.Cut(ev.Name, " ")
		if l, ok := benchLayer[word]; ok {
			return l
		}
		return "bench"
	case "diagnosis", "dqsq", "ddatalog":
		return ev.Track
	default:
		return "dist" // per-peer activation and message-handling spans
	}
}

// newTraceWriter returns an unbounded in-memory trace buffer: a traced
// stream is short, and a dropped event would skew self times.
func newTraceWriter() *obs.ChromeTraceWriter { return obs.NewChromeTraceWriter(-1) }

// interval is a half-open time range in microseconds.
type interval struct{ lo, hi int64 }

// union merges intervals into a sorted disjoint list.
func union(iv []interval) []interval {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func measure(iv []interval) int64 {
	var t int64
	for _, x := range iv {
		t += x.hi - x.lo
	}
	return t
}

// overlap is the measure of the intersection of two sorted disjoint
// lists.
func overlap(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// selfTimes returns each layer's self time over the recorded events.
func selfTimes(events []obs.Event) map[string]time.Duration {
	byLayer := make(map[string][]interval)
	for _, ev := range events {
		if ev.Ph != 'X' {
			continue
		}
		l := layerOf(ev)
		byLayer[l] = append(byLayer[l], interval{ev.Wall, ev.Wall + ev.Dur})
	}
	out := make(map[string]time.Duration, len(layers))
	for i, l := range layers {
		own := union(byLayer[l])
		var deeper []interval
		for _, d := range layers[i+1:] {
			deeper = append(deeper, byLayer[d]...)
		}
		self := measure(own) - overlap(own, union(deeper))
		out[l] = time.Duration(self) * time.Microsecond
	}
	return out
}

// counterSum adds up every counter sample whose name starts with prefix
// (e.g. the per-channel dist_bytes_total{from,to} series).
func counterSum(events []obs.Event, prefix string) int64 {
	var t int64
	for _, ev := range events {
		if ev.Ph == 'C' && strings.HasPrefix(ev.Name, prefix) {
			t += ev.Value
		}
	}
	return t
}

// setSelfTimes reports the layers' self times per traced unit (stream
// or session).
func (r *result) setSelfTimes(total map[string]time.Duration, units int) {
	if units == 0 {
		units = 1
	}
	for _, l := range layers {
		r.set("trace.self_"+l+"_ms", ms(total[l])/float64(units))
	}
}

// writeTrace writes a trace buffer under the run's output directory.
func (rn *run) writeTrace(w *obs.ChromeTraceWriter, suffix string) error {
	path := filepath.Join(rn.out, fmt.Sprintf("%s-seed%d%s.trace.json", rn.cfg.Name, rn.seed, suffix))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
