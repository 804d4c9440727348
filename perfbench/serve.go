package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/alarm"
	"repro/internal/diagnosis"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/petri"
	"repro/internal/pool"
	"repro/internal/serve"
	"repro/internal/transport"
	"repro/internal/wal"
)

// serve-durable and serve-pooled: sessions arrive open-loop at a fixed
// rate at an in-process serve.Server over loopback HTTP. Session j runs
// the Figure 1 net with its three quickstart alarms when j is even, and
// gen.Telecom with one of the run's telecom streams when j is odd. Each
// session creates, appends its alarms one at a time (waiting for each
// reply), reads its report and deletes itself. At most `inflight`
// requests are outstanding at once.
//
// serve-durable runs the server with a data dir: WAL on with
// fsync=always, write-behind snapshots on. serve-pooled puts a
// pool frontend in front of in-process pool.Workers over TCP loopback.

// input is one session's net and alarm stream.
type input struct {
	key     string // identifies the input among the run's distinct inputs
	pn      *petri.PetriNet
	netJSON string
	alarms  []string // one request body value per append
	seq     alarm.Seq
}

func serveInputs(rn *run) []input {
	c := rn.cfg
	mk := func(key string, pn *petri.PetriNet, seq alarm.Seq) input {
		b, _ := json.Marshal(parser.FormatNet(pn))
		in := input{key: key, pn: pn, netJSON: string(b), seq: seq}
		for i := range seq {
			in.alarms = append(in.alarms, parser.FormatAlarms(seq[i:i+1]))
		}
		return in
	}
	ins := []input{mk("figure1", petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1"))}
	tel := gen.Telecom(c.TelecomLines)
	for i := 0; i < c.TelecomSeqs; i++ {
		seq := gen.TelecomSeq(tel, rand.New(rand.NewSource(subSeed(rn.seed, i))), c.TelecomAlarms)
		ins = append(ins, mk(fmt.Sprintf("telecom%d", i), tel, seq))
	}
	return ins
}

// inputOf is session j's input.
func inputOf(ins []input, j int) input {
	if j%2 == 0 {
		return ins[0]
	}
	return ins[1+(j/2)%(len(ins)-1)]
}

// env is one running system under test.
type env struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	pool     *pool.Pool
	workers  []*pool.Worker
	wtrans   []*transport.TCP
	wstores  []*serve.Store
	wmetrics []*serve.Metrics
	client   *http.Client
}

// freeAddr reserves a loopback port: a pool worker's node name is its
// transport address, so the address must be known before listening.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startEnv brings the system up and returns when it is ready: the server
// answers over HTTP with its WAL open (durable), and every worker has
// answered a request (pooled).
func startEnv(rn *run, pooled bool, dir string) (*env, error) {
	e := &env{client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 256, MaxIdleConnsPerHost: 256, IdleConnTimeout: time.Minute,
	}}}
	cfg := serve.Config{SweepEvery: -1}
	if !pooled {
		cfg.DataDir, cfg.Fsync = dir, wal.SyncAlways
	}
	e.srv = serve.NewServer(cfg)
	if pooled {
		var addrs []string
		for i := 0; i < rn.cfg.Workers; i++ {
			addr, err := freeAddr()
			if err != nil {
				e.close()
				return nil, err
			}
			tr, err := transport.ListenTCP(addr, addr)
			if err != nil {
				e.close()
				return nil, err
			}
			m := serve.NewMetrics()
			st := serve.NewStore(serve.StoreConfig{}, m)
			w := pool.NewWorker(pool.WorkerConfig{Transport: tr, Backend: serve.NewPoolBackend(st, m), Metrics: m})
			e.wtrans, e.wstores, e.wmetrics = append(e.wtrans, tr), append(e.wstores, st), append(e.wmetrics, m)
			if err := w.Start(); err != nil {
				e.close()
				return nil, err
			}
			e.workers = append(e.workers, w)
			addrs = append(addrs, addr)
		}
		ftr, err := transport.ListenTCP("frontend", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.pool, err = pool.New(pool.Config{Transport: ftr, Workers: addrs, Metrics: e.srv.Metrics()})
		if err != nil {
			ftr.Close()
			e.close()
			return nil, err
		}
		e.srv.SetPool(e.pool)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv}
	go e.hs.Serve(ln) //nolint:errcheck // ends with Shutdown
	if code, _, err := e.do("GET", "/healthz", ""); err != nil || code != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("healthz: %d %v", code, err)
	}
	if pooled {
		// One session per worker connects every transport: least-loaded
		// placement spreads them.
		var ids []string
		for range rn.cfg.Workers {
			code, body, err := e.do("POST", "/v1/sessions", `{"net": `+serveInputs(rn)[0].netJSON+`}`)
			if err != nil || code != http.StatusCreated {
				e.close()
				return nil, fmt.Errorf("warm-up create: %d %v %s", code, err, body)
			}
			ids = append(ids, sessionID(body))
		}
		for _, id := range ids {
			e.do("DELETE", "/v1/sessions/"+id, "") //nolint:errcheck // warm-up only
		}
	}
	return e, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.hs != nil {
		e.hs.Shutdown(ctx) //nolint:errcheck // teardown
	}
	if e.srv != nil {
		e.srv.Shutdown(ctx) //nolint:errcheck // teardown
	}
	if e.pool != nil {
		e.pool.Close()
	}
	for _, w := range e.workers {
		w.Close()
	}
	for _, tr := range e.wtrans {
		tr.Close() //nolint:errcheck // teardown
	}
	e.client.CloseIdleConnections()
}

func (e *env) do(method, path, body string) (int, []byte, error) {
	req, err := http.NewRequest(method, e.base+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads the frontend's /metrics text and, when pooled, the
// workers' registries, summing series of the same name.
func (e *env) scrape() (front, workers map[string]float64, err error) {
	code, body, err := e.do("GET", "/metrics", "")
	if err != nil || code != http.StatusOK {
		return nil, nil, fmt.Errorf("/metrics: %d %v", code, err)
	}
	front = parseMetrics(body)
	workers = make(map[string]float64)
	for _, m := range e.wmetrics {
		var buf bytes.Buffer
		m.WriteText(&buf)
		for k, v := range parseMetrics(buf.Bytes()) {
			workers[k] += v
		}
	}
	return front, workers, nil
}

// parseMetrics reads the text exposition format; labelled series are
// also summed under their bare name.
func parseMetrics(text []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] += v
		if bare, _, ok := strings.Cut(name, "{"); ok && !strings.HasSuffix(bare, "_bucket") {
			out[bare] += v
		}
	}
	return out
}

var (
	scrubElapsed  = regexp.MustCompile(`"elapsed_ms": [0-9eE.+-]+`)
	scrubID       = regexp.MustCompile(`"id": "[^"]*"`)
	scrubTimes    = regexp.MustCompile(`"(created|last_used)": "[^"]*"`)
	scrubSnapshot = regexp.MustCompile(`,\n\s*"snapshot_age_seconds": [0-9eE.+-]+`)
	sessionIDRe   = regexp.MustCompile(`"id": "([^"]*)"`)
	removedList   = regexp.MustCompile(`"removed": \[\n((?:\s*"[^"]*",?\n)+)\s*\]`)
)

// scrub blanks the fields that legitimately differ between two runs of
// one input: session IDs, timestamps, elapsed wall time and snapshot age
// (absent without a data dir). It also puts the "removed" list of an
// append body in sorted order and reports whether it had to. The server
// builds that list by ranging over a map (internal/serve/session.go), so
// its order differs from run to run; the API gives the list no order, and
// check holds its content to product[8]'s. Out-of-order lists are counted
// in serve.removed_unsorted, not as failures.
func scrub(body []byte) (string, bool) {
	s := scrubElapsed.ReplaceAllString(string(body), `"elapsed_ms": X`)
	s = scrubID.ReplaceAllString(s, `"id": "X"`)
	s = scrubTimes.ReplaceAllString(s, `"$1": "X"`)
	s = scrubSnapshot.ReplaceAllString(s, "")
	m := removedList.FindStringSubmatchIndex(s)
	if m == nil {
		return s, false
	}
	lines := strings.Split(strings.TrimSuffix(s[m[2]:m[3]], "\n"), "\n")
	for i := range lines {
		lines[i] = strings.TrimSuffix(lines[i], ",")
	}
	if sort.StringsAreSorted(lines) {
		return s, false
	}
	sort.Strings(lines)
	return s[:m[2]] + strings.Join(lines, ",\n") + "\n" + s[m[3]:], true
}

func sessionID(body []byte) string {
	if m := sessionIDRe.FindSubmatch(body); m != nil {
		return string(m[1])
	}
	return ""
}

// sessionOut is what one session saw.
type sessionOut struct {
	j           int
	in          input
	err         error
	requests    int      // requests sent; when err is set, the last one failed
	bodies      []string // create, each append, get; scrubbed after the window
	unsorted    int      // append bodies whose "removed" list was out of order
	final       diagnosis.Diagnoses
	derived     int
	messages    int
	due         time.Duration // arrival, from the start of the window
	lag         time.Duration
	wall        time.Duration   // from the create's due time to the delete's reply
	appendDue   []time.Duration // append latency from when it was due
	appendSent  []time.Duration // append latency from when it was sent
	create, get time.Duration
	events      []obs.Event // server-side session trace (traced sessions)
}

// window runs one open-loop measurement window and returns every
// session's outcome and the window's length.
func window(rn *run, e *env, ins []input, length time.Duration, tr obs.Tracer, fetchTraces int) ([]*sessionOut, time.Duration) {
	rate := rn.cfg.SessionsPerS
	sem := make(chan struct{}, rn.cfg.Inflight)
	var wg sync.WaitGroup
	var outs []*sessionOut
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
		if due.Sub(start) >= length && j > 0 {
			break
		}
		time.Sleep(time.Until(due))
		out := &sessionOut{j: j, in: inputOf(ins, j), due: due.Sub(start), lag: time.Since(due)}
		outs = append(outs, out)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSession(e, out, due, sem, tr, j < fetchTraces)
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// check counts the session's requests as operations and its failed
// request as a failed one, checks every append body's "added" and
// "removed" lists against product[8] on the prefixes before and after the
// append (want), and replaces the raw bodies by their scrubbed form. It
// runs after the window, so the client's own work stays out of the
// timing.
func (o *sessionOut) check(res *result, want []delta) {
	res.ops(o.requests, o.err)
	for i, b := range o.bodies {
		if i >= 1 && i <= len(want) { // the append bodies
			var got delta
			if err := json.Unmarshal([]byte(b), &got); err != nil {
				res.mismatch("session %d (%s) append %d: bad body: %v", o.j, o.in.key, i-1, err)
			} else if w := want[i-1]; !slices.Equal(got.Added, w.Added) || !sameSet(got.Removed, w.Removed) {
				res.mismatch("session %d (%s) append %d: added %v removed %v, product[8] gives added %v removed %v",
					o.j, o.in.key, i-1, got.Added, got.Removed, w.Added, w.Removed)
			}
		}
		s, unsorted := scrub([]byte(b))
		o.bodies[i] = s
		if unsorted {
			o.unsorted++
		}
	}
}

// delta is what one append adds to and removes from the diagnosis set,
// as diagnosis keys.
type delta struct {
	Added   []string `json:"added"`
	Removed []string `json:"removed"`
}

// productDeltas is, for each append of an input, the delta product[8]
// gives between the prefix before it and the prefix after it.
func productDeltas(in input) ([]delta, error) {
	var prev []string
	var out []delta
	for i := range in.seq {
		ref, err := productRef(in.pn, in.seq[:i+1])
		if err != nil {
			return nil, err
		}
		cur := ref.diags.Keys()
		out = append(out, delta{minus(cur, prev), minus(prev, cur)})
		prev = cur
	}
	return out, nil
}

// minus is the keys of a not in b, in a's order.
func minus(a, b []string) []string {
	var out []string
	for _, k := range a {
		if !slices.Contains(b, k) {
			out = append(out, k)
		}
	}
	return out
}

// sameSet reports whether two key lists hold the same keys in any order.
func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// runSession drives one session's requests. Each request's latency is
// timed from when it was due: the session's arrival for the create, the
// previous reply for every later request.
func runSession(e *env, out *sessionOut, due time.Time, sem chan struct{}, tr obs.Tracer, fetchTrace bool) {
	id := fmt.Sprintf("s%d", out.j)
	var root obs.Span
	if tr != nil {
		root = tr.Begin("bench", "session "+id)
		defer root.End()
	}
	call := func(op, method, path, body string, want int) ([]byte, time.Duration, error) {
		sem <- struct{}{}
		defer func() { <-sem }()
		out.requests++
		var sp obs.Span
		if tr != nil {
			sp = tr.Begin("bench", "serve.http "+id+" "+op)
		}
		t := time.Now()
		b, err := e.expect(method, path, body, want)
		d := time.Since(t)
		sp.End()
		if err != nil {
			err = fmt.Errorf("session %d %s: %w", out.j, op, err)
		}
		return b, d, err
	}
	defer func() { out.wall = time.Since(due) }()

	b, d, err := call("create", "POST", "/v1/sessions", `{"net": `+out.in.netJSON+`, "engine": "dqsq"}`, http.StatusCreated)
	out.create = d
	if err != nil {
		out.err = err
		return
	}
	out.bodies = append(out.bodies, string(b))
	sid := sessionID(b)
	prev := time.Now()
	for i, a := range out.in.alarms {
		ab, _ := json.Marshal(a)
		b, d, err := call(fmt.Sprintf("append%d", i), "POST", "/v1/sessions/"+sid+"/alarms", `{"alarms": `+string(ab)+`}`, http.StatusOK)
		now := time.Now()
		out.appendDue = append(out.appendDue, now.Sub(prev))
		out.appendSent = append(out.appendSent, d)
		prev = now
		if err != nil {
			out.err = err
			return
		}
		out.bodies = append(out.bodies, string(b))
	}
	b, d, err = call("get", "GET", "/v1/sessions/"+sid, "", http.StatusOK)
	out.get = d
	if err != nil {
		out.err = err
		return
	}
	out.bodies = append(out.bodies, string(b))
	var st struct {
		Report struct {
			Diagnoses [][]string `json:"diagnoses"`
			Derived   int        `json:"derived"`
			Messages  int        `json:"messages"`
		} `json:"report"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		out.err = fmt.Errorf("session %d: bad report: %w", out.j, err)
		return
	}
	out.final = st.Report.Diagnoses
	out.derived, out.messages = st.Report.Derived, st.Report.Messages
	if fetchTrace {
		out.events = e.sessionTrace(sid)
	}
	_, _, err = call("delete", "DELETE", "/v1/sessions/"+sid, "", http.StatusNoContent)
	out.err = err
}

// sessionTrace exports a live session's server-side trace (the serve
// layer traces every session) from whichever store holds it.
func (e *env) sessionTrace(id string) []obs.Event {
	stores := append([]*serve.Store{e.srv.Store()}, e.wstores...)
	for _, st := range stores {
		if s, ok := st.Get(id, time.Now()); ok {
			var buf bytes.Buffer
			if s.WriteTrace(&buf) != nil {
				return nil
			}
			return parseChromeTrace(buf.Bytes())
		}
	}
	return nil
}

// parseChromeTrace reads a Chrome trace-event JSON file back into events
// (times relative to the trace's own start).
func parseChromeTrace(b []byte) []obs.Event {
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if json.Unmarshal(b, &file) != nil {
		return nil
	}
	tracks := make(map[int]string)
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.TID], _ = ev.Args["name"].(string)
		}
	}
	var out []obs.Event
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" || ev.Ph == "" {
			continue
		}
		out = append(out, obs.Event{Track: tracks[ev.TID], Name: ev.Name, Ph: ev.Ph[0], Wall: ev.TS, Dur: ev.Dur})
	}
	return out
}

func runServe(rn *run, pooled bool) error {
	c, res := rn.cfg, rn.res
	ins := serveInputs(rn)
	refs := make(map[string]reference, len(ins))
	deltas := make(map[string][]delta, len(ins))
	for _, in := range ins {
		ref, err := productRef(in.pn, in.seq)
		if err != nil {
			return err
		}
		refs[in.key] = ref
		if deltas[in.key], err = productDeltas(in); err != nil {
			return err
		}
	}
	root, err := os.MkdirTemp(rn.out, c.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// Set-up: SetupRepeats systems are brought up before the window (the
	// last one is measured) and as many after it, each from a collected
	// heap; set-up time is the median, so a slow spell of the machine
	// shifts few of the samples.
	var setups []float64
	setup := func(i int) (*env, error) {
		runtime.GC()
		start := time.Now()
		e, err := startEnv(rn, pooled, filepath.Join(root, fmt.Sprintf("data%d", i)))
		setups = append(setups, secs(time.Since(start)))
		res.op(err)
		return e, err
	}
	var e *env
	for i := 0; i < c.SetupRepeats; i++ {
		if e != nil {
			e.close()
		}
		if e, err = setup(i); err != nil {
			return err
		}
	}
	closed := false
	defer func() {
		if !closed {
			e.close()
		}
	}()

	front0, workers0, err := e.scrape()
	if err != nil {
		return err
	}
	cpu0 := cpuTime()
	objs0, bytes0 := allocs()
	length := rn.seconds
	if rn.traced {
		length /= 2 // an untraced and a traced window
	}
	outs, wall := window(rn, e, ins, length, nil, 0)
	cpu := cpuTime() - cpu0
	objs1, bytes1 := allocs()
	front1, workers1, err := e.scrape()
	if err != nil {
		return err
	}
	var tracedOuts []*sessionOut
	var clientEvents []obs.Event
	if rn.traced {
		w := newTraceWriter()
		tracedOuts, _ = window(rn, e, ins, length, w, tracedSessions)
		clientEvents = w.Events()
		if err := rn.writeTrace(w, "-client"); err != nil {
			return err
		}
	}
	heap := sessionHeapMB(rn, e, ins)
	e.close()
	closed = true
	for i := 0; i < c.SetupRepeats; i++ {
		if after, err := setup(c.SetupRepeats + i); err == nil {
			after.close()
		}
	}

	// Correctness, outside the timed part: every request succeeded, every
	// append's delta and every session's final diagnoses equal
	// product[8]'s, and every session of one input returned the same
	// scrubbed bodies.
	first := make(map[string][]string)
	unsorted := 0
	check := func(outs []*sessionOut) {
		for _, o := range outs {
			o.check(res, deltas[o.in.key])
			unsorted += o.unsorted
			if o.err != nil {
				continue
			}
			if ref := refs[o.in.key]; !o.final.Equal(ref.diags) {
				res.mismatch("session %d (%s): diagnoses %v != product[8] %v", o.j, o.in.key, o.final.Keys(), ref.diags.Keys())
			}
			if f, ok := first[o.in.key]; !ok {
				first[o.in.key] = o.bodies
			} else if !slices.Equal(f, o.bodies) {
				res.mismatch("session %d (%s): bodies differ from an earlier session of the same input: %s", o.j, o.in.key, bodyDiff(f, o.bodies))
			}
		}
	}
	check(outs)
	check(tracedOuts)
	if pooled {
		// Pooled bodies equal a durable server's, byte for byte.
		n, err := compareWithDurable(rn, ins, deltas, first, filepath.Join(root, "reference"))
		if err != nil {
			return err
		}
		unsorted += n
	}

	var dueMS, sentMS, lagMS, sessS, createMS, getMS []float64
	for _, o := range outs {
		lagMS = append(lagMS, ms(o.lag))
		if o.err != nil {
			continue
		}
		for i := range o.appendDue {
			dueMS = append(dueMS, ms(o.appendDue[i]))
			sentMS = append(sentMS, ms(o.appendSent[i]))
		}
		sessS = append(sessS, secs(o.wall))
		createMS = append(createMS, ms(o.create))
		getMS = append(getMS, ms(o.get))
	}
	if len(dueMS) == 0 {
		return fmt.Errorf("%s: no append succeeded", c.Name)
	}
	appends := float64(len(dueMS))
	res.set("setup_s", median(setups))
	// Latency and session time are taken per fifth of the window and the
	// lower quartile of the fifths is reported, so that slow spells of the
	// machine during up to three of them are filtered.
	res.set("stream_s", segmentLowQuartile(outs, length, func(o *sessionOut) []float64 {
		return []float64{secs(o.wall)}
	}, mean))
	res.set("append_p90_ms", segmentLowQuartile(outs, length, func(o *sessionOut) []float64 {
		var l []float64
		for _, d := range o.appendDue {
			l = append(l, ms(d))
		}
		return l
	}, func(xs []float64) float64 { return quantile(xs, 0.9) }))
	res.set("alarms_per_s", appends/wall.Seconds())
	res.set("heap_mb", heap)
	res.set("serve.removed_unsorted", float64(unsorted))
	if !rn.traced {
		return nil
	}

	delta := func(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }
	perCall := func(m0, m1 map[string]float64, hist string) float64 {
		n := delta(m0, m1, hist+"_count")
		if n == 0 {
			return 0
		}
		return delta(m0, m1, hist+"_sum") / n * 1000
	}
	serverMS := perCall(front0, front1, "diagnosed_append_seconds")
	res.set("append_p50_ms", median(dueMS))
	res.set("online.append_max_s", maxOf(dueMS)/1000)
	res.set("serve.append_server_ms", serverMS)
	res.set("serve.http_ms", mean(sentMS)-serverMS)
	res.set("serve.create_ms", mean(createMS))
	res.set("serve.get_ms", mean(getMS))
	res.set("gen.lag_ms", quantile(lagMS, 0.95))
	res.set("dist.cpu_per_wall", float64(cpu)/float64(wall))
	res.set("mem.allocs_per_append", float64(objs1-objs0)/appends)
	res.set("mem.alloc_mb", float64(bytes1-bytes0)/float64(len(sessS))/(1<<20))

	engine0, engine1 := front0, front1 // where the sessions' engines report
	if pooled {
		engine0, engine1 = workers0, workers1
		res.set("pool.dispatch_ms", perCall(front0, front1, "pool_dispatch_seconds"))
		res.set("pool.overhead_ms", serverMS-perCall(workers0, workers1, "diagnosed_append_seconds"))
		res.set("pool.hedged_per_append", delta(front0, front1, "pool_hedged_total")/appends)
		res.set("pool.retries", delta(front0, front1, "pool_retries_total"))
		res.set("pool.checkpoints", delta(front0, front1, "pool_checkpoints_total"))
		res.zeroLayers("wal.fsync_ms", "wal.bytes_per_append", "wal.group_size", "snapshot.write_ms", "snapshot.bytes_per_append")
	} else {
		res.set("wal.fsync_ms", perCall(front0, front1, "wal_fsync_seconds"))
		res.set("wal.bytes_per_append", delta(front0, front1, "wal_bytes_total")/appends)
		if n := delta(front0, front1, "wal_fsync_seconds_count"); n > 0 {
			res.set("wal.group_size", delta(front0, front1, "wal_appends_total")/n)
		} else {
			res.set("wal.group_size", 0)
		}
		res.set("snapshot.write_ms", perCall(front0, front1, "snapshot_write_seconds"))
		res.set("snapshot.bytes_per_append", delta(front0, front1, "snapshot_bytes_total")/appends)
		res.zeroLayers("pool.dispatch_ms", "pool.overhead_ms", "pool.hedged_per_append", "pool.retries", "pool.checkpoints")
	}
	res.set("dist.bytes", delta(engine0, engine1, "dist_bytes_total")/float64(len(sessS)))

	// Deterministic counts: the first Figure 1 and telecom sessions.
	derived, messages, events := 0, 0, 0
	var productMS []float64
	for _, o := range outs[:min(2, len(outs))] {
		derived += o.derived
		messages += o.messages
		events += refs[o.in.key].events
	}
	for _, in := range ins {
		productMS = append(productMS, ms(refs[in.key].elapsed))
	}
	res.set("ddatalog.derived", float64(derived))
	res.set("dist.messages", float64(messages))
	res.set("product.run_ms", mean(productMS))
	res.set("product.events", float64(events))
	res.set("oneshot.vs_product", mean(sessS)*1000/mean(productMS))

	// Self times: client spans cover the bench layer; the server-side
	// session traces cover the engine layers (their clocks are not
	// aligned with the client's, so the two are accounted separately).
	self := make(map[string]time.Duration)
	traced := 0
	for _, o := range tracedOuts {
		if o.events == nil {
			continue
		}
		traced++
		for l, d := range selfTimes(o.events) {
			self[l] += d
		}
	}
	var clientSpans []obs.Event
	for _, ev := range clientEvents {
		if ev.Ph == 'X' && strings.HasPrefix(ev.Name, "serve.http ") && sessionOf(ev.Name) < tracedSessions {
			clientSpans = append(clientSpans, ev)
		}
	}
	serverSide := self["diagnosis"] + self["dqsq"] + self["ddatalog"] + self["dist"]
	self["bench"] = max(0, selfTimes(clientSpans)["bench"]-serverSide)
	res.setSelfTimes(self, traced)

	var tracedDue []float64
	for _, o := range tracedOuts {
		for _, d := range o.appendDue {
			tracedDue = append(tracedDue, ms(d))
		}
	}
	res.set("trace.overhead_frac", median(tracedDue)/median(dueMS)-1)
	res.zeroLayers("diagnosis.build_ms", "diagnosis.extract_ms", "dqsq.rewrite_ms", "dqsq.rewritten_rules",
		"dqsq.adornments", "dqsq.adornments_max_per_rel", "dqsq.sup_facts", "dqsq.in_facts", "dqsq.answer_facts",
		"ddatalog.eval_s", "ddatalog.replicated", "rel.facts_stored", "term.store_len")
	return nil
}

// segments is how many parts of the window the latency metrics are
// taken over before their lower quartile is reported.
const segments = 5

// segmentLowQuartile splits the successful sessions by arrival into
// segments of the window, applies stat to the values each segment's
// sessions give, and returns the lower quartile over the segments. On a
// shared virtual machine, hypervisor steal of 8-10% over a run slowed
// serving latency by 40-60%; it comes in spells, and the lower quartile
// of five segments stays clear of spells covering up to three of them.
func segmentLowQuartile(outs []*sessionOut, length time.Duration, values func(*sessionOut) []float64, stat func([]float64) float64) float64 {
	parts := make([][]float64, segments)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		i := 0
		if length > 0 {
			i = min(segments-1, int(o.due*segments/length))
		}
		parts[i] = append(parts[i], values(o)...)
	}
	var stats []float64
	for _, p := range parts {
		if len(p) > 0 {
			stats = append(stats, stat(p))
		}
	}
	return quantile(stats, 0.25)
}

// tracedSessions is how many sessions of the traced window export their
// server-side trace: the first Figure 1 and the first telecom session.
const tracedSessions = 2

// sessionOf parses the session number out of a bench span name
// "serve.http s<j> <op>".
func sessionOf(name string) int {
	f := strings.Fields(name)
	if len(f) < 2 {
		return -1
	}
	n, err := strconv.Atoi(strings.TrimPrefix(f[1], "s"))
	if err != nil {
		return -1
	}
	return n
}

// bodyDiff describes the first difference between two body lists.
func bodyDiff(a, b []string) string {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("body %d:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d bodies vs %d", len(a), len(b))
}

// compareWithDurable replays every distinct input the pooled sessions
// ran on a durable server, as many sessions at once as the window's cap
// on requests in flight, and compares its scrubbed bodies with the pooled
// ones. Its requests count as operations like the window's. It returns
// how many of its append bodies listed "removed" out of order.
func compareWithDurable(rn *run, ins []input, deltas map[string][]delta, pooled map[string][]string, dir string) (int, error) {
	e, err := startEnv(rn, false, dir)
	if err != nil {
		return 0, fmt.Errorf("reference server: %w", err)
	}
	defer e.close()
	sem, sessions := make(chan struct{}, rn.cfg.Inflight), make(chan struct{}, rn.cfg.Inflight)
	var wg sync.WaitGroup
	var outs []*sessionOut
	for j, in := range ins {
		if _, ok := pooled[in.key]; !ok {
			continue
		}
		out := &sessionOut{j: j, in: in}
		outs = append(outs, out)
		sessions <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sessions; wg.Done() }()
			runSession(e, out, time.Now(), sem, nil, false)
		}()
	}
	wg.Wait()
	unsorted := 0
	for _, out := range outs {
		out.check(rn.res, deltas[out.in.key])
		unsorted += out.unsorted
		if got := pooled[out.in.key]; out.err == nil && !slices.Equal(got, out.bodies) {
			rn.res.mismatch("%s: pooled bodies differ from serve-durable bodies: %s", out.in.key, bodyDiff(got, out.bodies))
		}
	}
	return unsorted, nil
}

// heapBatch is how many sessions sessionHeapMB holds open at once.
const heapBatch = 32

// sessionHeapMB is the live heap the server holds per open session, the
// mean over the run's distinct inputs. It opens a session of each input
// and appends its alarms, heapBatch sessions at a time (up to the
// window's cap on requests in flight at once), and takes the heap with a
// batch open minus the heap just before it was created. The benchmark's
// own state is the same in both samples, so it cancels out. Each sample
// waits a moment first, so that the server's background work
// (write-behind snapshots) has let go of its buffers.
func sessionHeapMB(rn *run, e *env, ins []input) float64 {
	settled := func() float64 {
		time.Sleep(100 * time.Millisecond)
		return liveHeapMB()
	}
	heap := 0.0
	for lo := 0; lo < len(ins); lo += heapBatch {
		batch := ins[lo:min(lo+heapBatch, len(ins))]
		base := settled()
		ids := make([]string, len(batch))
		requests := make([]int, len(batch))
		errs := make([]error, len(batch))
		sem := make(chan struct{}, rn.cfg.Inflight)
		var wg sync.WaitGroup
		for i, in := range batch {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				ids[i], requests[i], errs[i] = openSession(e, in)
			}()
		}
		wg.Wait()
		heap += settled() - base
		for i, id := range ids {
			rn.res.ops(requests[i], errs[i])
			if id != "" {
				_, err := e.expect("DELETE", "/v1/sessions/"+id, "", http.StatusNoContent)
				rn.res.op(err)
			}
		}
	}
	return heap / float64(len(ins))
}

// openSession creates a session of the input and appends its alarms. It
// returns the session ID, the number of requests sent and the failure
// that ended them, if any.
func openSession(e *env, in input) (id string, requests int, err error) {
	b, err := e.expect("POST", "/v1/sessions", `{"net": `+in.netJSON+`, "engine": "dqsq"}`, http.StatusCreated)
	if err != nil {
		return "", 1, err
	}
	id = sessionID(b)
	for i, a := range in.alarms {
		ab, _ := json.Marshal(a)
		if _, err := e.expect("POST", "/v1/sessions/"+id+"/alarms", `{"alarms": `+string(ab)+`}`, http.StatusOK); err != nil {
			return id, i + 2, err
		}
	}
	return id, 1 + len(in.alarms), nil
}

// expect sends a request and fails unless the reply has the wanted
// status.
func (e *env) expect(method, path, body string, want int) ([]byte, error) {
	code, b, err := e.do(method, path, body)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	return b, err
}
