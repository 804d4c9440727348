package serve

// Session-pool acceptance at the serve layer, over an in-process mesh:
// a pooled server must be observably identical to a local one — same
// status codes, byte-identical bodies (after scrubbing the fields that
// legitimately differ: IDs, timestamps, elapsed wall time) — including
// across worker death and cooperative drain.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/transport"
)

// startPoolWorker brings up one pool worker over the mesh, backed by its
// own session store.
func startPoolWorker(t *testing.T, mesh *transport.Mesh, name string, cfg StoreConfig) *pool.Worker {
	t.Helper()
	node := mesh.Node(name)
	w := pool.NewWorker(pool.WorkerConfig{
		Transport: node,
		Backend:   NewPoolBackend(NewStore(cfg, nil), nil),
	})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		node.Close() //nolint:errcheck
	})
	return w
}

// newPooledPair builds a pooled server (frontend + workers over a mesh)
// and a plain local server with the same store defaults, so responses
// can be compared request by request.
func newPooledPair(t *testing.T, workerCfg StoreConfig, poolCfg pool.Config, workerNames ...string) (p *pool.Pool, pooled, local *httptest.Server, workers map[string]*pool.Worker) {
	t.Helper()
	mesh := transport.NewMesh()
	workers = make(map[string]*pool.Worker, len(workerNames))
	for _, name := range workerNames {
		workers[name] = startPoolWorker(t, mesh, name, workerCfg)
	}
	poolCfg.Transport = mesh.Node("fe")
	poolCfg.Workers = workerNames
	if poolCfg.ProbeEvery == 0 {
		poolCfg.ProbeEvery = 50 * time.Millisecond
	}
	pooledSrv, pooledTS := newTestServer(t, Config{})
	poolCfg.Metrics = pooledSrv.Metrics()
	var err error
	p, err = pool.New(poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pooledSrv.SetPool(p)
	_, localTS := newTestServer(t, Config{})
	return p, pooledTS, localTS, workers
}

// rawDo issues the request and returns status plus the exact body bytes.
func rawDo(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

var (
	scrubElapsed = regexp.MustCompile(`"elapsed_ms": [0-9eE.+-]+`)
	scrubID      = regexp.MustCompile(`"id": "[^"]*"`)
	scrubTimes   = regexp.MustCompile(`"(created|last_used)": "[^"]*"`)
)

// scrub blanks the legitimately-nondeterministic fields; everything else
// must match byte for byte.
func scrub(body string) string {
	body = scrubElapsed.ReplaceAllString(body, `"elapsed_ms": X`)
	body = scrubID.ReplaceAllString(body, `"id": "X"`)
	body = scrubTimes.ReplaceAllString(body, `"$1": "X"`)
	return body
}

var sessIDRe = regexp.MustCompile(`"id": "([^"]*)"`)

func extractID(t *testing.T, body string) string {
	t.Helper()
	m := sessIDRe.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no session id in %q", body)
	}
	return m[1]
}

// TestPoolEquivalence is the tentpole's correctness bar: for every
// engine, a session served through the pool answers create, append and
// get with the same status codes and byte-identical bodies as a local
// session fed the same requests.
func TestPoolEquivalence(t *testing.T) {
	_, pooled, local, _ := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1", "w2")

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"dqsq", "direct", "product", "naive", ""} {
		createBody := `{"net": ` + netJSON + `, "engine": "` + engine + `"}`
		if engine == "" {
			createBody = `{"net": ` + netJSON + `}`
		}
		pCode, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
		lCode, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
		if pCode != http.StatusCreated || lCode != http.StatusCreated {
			t.Fatalf("engine %q: create status pooled %d local %d\npooled: %s", engine, pCode, lCode, pBody)
		}
		if scrub(pBody) != scrub(lBody) {
			t.Fatalf("engine %q: create bodies diverge\npooled: %s\nlocal:  %s", engine, scrub(pBody), scrub(lBody))
		}
		pID, lID := extractID(t, pBody), extractID(t, lBody)

		for _, alarm := range quickstartAlarms {
			pCode, pBody = rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
			lCode, lBody = rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
			if pCode != http.StatusOK || lCode != http.StatusOK {
				t.Fatalf("engine %q append %q: status pooled %d local %d\npooled: %s", engine, alarm, pCode, lCode, pBody)
			}
			if scrub(pBody) != scrub(lBody) {
				t.Fatalf("engine %q append %q: bodies diverge\npooled: %s\nlocal:  %s", engine, alarm, scrub(pBody), scrub(lBody))
			}
		}

		pCode, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
		lCode, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("engine %q: get status pooled %d local %d", engine, pCode, lCode)
		}
		if scrub(pBody) != scrub(lBody) {
			t.Fatalf("engine %q: session bodies diverge\npooled: %s\nlocal:  %s", engine, scrub(pBody), scrub(lBody))
		}

		// Client-fault and lifecycle statuses line up too.
		if code, _ := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "b@nowhere"}`); code != http.StatusBadRequest {
			t.Fatalf("engine %q: pooled unknown-peer append: status %d, want 400", engine, code)
		}
		if code, _ := rawDo(t, "DELETE", pooled.URL+"/v1/sessions/"+pID, ""); code != http.StatusNoContent {
			t.Fatalf("engine %q: pooled delete: status %d", engine, code)
		}
		if code, _ := rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, ""); code != http.StatusNotFound {
			t.Fatalf("engine %q: pooled get after delete: status %d, want 404", engine, code)
		}
		if code, _ := rawDo(t, "DELETE", local.URL+"/v1/sessions/"+lID, ""); code != http.StatusNoContent {
			t.Fatalf("engine %q: local delete: status %d", engine, code)
		}
	}
}

// jsonString encodes s as a JSON string literal.
func jsonString(s string) (string, error) {
	b, err := json.Marshal(s)
	return string(b), err
}

// TestAppendRemovedSorted: an append that rules out several diagnoses
// lists them sorted, like the added ones, on local and pooled serving
// alike. On telecom(2) the last alarm of the stream below removes two
// diagnoses; the removals come out of a map, so each server is checked
// over several sessions to make an unsorted list all but certain to show.
func TestAppendRemovedSorted(t *testing.T) {
	_, pooled, local, _ := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1")
	netJSON, err := jsonString(parser.FormatNet(gen.Telecom(2)))
	if err != nil {
		t.Fatal(err)
	}
	stream := []string{"fail@line0", "fail@line1", "overload@switch", "reset@line0"}
	for _, srv := range []*httptest.Server{local, pooled} {
		for i := 0; i < 12; i++ {
			code, body := rawDo(t, "POST", srv.URL+"/v1/sessions", `{"net": `+netJSON+`, "engine": "direct"}`)
			if code != http.StatusCreated {
				t.Fatalf("create: status %d: %s", code, body)
			}
			id := extractID(t, body)
			var last appendResponse
			for _, a := range stream {
				code, body = rawDo(t, "POST", srv.URL+"/v1/sessions/"+id+"/alarms", `{"alarms": "`+a+`"}`)
				if code != http.StatusOK {
					t.Fatalf("append %s: status %d: %s", a, code, body)
				}
				if err := json.Unmarshal([]byte(body), &last); err != nil {
					t.Fatal(err)
				}
			}
			if len(last.Removed) < 2 {
				t.Fatalf("last append removed %v, want at least two diagnoses", last.Removed)
			}
			if !sort.StringsAreSorted(last.Removed) {
				t.Fatalf("removed %v is not sorted", last.Removed)
			}
		}
	}
}

// TestPoolWorkerKillEquivalence kills the worker homing a session
// mid-stream (its transport goes away, like a kill -9) and checks the
// pool re-materializes the session elsewhere from the journal with zero
// acknowledged-append loss: the remaining appends succeed and the final
// state is byte-identical to an uninterrupted local run.
func TestPoolWorkerKillEquivalence(t *testing.T) {
	mesh := transport.NewMesh()
	for _, name := range []string{"w1", "w2"} {
		startPoolWorker(t, mesh, name, StoreConfig{})
	}
	pooledSrv, pooled := newTestServer(t, Config{})
	p, err := pool.New(pool.Config{
		Transport:  mesh.Node("fe"),
		Workers:    []string{"w1", "w2"},
		Metrics:    pooledSrv.Metrics(),
		ProbeEvery: 50 * time.Millisecond,
		ShipEvery:  -1, // force the journal-replay path, no checkpoint shortcut
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pooledSrv.SetPool(p)
	_, local := newTestServer(t, Config{})

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "dqsq"}`
	_, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	_, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	pID, lID := extractID(t, pBody), extractID(t, lBody)

	appendBoth := func(alarm string) (string, string) {
		t.Helper()
		pCode, pb := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
		lCode, lb := rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("append %q: status pooled %d local %d\npooled: %s", alarm, pCode, lCode, pb)
		}
		return pb, lb
	}

	pb, lb := appendBoth(quickstartAlarms[0])
	if scrub(pb) != scrub(lb) {
		t.Fatalf("pre-kill append diverges\npooled: %s\nlocal:  %s", scrub(pb), scrub(lb))
	}

	victim, ok := p.SessionWorker(pID)
	if !ok {
		t.Fatalf("session %s unknown to the pool", pID)
	}
	mesh.Node(victim).Close() //nolint:errcheck // the kill under test

	for _, alarm := range quickstartAlarms[1:] {
		pb, lb = appendBoth(alarm)
		if scrub(pb) != scrub(lb) {
			t.Fatalf("post-kill append %q diverges\npooled: %s\nlocal:  %s", alarm, scrub(pb), scrub(lb))
		}
	}

	if now, _ := p.SessionWorker(pID); now == victim {
		t.Fatalf("session still placed on the killed worker %s", victim)
	}
	_, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	_, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("post-kill session state diverges\npooled: %s\nlocal:  %s", scrub(pBody), scrub(lBody))
	}
	if n := metricValue(t, pooled, "pool_migrations_total"); n < 1 {
		t.Fatalf("pool_migrations_total = %d, want >= 1", n)
	}
}

// TestPoolDrainMigration drains the worker homing a session and waits
// for the pool to migrate it by checkpoint: placement moves off the
// drainer without any failed request, the move ships a checkpoint
// rather than replaying the journal from the create, and the session
// keeps answering with state identical to a local run.
func TestPoolDrainMigration(t *testing.T) {
	p, pooled, local, workers := newPooledPair(t, StoreConfig{}, pool.Config{}, "w1", "w2")

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `, "engine": "dqsq"}`
	_, pBody := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody)
	_, lBody := rawDo(t, "POST", local.URL+"/v1/sessions", createBody)
	pID, lID := extractID(t, pBody), extractID(t, lBody)

	if code, _ := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+quickstartAlarms[0]+`"}`); code != http.StatusOK {
		t.Fatalf("append: status %d", code)
	}
	rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+quickstartAlarms[0]+`"}`)

	drainer, ok := p.SessionWorker(pID)
	if !ok {
		t.Fatalf("session %s unknown to the pool", pID)
	}
	// Neither pool_checkpoints_total nor pool_migrations_total has moved
	// yet: one append is below ShipEvery, and no worker has failed.
	workers[drainer].SetDraining(true)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if now, _ := p.SessionWorker(pID); now != drainer {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never migrated off draining worker %s (states %v)", drainer, p.WorkerStates())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state := p.WorkerStates()[drainer]; state != pool.StateDraining {
		t.Fatalf("drainer state %q, want %q", state, pool.StateDraining)
	}

	for _, alarm := range quickstartAlarms[1:] {
		pCode, pb := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+pID+"/alarms", `{"alarms": "`+alarm+`"}`)
		lCode, lb := rawDo(t, "POST", local.URL+"/v1/sessions/"+lID+"/alarms", `{"alarms": "`+alarm+`"}`)
		if pCode != http.StatusOK || lCode != http.StatusOK {
			t.Fatalf("post-drain append %q: status pooled %d local %d", alarm, pCode, lCode)
		}
		if scrub(pb) != scrub(lb) {
			t.Fatalf("post-drain append %q diverges\npooled: %s\nlocal:  %s", alarm, scrub(pb), scrub(lb))
		}
	}
	_, pBody = rawDo(t, "GET", pooled.URL+"/v1/sessions/"+pID, "")
	_, lBody = rawDo(t, "GET", local.URL+"/v1/sessions/"+lID, "")
	if scrub(pBody) != scrub(lBody) {
		t.Fatalf("post-drain session state diverges\npooled: %s\nlocal:  %s", scrub(pBody), scrub(lBody))
	}
	if n := metricValue(t, pooled, "pool_checkpoints_total"); n < 1 {
		t.Fatalf("pool_checkpoints_total = %d, want >= 1: the drain did not ship a checkpoint", n)
	}
	if n := metricValue(t, pooled, "pool_migrations_total"); n < 1 {
		t.Fatalf("pool_migrations_total = %d, want >= 1", n)
	}
}

// TestPoolBackpressure: when every worker refuses admission the pooled
// create answers 503 with a Retry-After hint instead of hanging or
// five-hundreding.
func TestPoolBackpressure(t *testing.T) {
	_, pooled, _, _ := newPooledPair(t, StoreConfig{MaxSessions: 1}, pool.Config{}, "w1", "w2")

	netText := exampleNetText(t)
	netJSON, err := jsonString(netText)
	if err != nil {
		t.Fatal(err)
	}
	createBody := `{"net": ` + netJSON + `}`
	for i := 0; i < 2; i++ {
		if code, body := rawDo(t, "POST", pooled.URL+"/v1/sessions", createBody); code != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, code, body)
		}
	}
	req, err := http.NewRequest("POST", pooled.URL+"/v1/sessions", strings.NewReader(createBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated create: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated create: no Retry-After header")
	}
}

// TestPoolRehomeRace re-homes the sessions of a dead worker while the
// probe loop, on a 1ms period, keeps refreshing the per-worker gauges
// and listing sessions by worker. Both read each session's worker field
// while re-materialization writes it; under the race detector this
// fails unless the two sides share a lock. Every append must still
// answer 200.
func TestPoolRehomeRace(t *testing.T) {
	mesh := transport.NewMesh()
	for _, name := range []string{"w1", "w2"} {
		startPoolWorker(t, mesh, name, StoreConfig{})
	}
	pooledSrv, pooled := newTestServer(t, Config{})
	p, err := pool.New(pool.Config{
		Transport:  mesh.Node("fe"),
		Workers:    []string{"w1", "w2"},
		Metrics:    pooledSrv.Metrics(),
		ProbeEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	pooledSrv.SetPool(p)

	netJSON, err := jsonString(exampleNetText(t))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 8)
	for i := range ids {
		code, body := rawDo(t, "POST", pooled.URL+"/v1/sessions", `{"net": `+netJSON+`, "engine": "dqsq"}`)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, code, body)
		}
		ids[i] = extractID(t, body)
	}
	mesh.Node("w1").Close() //nolint:errcheck // the kill under test
	for _, id := range ids {
		if code, body := rawDo(t, "POST", pooled.URL+"/v1/sessions/"+id+"/alarms", `{"alarms": "`+quickstartAlarms[0]+`"}`); code != http.StatusOK {
			t.Fatalf("append to %s: status %d: %s", id, code, body)
		}
		if now, _ := p.SessionWorker(id); now != "w2" {
			t.Fatalf("session %s on %q after w1 died, want w2", id, now)
		}
	}
}

// TestErrorStatusLocalEqualsPooled: an error answers the same status and
// body whether a local handler meets it or a pool worker classifies it
// and the frontend renders the reply. An error nothing classifies is a
// plain 500 either way.
func TestErrorStatusLocalEqualsPooled(t *testing.T) {
	var s Server
	for _, err := range []error{
		ErrBadInput, ErrExhausted, ErrOverloaded, ErrDraining, ErrReadOnly, ErrClosed, ErrNotFound,
		fmt.Errorf("eval: %w", dist.ErrTimeout),
		errors.New("x"),
	} {
		local := httptest.NewRecorder()
		s.fail(local, err)
		code, retryAfterMS := NewPoolBackend(nil, nil).Classify(err)
		pooled := httptest.NewRecorder()
		s.writeResult(pooled, http.StatusOK, pool.Result{Code: code, Err: err.Error(), RetryAfterMS: retryAfterMS})
		if local.Code != pooled.Code || local.Body.String() != pooled.Body.String() {
			t.Errorf("%v: local %d %q, pooled %d %q", err, local.Code, local.Body, pooled.Code, pooled.Body)
		}
	}
	rec := httptest.NewRecorder()
	s.fail(rec, errors.New("x"))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unclassified error: status %d, want 500", rec.Code)
	}
}
