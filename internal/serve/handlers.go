package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/pool"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Config tunes the server.
type Config struct {
	// Store bounds the session table.
	Store StoreConfig
	// EvalTimeout caps each evaluation; a shorter request-context deadline
	// wins. 0 means 30s.
	EvalTimeout time.Duration
	// SweepEvery is the TTL sweep period. 0 means 30s; negative disables
	// the background sweeper (tests drive Sweep directly).
	SweepEvery time.Duration
	// MaxBody caps request bodies. 0 means 1MiB.
	MaxBody int64
	// DataDir enables write-behind session durability: every append
	// schedules a snapshot of the session to <DataDir>/<id>.dsnp, graceful
	// shutdown persists every live session, and a restarted server
	// restores the files back into its table. It also enables the
	// write-ahead log at <DataDir>/wal: every create, append and delete is
	// logged before its HTTP acknowledgement, and boot replays the log on
	// top of the restored snapshots — with Fsync always, a kill -9 loses
	// nothing that was acknowledged. Empty disables persistence.
	DataDir string
	// Fsync is the WAL durability policy (wal.SyncAlways, the zero value,
	// fsyncs every record before acknowledging; SyncInterval batches;
	// SyncNever leaves flushing to the OS).
	Fsync wal.Policy
	// SnapshotDelay stalls each write-behind snapshot (test hook: it
	// widens the window in which acknowledged appends exist only in the
	// WAL, so crash tests can target it deterministically). 0 in
	// production.
	SnapshotDelay time.Duration
	// ReadOnly starts the server as a replication follower: create,
	// append and delete refuse with 503 ErrReadOnly until a promote
	// (POST /v1/admin/promote) flips the server writable. Reads, health
	// and metrics always work.
	ReadOnly bool
	// Logger receives persistence and drain-disposition logs; nil
	// discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.EvalTimeout == 0 {
		c.EvalTimeout = 30 * time.Second
	}
	if c.SweepEvery == 0 {
		c.SweepEvery = 30 * time.Second
	}
	if c.MaxBody == 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// Server is the streaming diagnosis service: session CRUD, incremental
// alarm appends, health and metrics, with graceful shutdown draining
// in-flight evaluations.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	mux     *http.ServeMux
	log     *slog.Logger
	persist *persister // nil when Config.DataDir is empty
	wal     *serverWAL // nil when Config.DataDir is empty or the log failed to open

	drainMu  sync.Mutex
	draining bool
	inflight sync.WaitGroup
	finalize sync.Once // persist-and-clear runs exactly once across concurrent Shutdowns

	// pool, when non-nil, turns the server into a frontend: session
	// operations are dispatched to remote peerd workers instead of the
	// local store. Set before serving (SetPool); never changed after.
	pool *pool.Pool

	// readOnly gates the mutating handlers while the server follows a
	// replication primary; promote flips it off exactly once.
	readOnly  atomic.Bool
	promoteMu sync.Mutex
	promoteFn func() (epoch uint64, err error)

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewServer builds the service, restores any persisted sessions from
// Config.DataDir, and starts its TTL sweeper (unless disabled). Callers
// must Shutdown it to stop the sweeper and persist the session table.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	RegisterRuntimeGauges(m)
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:       cfg,
		store:     NewStore(cfg.Store, m),
		metrics:   m,
		mux:       http.NewServeMux(),
		log:       log,
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.readOnly.Store(cfg.ReadOnly)
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			// Serving sessions beats refusing to start; the server just
			// runs non-durable, loudly.
			log.Error("data dir unusable; persistence disabled", "dir", cfg.DataDir, "err", err)
		} else {
			// Recovery order: snapshots first (the coarse base state), then
			// the WAL replayed on top of them — it holds exactly the
			// acknowledged work the snapshots had not absorbed yet.
			restoreSessions(cfg.DataDir, s.store, m, log)
			walLog, err := wal.Open(filepath.Join(cfg.DataDir, walDirName), wal.Options{
				Fsync:   cfg.Fsync,
				Metrics: m,
			})
			if err != nil {
				log.Error("wal unusable; write-ahead logging disabled", "err", err)
			} else {
				s.wal = newServerWAL(walLog)
			}
			s.persist = newPersister(cfg.DataDir, m, log, s.wal, cfg.SnapshotDelay)
			s.store.SetPersister(s.persist)
			s.store.SetWAL(s.wal)
			if s.wal != nil {
				s.replayWAL()
			}
		}
	}
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/alarms", s.handleAppend)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/admin/promote", s.handlePromote)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)

	if cfg.SweepEvery > 0 {
		go s.sweeper()
	} else {
		close(s.sweepDone)
	}
	return s
}

// Metrics exposes the registry (cmd/diagnosed adds process gauges).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetPool switches the server into frontend mode: session creates,
// appends, reads and deletes are scheduled onto the pool's workers
// instead of the local store. Must be called before serving requests.
func (s *Server) SetPool(p *pool.Pool) { s.pool = p }

// Store exposes the session table (tests drive Sweep directly).
func (s *Server) Store() *Store { return s.store }

func (s *Server) sweeper() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			return
		case now := <-t.C:
			s.store.Sweep(now)
		}
	}
}

// ServeHTTP implements http.Handler. Every request except health and
// metrics counts as in-flight work for graceful shutdown; once draining,
// new work is load-shed with 503 while /healthz reports the drain and
// /metrics stays readable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
		s.mux.ServeHTTP(w, r)
		return
	}
	if !s.enter() {
		// The drain is short-lived: the client should retry against the
		// restarted (or replacement) instance, not give up.
		w.Header().Set("Retry-After", "1")
		s.fail(w, ErrDraining)
		return
	}
	defer s.inflight.Done()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	s.mux.ServeHTTP(w, r)
}

// enter registers an in-flight request, refusing once draining. The
// mutex closes the Add/Wait race: Shutdown flips draining under the same
// lock before waiting.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the server: new requests are refused with 503, the TTL
// sweeper stops, in-flight evaluations run to completion (or until ctx
// expires), then every session is closed. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		close(s.sweepStop)
	}
	<-s.sweepDone

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.finalize.Do(func() {
		if s.persist != nil {
			// In-flight appends are done; persist the final state of every
			// live session synchronously, then detach the persister so
			// Clear does not delete the files just written.
			s.persist.close()
			s.persist.drain(s.store.Sessions())
			s.store.SetPersister(nil)
		}
		if s.wal != nil {
			// Drain covered every live session, so compaction drops what it
			// can before the final flush-and-close.
			s.wal.compact()
			s.wal.close()
		}
		s.store.Clear()
	})
	return nil
}

// evalTimeout derives the evaluation budget for one request: the
// configured cap, shortened by any request-context deadline.
func (s *Server) evalTimeout(r *http.Request) time.Duration {
	d := s.cfg.EvalTimeout
	if deadline, ok := r.Context().Deadline(); ok {
		if rem := time.Until(deadline); rem < d {
			d = rem
		}
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// ---- wire types ----

type createRequest struct {
	// Net is the textual net format (parser.Net); required.
	Net string `json:"net"`
	// Engine is direct | product | naive | dqsq (default dqsq).
	Engine string `json:"engine"`
	// MaxFacts is the session's fact budget; 0 takes the server default.
	MaxFacts int `json:"max_facts"`
}

type createResponse struct {
	ID       string   `json:"id"`
	Engine   string   `json:"engine"`
	Peers    []string `json:"peers"`
	MaxFacts int      `json:"max_facts"`
}

type appendRequest struct {
	// Alarms is one or many observations in the textual format, e.g.
	// "b@p1 a@p2".
	Alarms string `json:"alarms"`
}

type reportJSON struct {
	Engine     string     `json:"engine"`
	Diagnoses  [][]string `json:"diagnoses"`
	TransFacts int        `json:"trans_facts"`
	PlaceFacts int        `json:"place_facts"`
	Derived    int        `json:"derived"`
	Messages   int        `json:"messages"`
	ElapsedMS  float64    `json:"elapsed_ms"`
	Truncated  bool       `json:"truncated"`
}

func toReportJSON(rep *core.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	diags := rep.Diagnoses
	if diags == nil {
		diags = [][]string{}
	}
	return &reportJSON{
		Engine:     EngineName(rep.Engine),
		Diagnoses:  diags,
		TransFacts: rep.TransFacts,
		PlaceFacts: rep.PlaceFacts,
		Derived:    rep.Derived,
		Messages:   rep.Messages,
		ElapsedMS:  float64(rep.Elapsed.Microseconds()) / 1000,
		Truncated:  rep.Truncated,
	}
}

type appendResponse struct {
	Alarms       int         `json:"alarms"`
	Added        []string    `json:"added"`
	Removed      []string    `json:"removed"`
	DerivedDelta int         `json:"derived_delta"`
	Report       *reportJSON `json:"report"`
}

// newAppendResponse is the append body of both local and pooled serving;
// empty deltas render as [] rather than null.
func newAppendResponse(res *AppendResult) appendResponse {
	added, removed := res.Added, res.Removed
	if added == nil {
		added = []string{}
	}
	if removed == nil {
		removed = []string{}
	}
	return appendResponse{
		Alarms:       res.Alarms,
		Added:        added,
		Removed:      removed,
		DerivedDelta: res.DerivedDelta,
		Report:       toReportJSON(res.Report),
	}
}

type sessionResponse struct {
	ID        string      `json:"id"`
	Engine    string      `json:"engine"`
	MaxFacts  int         `json:"max_facts"`
	Created   time.Time   `json:"created"`
	LastUsed  time.Time   `json:"last_used"`
	Alarms    int         `json:"alarms"`
	Exhausted bool        `json:"exhausted"`
	Seq       string      `json:"seq"`
	Report    *reportJSON `json:"report"`
	// SnapshotAgeSeconds is how stale the session's persisted snapshot is
	// (what a kill -9 right now would lose). Absent while the session has
	// never been persisted or persistence is disabled.
	SnapshotAgeSeconds *float64 `json:"snapshot_age_seconds,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	start := time.Now()
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Net == "" {
		s.badRequest(w, errors.New("missing net"))
		return
	}
	engine, err := ParseEngine(req.Engine)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if s.pool != nil {
		// Frontend mode: the worker parses the net and warms the engine;
		// the frontend only burns cycles on admission and placement.
		res := s.pool.Create(req.Net, req.Engine, req.MaxFacts, s.evalTimeout(r))
		s.metrics.Observe("diagnosed_create_seconds", time.Since(start))
		s.writePoolResult(w, http.StatusCreated, res)
		return
	}
	sys, err := core.LoadNet(req.Net)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	sess, err := s.store.Create(sys, engine, req.MaxFacts, time.Now())
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.fail(w, err)
		} else {
			// Engine warm-up rejected the net (e.g. a peer name that
			// collides with the supervisor) — the client's fault.
			s.badRequest(w, err)
		}
		return
	}
	if s.wal != nil {
		// Log the create before the 201. The session is technically live in
		// the table already, but its crypto-random ID is unknown to any
		// client until this response goes out, so no append can precede the
		// create record in the log.
		seq, err := s.wal.logCreate(sess.ID, req.Net, EngineName(engine), sess.Facts, sess.Created.UnixNano())
		if err != nil {
			s.store.Delete(sess.ID)
			s.fail(w, fmt.Errorf("session not durably logged: %w", err))
			return
		}
		sess.setWALSeq(seq)
	}
	peers := []string{}
	for _, p := range sys.Peers() {
		peers = append(peers, string(p))
	}
	s.metrics.Observe("diagnosed_create_seconds", time.Since(start))
	s.writeJSON(w, http.StatusCreated, createResponse{
		ID: sess.ID, Engine: EngineName(engine), Peers: peers, MaxFacts: sess.Facts,
	})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	if s.pool != nil {
		var req appendRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.badRequest(w, fmt.Errorf("bad request body: %w", err))
			return
		}
		start := time.Now()
		res := s.pool.Append(r.PathValue("id"), req.Alarms, s.evalTimeout(r))
		s.metrics.Observe("diagnosed_append_seconds", time.Since(start))
		s.writePoolResult(w, http.StatusOK, res)
		return
	}
	sess, ok := s.store.Get(r.PathValue("id"), time.Now())
	if !ok {
		s.notFound(w)
		return
	}
	var req appendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badRequest(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	seq, err := core.ParseAlarms(req.Alarms)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if len(seq) == 0 {
		s.badRequest(w, errors.New("no alarms in request"))
		return
	}
	for _, o := range seq {
		if !sess.HasPeer(string(o.Peer)) {
			s.badRequest(w, fmt.Errorf("alarm from unknown peer %q", o.Peer))
			return
		}
	}

	start := time.Now()
	res, err := sess.Append(seq, s.evalTimeout(r))
	s.metrics.Observe("diagnosed_append_seconds", time.Since(start))
	if s.persist != nil {
		// Write-behind on success AND failure: an append that poisoned the
		// session must persist the poisoning, or a restart would resurrect
		// a session whose warm state is not trustworthy as healthy.
		s.persist.markDirty(sess)
	}
	if err != nil {
		s.metrics.Add("diagnosed_append_errors_total", 1)
		s.fail(w, err)
		return
	}
	s.metrics.Add("diagnosed_alarms_total", int64(len(seq)))
	s.metrics.Add("diagnosed_appends_total", 1)
	s.metrics.Add("diagnosed_facts_materialized_total", int64(res.DerivedDelta))
	s.metrics.Add("diagnosed_messages_total", int64(res.MessagesDelta))

	s.writeJSON(w, http.StatusOK, newAppendResponse(res))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if s.pool != nil {
		// The worker is authoritative for session state (seq, report,
		// exhaustion); the frontend only journals placement.
		s.writePoolResult(w, http.StatusOK, s.pool.Get(r.PathValue("id"), 10*time.Second))
		return
	}
	sess, ok := s.store.Get(r.PathValue("id"), time.Now())
	if !ok {
		s.notFound(w)
		return
	}
	st, err := sess.Snapshot()
	if err != nil {
		s.fail(w, err)
		return
	}
	resp := sessionResponse{
		ID:        st.ID,
		Engine:    EngineName(st.Engine),
		MaxFacts:  st.Facts,
		Created:   st.Created,
		LastUsed:  st.LastUsed,
		Alarms:    st.Alarms,
		Exhausted: st.Exhausted,
		Seq:       parser.FormatAlarms(st.Seq),
		Report:    toReportJSON(st.Report),
	}
	if !st.LastSnap.IsZero() {
		age := time.Since(st.LastSnap).Seconds()
		resp.SnapshotAgeSeconds = &age
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleTrace exports the session's evaluation trace as Chrome
// trace-event JSON, loadable in chrome://tracing or Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.pool != nil {
		// The trace buffer lives with the warm engine on the worker; the
		// frontend has nothing to export. Scrape the worker's admin
		// endpoint instead.
		s.notFound(w)
		return
	}
	sess, ok := s.store.Get(r.PathValue("id"), time.Now())
	if !ok {
		s.notFound(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := sess.WriteTrace(w); err != nil {
		// Headers are gone; nothing to report but the connection state.
		return
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.readOnly.Load() {
		s.fail(w, ErrReadOnly)
		return
	}
	id := r.PathValue("id")
	if s.pool != nil {
		res := s.pool.Delete(id, 10*time.Second)
		if res.Code == wire.SessOK {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		s.writePoolResult(w, http.StatusNoContent, res)
		return
	}
	if s.wal != nil {
		// Log the delete intent before acknowledging it: the record is what
		// keeps a crash between the 204 and the snapshot file's removal from
		// resurrecting the session on restart. Existence is checked first so
		// the log never carries deletes of sessions that were never there.
		if _, ok := s.store.Get(id, time.Now()); !ok {
			s.notFound(w)
			return
		}
		if _, err := s.wal.logDelete(id); err != nil {
			s.fail(w, fmt.Errorf("delete not durably logged: %w", err))
			return
		}
	}
	if !s.store.Delete(id) {
		s.notFound(w)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// promoteResponse acknowledges a successful promote with the fencing
// epoch the server now serves under.
type promoteResponse struct {
	Epoch uint64 `json:"epoch"`
}

// handlePromote turns a read-only follower into the primary: the
// configured promote hook (cmd/diagnosed: stop the stream, bump and
// persist the fencing epoch, start shipping) runs first, and only then
// do the mutating handlers open. An already-writable server answers
// 409 — promote is not idempotent; the epoch bump fences the old
// primary and must happen exactly once per failover.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		s.writeJSON(w, http.StatusConflict, errorResponse{Error: "already primary"})
		return
	}
	var epoch uint64
	if s.promoteFn != nil {
		e, err := s.promoteFn()
		if err != nil {
			s.writeJSON(w, http.StatusInternalServerError,
				errorResponse{Error: fmt.Sprintf("promote failed: %v", err)})
			return
		}
		epoch = e
	}
	s.readOnly.Store(false)
	s.log.Info("promoted to primary", "epoch", epoch)
	s.writeJSON(w, http.StatusOK, promoteResponse{Epoch: epoch})
}

// SetPromote installs the hook handlePromote runs before the server
// goes writable. It must return the new fencing epoch.
func (s *Server) SetPromote(fn func() (uint64, error)) {
	s.promoteMu.Lock()
	s.promoteFn = fn
	s.promoteMu.Unlock()
}

// ReadOnly reports whether the server is refusing mutations (a
// replication follower awaiting promote).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.Lock()
	draining := s.draining
	s.drainMu.Unlock()
	if draining {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w)
}

// ---- error mapping ----

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do about a dead client
}

func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

func (s *Server) notFound(w http.ResponseWriter) {
	s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such session"})
}

// fail maps service errors to statuses: exhausted per-session budget 429,
// overload or drain 503, evaluation timeout 504, vanished session 404.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrExhausted):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining), errors.Is(err, ErrReadOnly):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		status = http.StatusNotFound
	case timeoutErr(err):
		status = http.StatusGatewayTimeout
	}
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writePoolResult renders a pooled operation's outcome: success writes
// the worker-rendered body verbatim (byte-identical to local serving),
// errors map wire codes onto the same statuses fail uses, with
// Retry-After carrying the pool's backpressure hint.
func (s *Server) writePoolResult(w http.ResponseWriter, okStatus int, res pool.Result) {
	if res.Code == wire.SessOK {
		if len(res.Body) == 0 {
			w.WriteHeader(okStatus)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(okStatus)
		w.Write(res.Body) //nolint:errcheck // nothing to do about a dead client
		return
	}
	if res.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((res.RetryAfterMS+999)/1000)))
	}
	status := http.StatusInternalServerError
	switch res.Code {
	case wire.SessExhausted:
		status = http.StatusTooManyRequests
	case wire.SessSaturated, wire.SessDraining, wire.SessRetry:
		status = http.StatusServiceUnavailable
	case wire.SessNotFound:
		status = http.StatusNotFound
	case wire.SessTimeout:
		status = http.StatusGatewayTimeout
	case wire.SessBad:
		status = http.StatusBadRequest
	}
	s.writeJSON(w, status, errorResponse{Error: res.Err})
}
