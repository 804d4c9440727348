package serve

// The session service behind both local and pooled serving. PoolBackend
// adapts a session Store to pool.Backend, so a peerd process can execute
// the session operations a diagnosed frontend ships to it; the local
// append and get handlers run the same methods over the server's own
// store. Every method returns the JSON body the HTTP response carries,
// and every error goes through one table (classify, httpStatus) — that
// is what makes a pooled session's responses byte-identical to a local
// one's.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/snapshot"
	"repro/internal/wire"
)

// ErrBadInput marks client-caused failures (SessBad, 400). Errors that
// wrap it keep their own message, so the body reads as it would have
// without the mark.
var ErrBadInput = errors.New("bad request")

type badInputError struct{ error }

func (badInputError) Is(target error) bool { return target == ErrBadInput }

// badInput marks err as the client's fault.
func badInput(err error) error { return badInputError{err} }

// PoolBackend executes session operations against a Store.
type PoolBackend struct {
	store   *Store
	metrics *Metrics
	persist *persister // write-behind snapshots; nil on pool workers
}

// NewPoolBackend wraps the store. metrics may be nil.
func NewPoolBackend(store *Store, metrics *Metrics) *PoolBackend {
	return &PoolBackend{store: store, metrics: metrics}
}

// encodeBody marshals exactly like Server.writeJSON (two-space indent,
// trailing newline), so worker-rendered bodies are byte-identical to
// locally rendered ones.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // in-memory encode of plain structs
	return buf.Bytes()
}

// Create implements pool.Backend: admit a session under the
// frontend-assigned ID. Admission reuses Adopt's budget semantics — a
// full table or spent global budget refuses with ErrOverloaded, which
// the pool classifies as SessSaturated and places elsewhere.
func (b *PoolBackend) Create(id, netText, engineName string, maxFacts int) ([]byte, error) {
	if netText == "" {
		return nil, badInput(errors.New("missing net"))
	}
	engine, err := ParseEngine(engineName)
	if err != nil {
		return nil, badInput(err)
	}
	sys, err := core.LoadNet(netText)
	if err != nil {
		return nil, badInput(err)
	}
	facts := maxFacts
	if facts <= 0 {
		facts = b.store.cfg.SessionFacts
	}
	sess, err := newSession(id, sys, engine, facts, time.Now(), b.metrics)
	if err != nil {
		return nil, badInput(err)
	}
	if err := b.store.Adopt(sess); err != nil {
		return nil, err
	}
	if b.metrics != nil {
		b.metrics.Add("diagnosed_sessions_created_total", 1)
	}
	peers := []string{}
	for _, p := range sys.Peers() {
		peers = append(peers, string(p))
	}
	return encodeBody(createResponse{
		ID: id, Engine: EngineName(engine), Peers: peers, MaxFacts: facts,
	}), nil
}

// Append implements pool.Backend: parse, validate and evaluate the
// alarms, returning the append-response body.
func (b *PoolBackend) Append(id, alarms string, timeout time.Duration) ([]byte, error) {
	sess, ok := b.store.Get(id, time.Now())
	if !ok {
		return nil, ErrNotFound
	}
	return b.appendTo(sess, alarms, timeout)
}

// appendTo is Append on a session already looked up.
func (b *PoolBackend) appendTo(sess *Session, alarms string, timeout time.Duration) ([]byte, error) {
	seq, err := core.ParseAlarms(alarms)
	if err != nil {
		return nil, badInput(err)
	}
	if len(seq) == 0 {
		return nil, badInput(errors.New("no alarms in request"))
	}
	for _, o := range seq {
		if !sess.HasPeer(string(o.Peer)) {
			return nil, badInput(fmt.Errorf("alarm from unknown peer %q", o.Peer))
		}
	}
	start := time.Now()
	res, err := sess.Append(seq, timeout)
	if b.metrics != nil {
		b.metrics.Observe("diagnosed_append_seconds", time.Since(start))
	}
	if b.persist != nil {
		// Write-behind on success AND failure: an append that poisoned the
		// session must persist the poisoning, or a restart would resurrect
		// a session whose warm state is not trustworthy as healthy.
		b.persist.markDirty(sess)
	}
	if err != nil {
		if b.metrics != nil {
			b.metrics.Add("diagnosed_append_errors_total", 1)
		}
		return nil, err
	}
	if b.metrics != nil {
		b.metrics.Add("diagnosed_alarms_total", int64(len(seq)))
		b.metrics.Add("diagnosed_appends_total", 1)
		b.metrics.Add("diagnosed_facts_materialized_total", int64(res.DerivedDelta))
		b.metrics.Add("diagnosed_messages_total", int64(res.MessagesDelta))
	}
	return encodeBody(newAppendResponse(res)), nil
}

// Get implements pool.Backend: the session-state body.
func (b *PoolBackend) Get(id string) ([]byte, error) {
	sess, ok := b.store.Get(id, time.Now())
	if !ok {
		return nil, ErrNotFound
	}
	st, err := sess.Snapshot()
	if err != nil {
		return nil, err
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
	return encodeBody(resp), nil
}

// Delete implements pool.Backend.
func (b *PoolBackend) Delete(id string) error {
	if !b.store.Delete(id) {
		return ErrNotFound
	}
	if b.metrics != nil {
		b.metrics.Add("diagnosed_sessions_deleted_total", 1)
	}
	return nil
}

// Ship implements pool.Backend: the session's checkpoint bytes, the
// same container the write-behind persister puts on disk.
func (b *PoolBackend) Ship(id string) ([]byte, error) {
	sess, ok := b.store.Get(id, time.Now())
	if !ok {
		return nil, ErrNotFound
	}
	f := snapshot.New()
	if _, err := sess.EncodeSnapshot(f); err != nil {
		return nil, err
	}
	return f.Bytes(), nil
}

// Load implements pool.Backend: install a shipped checkpoint, replacing
// any copy already live under the ID (a failover flap may have left a
// stale one).
func (b *PoolBackend) Load(id string, checkpoint []byte) error {
	o, err := snapshot.Open(checkpoint)
	if err != nil {
		return badInput(err)
	}
	sess, err := decodeSession(o, b.metrics)
	if err != nil {
		return badInput(err)
	}
	if sess.ID != id {
		return badInput(fmt.Errorf("checkpoint is for session %s, not %s", sess.ID, id))
	}
	b.store.Delete(id)
	if err := b.store.Adopt(sess); err != nil {
		return err
	}
	if b.metrics != nil {
		b.metrics.Add("snapshot_restore_total", 1)
	}
	return nil
}

// Classify implements pool.Backend.
func (b *PoolBackend) Classify(err error) (code uint32, retryAfterMS uint32) { return classify(err) }

// classify maps a service error onto a wire code and a Retry-After hint
// in milliseconds. With httpStatus it is the one error table of local
// and pooled serving: an error answers the same status either way.
func classify(err error) (code uint32, retryAfterMS uint32) {
	switch {
	case errors.Is(err, ErrBadInput):
		return wire.SessBad, 0
	case errors.Is(err, ErrExhausted):
		return wire.SessExhausted, 0
	case errors.Is(err, ErrOverloaded):
		return wire.SessSaturated, 1000
	case errors.Is(err, ErrDraining):
		return wire.SessDraining, 1000
	case errors.Is(err, ErrReadOnly):
		return wire.SessDraining, 0
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrClosed):
		return wire.SessNotFound, 0
	case timeoutErr(err):
		return wire.SessTimeout, 0
	default:
		return wire.SessInternal, 0
	}
}

// httpStatus maps a wire code onto the HTTP status it answers with.
func httpStatus(code uint32) int {
	switch code {
	case wire.SessBad:
		return http.StatusBadRequest
	case wire.SessExhausted:
		return http.StatusTooManyRequests
	case wire.SessSaturated, wire.SessDraining:
		return http.StatusServiceUnavailable
	case wire.SessNotFound:
		return http.StatusNotFound
	case wire.SessTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// Active implements pool.Backend.
func (b *PoolBackend) Active() int { return b.store.Len() }
