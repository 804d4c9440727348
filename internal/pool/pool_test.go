package pool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ---- placement properties ----

// placementPool is a pool with only a worker registry: enough for place.
func placementPool(names ...string) *Pool {
	p := &Pool{workers: make(map[string]*workerState)}
	for _, name := range names {
		p.workers[name] = &workerState{state: StateReady}
	}
	return p
}

// TestLeastLoadedBalanceBound: placing sessions one at a time, feeding
// each placement back into the load picture, least-loaded keeps the
// spread between the fullest and emptiest worker at most one.
func TestLeastLoadedBalanceBound(t *testing.T) {
	p := placementPool("w1", "w2", "w3")
	for i := 0; i < 300; i++ {
		pick, ok := p.place(nil)
		if !ok {
			t.Fatal("no worker placed")
		}
		p.workers[pick].active++
		lo, hi := 1<<30, 0
		for _, w := range p.workers {
			lo, hi = min(lo, w.active), max(hi, w.active)
		}
		if hi-lo > 1 {
			t.Fatalf("after %d placements: spread %d", i+1, hi-lo)
		}
	}
}

// TestLeastLoadedCountsQueue: a worker with a deep queue loses to an
// idle one even when it holds fewer sessions.
func TestLeastLoadedCountsQueue(t *testing.T) {
	p := placementPool("a", "b")
	p.workers["a"].active, p.workers["a"].queued = 1, 10
	p.workers["b"].active = 3
	if got, _ := p.place(nil); got != "b" {
		t.Fatalf("picked %q, want the shallow-queue worker", got)
	}
}

// ---- ship-blob codec ----

func TestShipCodecRoundTrip(t *testing.T) {
	for _, idx := range []uint64{0, 1, 16, 1 << 40} {
		blob := encodeShip(idx, []byte("checkpoint-bytes"))
		gotIdx, gotCp, err := decodeShip(blob)
		if err != nil {
			t.Fatalf("idx %d: %v", idx, err)
		}
		if gotIdx != idx || string(gotCp) != "checkpoint-bytes" {
			t.Fatalf("idx %d: round-tripped to (%d, %q)", idx, gotIdx, gotCp)
		}
	}
	if _, _, err := decodeShip(nil); err == nil {
		t.Fatal("decodeShip(nil) accepted")
	}
}

// ---- worker idempotency over a mesh ----

// fakeBackend counts evaluations so the dedup tests can prove a re-sent
// duplicate never re-evaluates.
type fakeBackend struct {
	mu      sync.Mutex
	creates int
	appends map[string]int
	live    map[string]bool
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{appends: make(map[string]int), live: make(map[string]bool)}
}

func (b *fakeBackend) Create(id, netText, engine string, maxFacts int) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.creates++
	b.live[id] = true
	return []byte(fmt.Sprintf("created:%s", id)), nil
}

func (b *fakeBackend) Append(id, alarms string, timeout time.Duration) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.appends[id]++
	return []byte(fmt.Sprintf("append:%d", b.appends[id])), nil
}

func (b *fakeBackend) Get(id string) ([]byte, error)           { return []byte("state"), nil }
func (b *fakeBackend) Delete(id string) error                  { return nil }
func (b *fakeBackend) Ship(id string) ([]byte, error)          { return []byte("cp"), nil }
func (b *fakeBackend) Load(id string, checkpoint []byte) error { return nil }
func (b *fakeBackend) Classify(error) (uint32, uint32)         { return wire.SessInternal, 0 }
func (b *fakeBackend) Active() int                             { b.mu.Lock(); defer b.mu.Unlock(); return len(b.live) }
func (b *fakeBackend) appendEvals(id string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.appends[id]
}

// TestWorkerAppendDedup drives a worker directly with SessionJob frames
// and checks the idempotency contract re-sends depend on:
// duplicate indexes return the memoized reply without re-evaluating,
// gaps are refused with SessOutOfSync.
func TestWorkerAppendDedup(t *testing.T) {
	mesh := transport.NewMesh()
	backend := newFakeBackend()
	w := NewWorker(WorkerConfig{Transport: mesh.Node("w1"), Backend: backend})
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	t.Cleanup(func() { mesh.Node("w1").Close() }) //nolint:errcheck

	replies := make(chan wire.SessionReply, 16)
	fe := mesh.Node("fe")
	if err := fe.Start(func(from string, f wire.Frame) {
		if rep, ok := f.(wire.SessionReply); ok {
			replies <- rep
		}
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() }) //nolint:errcheck

	var req uint64
	roundTrip := func(job wire.SessionJob) wire.SessionReply {
		t.Helper()
		req++
		job.Req, job.Frontend, job.FrontendAddr = req, "fe", "fe"
		if err := fe.Send("w1", job); err != nil {
			t.Fatal(err)
		}
		select {
		case rep := <-replies:
			if rep.Req != req {
				t.Fatalf("reply for req %d, want %d", rep.Req, req)
			}
			return rep
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to op %d", job.Op)
			return wire.SessionReply{}
		}
	}

	if rep := roundTrip(wire.SessionJob{Op: wire.SessCreate, Session: "s1"}); rep.Code != wire.SessOK {
		t.Fatalf("create: code %d err %q", rep.Code, rep.Err)
	}
	// A retried create resends the first reply instead of re-admitting.
	rep := roundTrip(wire.SessionJob{Op: wire.SessCreate, Session: "s1"})
	if rep.Code != wire.SessOK || string(rep.Blob) != "created:s1" {
		t.Fatalf("retried create: code %d blob %q", rep.Code, rep.Blob)
	}
	if backend.creates != 1 {
		t.Fatalf("backend created %d times, want 1", backend.creates)
	}

	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 1}); string(rep.Blob) != "append:1" {
		t.Fatalf("append 1: %q", rep.Blob)
	}
	// Duplicate of index 1 (a re-send): memoized, not re-evaluated.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 1}); string(rep.Blob) != "append:1" {
		t.Fatalf("duplicate append: %q", rep.Blob)
	}
	if n := backend.appendEvals("s1"); n != 1 {
		t.Fatalf("backend evaluated %d appends, want 1", n)
	}
	// An index gap means the frontend and worker diverged.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 3}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("gap append: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s1", Index: 2}); string(rep.Blob) != "append:2" {
		t.Fatalf("append 2: %q", rep.Blob)
	}
	// Appends to a session the worker never admitted are NotFound — the
	// frontend's cue to re-materialize.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "ghost", Index: 1}); rep.Code != wire.SessNotFound {
		t.Fatalf("ghost append: code %d, want SessNotFound", rep.Code)
	}
	// A load installs the shipped applied-index so dedup resumes there.
	if rep := roundTrip(wire.SessionJob{Op: wire.SessLoad, Session: "s2", Blob: encodeShip(7, []byte("cp"))}); rep.Code != wire.SessOK {
		t.Fatalf("load: code %d err %q", rep.Code, rep.Err)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 9}); rep.Code != wire.SessOutOfSync {
		t.Fatalf("post-load gap: code %d, want SessOutOfSync", rep.Code)
	}
	if rep := roundTrip(wire.SessionJob{Op: wire.SessAppend, Session: "s2", Index: 8}); rep.Code != wire.SessOK {
		t.Fatalf("post-load append: code %d", rep.Code)
	}
}
