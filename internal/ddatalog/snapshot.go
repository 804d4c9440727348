package ddatalog

import (
	"errors"
	"sort"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/snapshot"
	"repro/internal/term"
)

// This file serializes engine state for the checkpoint/restore subsystem
// (internal/snapshot). The encoding preserves everything the evaluation's
// determinism depends on: per-peer term stores are replayed cell-by-cell
// so interned IDs survive verbatim, relations keep their insertion order,
// rules keep their installation order (the per-rule structures are rebuilt
// by replaying them through addRule, exactly as construction and
// installRule built them), and the subscriber lists keep their
// registration order so fact fan-out after a restore sends the same
// messages in the same order as an uninterrupted run. Transient state
// (variable bindings, the per-run trace mirrors, the probe counter) is
// deliberately dropped and rebuilt fresh.

// ErrNotQuiescent is returned when a snapshot is requested from an engine
// whose budget has tripped — such state is not worth restoring.
var ErrNotQuiescent = errors.New("ddatalog: cannot snapshot an aborted engine")

// EncodePAtomSnapshot writes a located atom whose args are interned in
// the store the surrounding snapshot serializes.
func EncodePAtomSnapshot(w *snapshot.Writer, a PAtom) {
	w.String(string(a.Rel))
	w.String(string(a.Peer))
	w.Uvarint(uint64(len(a.Args)))
	for _, t := range a.Args {
		w.Uvarint(uint64(t))
	}
}

// DecodePAtomSnapshot reads an atom, validating every term ID against
// storeLen.
func DecodePAtomSnapshot(r *snapshot.Reader, storeLen int) PAtom {
	a := PAtom{Rel: rel.Name(r.String()), Peer: dist.PeerID(r.String())}
	n := r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Uvarint()
		if id >= uint64(storeLen) {
			r.Failf("atom arg %d outside store of %d terms", id, storeLen)
			return a
		}
		a.Args = append(a.Args, term.ID(id))
	}
	return a
}

// EncodePRuleSnapshot writes a located rule.
func EncodePRuleSnapshot(w *snapshot.Writer, ru PRule) {
	EncodePAtomSnapshot(w, ru.Head)
	w.Uvarint(uint64(len(ru.Body)))
	for _, a := range ru.Body {
		EncodePAtomSnapshot(w, a)
	}
	w.Uvarint(uint64(len(ru.Neqs)))
	for _, n := range ru.Neqs {
		w.Uvarint(uint64(n.X))
		w.Uvarint(uint64(n.Y))
	}
}

// DecodePRuleSnapshot reads a rule, validating IDs against storeLen.
func DecodePRuleSnapshot(r *snapshot.Reader, storeLen int) PRule {
	ru := PRule{Head: DecodePAtomSnapshot(r, storeLen)}
	n := r.Count(3)
	for i := 0; i < n && r.Err() == nil; i++ {
		ru.Body = append(ru.Body, DecodePAtomSnapshot(r, storeLen))
	}
	n = r.Count(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		x, y := r.Uvarint(), r.Uvarint()
		if x >= uint64(storeLen) || y >= uint64(storeLen) {
			r.Failf("neq term outside store of %d terms", storeLen)
			return ru
		}
		ru.Neqs = append(ru.Neqs, datalog.Neq{X: term.ID(x), Y: term.ID(y)})
	}
	return ru
}

// EncodeSnapshot writes the program's rules, facts and declared peers.
// The term store they refer into is serialized separately by the caller —
// programs share stores with sessions.
func (p *Program) EncodeSnapshot(w *snapshot.Writer) {
	w.Uvarint(uint64(len(p.Rules)))
	for _, ru := range p.Rules {
		EncodePRuleSnapshot(w, ru)
	}
	w.Uvarint(uint64(len(p.Facts)))
	for _, f := range p.Facts {
		EncodePAtomSnapshot(w, f)
	}
	w.Uvarint(uint64(len(p.declared)))
	for _, id := range p.declared {
		w.String(string(id))
	}
}

// DecodeProgramSnapshot rebuilds a program over store.
func DecodeProgramSnapshot(r *snapshot.Reader, store *term.Store) (*Program, error) {
	p := NewProgram(store)
	n := r.Count(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.Rules = append(p.Rules, DecodePRuleSnapshot(r, store.Len()))
	}
	n = r.Count(3)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := DecodePAtomSnapshot(r, store.Len())
		for _, t := range f.Args {
			if r.Err() == nil && !store.IsGround(t) {
				r.Failf("non-ground fact %s", string(f.Rel))
			}
		}
		p.Facts = append(p.Facts, f)
	}
	n = r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		p.declared = append(p.declared, dist.PeerID(r.String()))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return p, nil
}

func sortedNames(m map[rel.Name]bool) []rel.Name {
	out := make([]rel.Name, 0, len(m))
	for n, v := range m {
		if v {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EncodeSnapshot writes the engine's warm state into w: budget, counters,
// the collector, and every hosted peer's store, relations, rules and
// protocol maps. Queued-but-unprocessed deltas (pending) are included so
// a checkpoint between handler turns loses nothing. It refuses to encode
// an engine whose budget has tripped.
func (e *Engine) EncodeSnapshot(w *snapshot.Writer) error {
	if e.aborted.Load() {
		return ErrNotQuiescent
	}
	w.Uvarint(uint64(e.budget.MaxFacts))
	w.Uvarint(uint64(e.budget.MaxIters))
	w.Uvarint(uint64(e.budget.MaxTermDepth))
	w.Int(e.derived.Load())
	w.Uvarint(uint64(e.lastDerived))
	w.Uvarint(uint64(e.lastReplicated))
	w.Uvarint(uint64(e.lastInstalled))

	// All program peers, hosted here or not, in program order (the order
	// only matters for reconstruction determinism, so sort it).
	progPeers := make([]string, 0, len(e.progPeers))
	for id := range e.progPeers {
		progPeers = append(progPeers, string(id))
	}
	sort.Strings(progPeers)
	w.Uvarint(uint64(len(progPeers)))
	for _, id := range progPeers {
		w.String(id)
	}

	e.colStore.EncodeSnapshot(w)
	e.colDB.EncodeSnapshot(w)

	w.Uvarint(uint64(len(e.order)))
	for _, id := range e.order {
		ps := e.peers[id]
		w.String(string(id))
		ps.store.EncodeSnapshot(w)
		ps.db.EncodeSnapshot(w)
		w.Uvarint(uint64(len(ps.rules)))
		for _, ru := range ps.rules {
			EncodePRuleSnapshot(w, ru)
		}
		for _, set := range []map[rel.Name]bool{ps.active, ps.requested, ps.hooked} {
			names := sortedNames(set)
			w.Uvarint(uint64(len(names)))
			for _, n := range names {
				w.String(string(n))
			}
		}
		subNames := make([]rel.Name, 0, len(ps.subs))
		for n := range ps.subs {
			subNames = append(subNames, n)
		}
		sort.Slice(subNames, func(i, j int) bool { return subNames[i] < subNames[j] })
		w.Uvarint(uint64(len(subNames)))
		for _, n := range subNames {
			w.String(string(n))
			w.Uvarint(uint64(len(ps.subs[n])))
			for _, s := range ps.subs[n] { // registration order matters
				w.String(string(s))
			}
		}
		arNames := make([]rel.Name, 0, len(ps.arity))
		for n := range ps.arity {
			arNames = append(arNames, n)
		}
		sort.Slice(arNames, func(i, j int) bool { return arNames[i] < arNames[j] })
		w.Uvarint(uint64(len(arNames)))
		for _, n := range arNames {
			w.String(string(n))
			w.Uvarint(uint64(ps.arity[n]))
		}
		w.Uvarint(uint64(len(ps.pending)))
		for _, pf := range ps.pending {
			w.String(string(pf.q))
			w.Uvarint(uint64(len(pf.args)))
			for _, t := range pf.args {
				w.Uvarint(uint64(t))
			}
		}
		w.Uvarint(uint64(ps.derived))
		w.Uvarint(uint64(ps.replicated))
		w.Uvarint(uint64(ps.installed))
	}
	return nil
}

// DecodeEngineSnapshot rebuilds an engine from r. The restored engine has
// no tracer, hook or net factory installed — callers re-attach those, as
// they did after NewEngine. The program reference it evaluates against is
// a shell over store (only the store and the peer set survive; the
// original rule list lives on in the per-peer re-interned copies).
func DecodeEngineSnapshot(r *snapshot.Reader, store *term.Store) (*Engine, error) {
	e := &Engine{
		peers:     make(map[dist.PeerID]*peerState),
		progPeers: make(map[dist.PeerID]bool),
		tracer:    obs.Nop,
		lastByRel: make(map[rel.Name]int),
	}
	e.budget.MaxFacts = int(r.Uvarint())
	e.budget.MaxIters = int(r.Uvarint())
	e.budget.MaxTermDepth = int(r.Uvarint())
	e.derived.Store(r.Int())
	e.lastDerived = int(r.Uvarint())
	e.lastReplicated = int(r.Uvarint())
	e.lastInstalled = int(r.Uvarint())

	prog := NewProgram(store)
	n := r.Count(1)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := dist.PeerID(r.String())
		if e.progPeers[id] {
			r.Failf("duplicate program peer %q", id)
			break
		}
		e.progPeers[id] = true
		prog.AddPeer(id)
	}
	e.prog = prog

	var err error
	if e.colStore, err = term.DecodeStoreSnapshot(r); err != nil {
		return nil, err
	}
	if e.colDB, err = rel.DecodeDBSnapshot(r, e.colStore); err != nil {
		return nil, err
	}

	nPeers := r.Count(2)
	for i := 0; i < nPeers && r.Err() == nil; i++ {
		id := dist.PeerID(r.String())
		if r.Err() != nil {
			break
		}
		if _, dup := e.peers[id]; dup {
			r.Failf("duplicate hosted peer %q", id)
			break
		}
		ps := &peerState{
			eng:       e,
			id:        id,
			active:    make(map[rel.Name]bool),
			requested: make(map[rel.Name]bool),
			subs:      make(map[rel.Name][]dist.PeerID),
			bodyIdx:   make(map[rel.Name][]ruleAt),
			arity:     make(map[rel.Name]int),
			hooked:    make(map[rel.Name]bool),
			derivedBy: make(map[rel.Name]int),
		}
		if ps.store, err = term.DecodeStoreSnapshot(r); err != nil {
			return nil, err
		}
		if ps.db, err = rel.DecodeDBSnapshot(r, ps.store); err != nil {
			return nil, err
		}
		ps.bnd = term.NewBindings(ps.store)
		nRules := r.Count(3)
		rules := make([]PRule, 0, nRules)
		for j := 0; j < nRules && r.Err() == nil; j++ {
			rules = append(rules, DecodePRuleSnapshot(r, ps.store.Len()))
		}
		for _, set := range []map[rel.Name]bool{ps.active, ps.requested, ps.hooked} {
			m := r.Count(1)
			for j := 0; j < m && r.Err() == nil; j++ {
				set[rel.Name(r.String())] = true
			}
		}
		nSubs := r.Count(2)
		for j := 0; j < nSubs && r.Err() == nil; j++ {
			name := rel.Name(r.String())
			m := r.Count(1)
			for k := 0; k < m && r.Err() == nil; k++ {
				ps.subs[name] = append(ps.subs[name], dist.PeerID(r.String()))
			}
		}
		nAr := r.Count(2)
		for j := 0; j < nAr && r.Err() == nil; j++ {
			name := rel.Name(r.String())
			ar := r.Uvarint()
			if r.Err() == nil && ar >= 64 {
				r.Failf("arity %d for %s", ar, name)
				break
			}
			ps.arity[name] = int(ar)
		}
		nPend := r.Count(2)
		for j := 0; j < nPend && r.Err() == nil; j++ {
			pf := pendingFact{q: rel.Name(r.String())}
			m := r.Count(1)
			for k := 0; k < m && r.Err() == nil; k++ {
				id := r.Uvarint()
				if id >= uint64(ps.store.Len()) {
					r.Failf("pending fact term outside store")
					break
				}
				pf.args = append(pf.args, term.ID(id))
			}
			ps.pending = append(ps.pending, pf)
		}
		ps.derived = int(r.Uvarint())
		ps.replicated = int(r.Uvarint())
		ps.installed = int(r.Uvarint())
		if r.Err() != nil {
			break
		}

		// Rebuild the per-rule structures by replaying the rules in order
		// through addRule, as construction and installRule did. Arities
		// are cross-checked first: addRule's noteArity panics on an
		// inconsistency, and corrupt input must error instead.
		for _, ru := range rules {
			bad := ps.checkArity(r, ru.Head.Qualified(), len(ru.Head.Args))
			for _, a := range ru.Body {
				bad = bad || ps.checkArity(r, a.Qualified(), len(a.Args))
			}
			if bad {
				break
			}
			ps.addRule(ru)
		}
		for _, name := range ps.db.Names() {
			if want, ok := ps.arity[name]; ok && ps.db.Lookup(name).Arity() != want {
				r.Failf("relation %s stored with arity %d, declared %d", name, ps.db.Lookup(name).Arity(), want)
			}
		}
		for _, pf := range ps.pending {
			if want, ok := ps.arity[pf.q]; ok && len(pf.args) != want {
				r.Failf("pending fact arity mismatch for %s", pf.q)
			}
		}
		if r.Err() != nil {
			break
		}
		e.peers[id] = ps
		e.order = append(e.order, id)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return e, nil
}

// checkArity validates one atom's arity against the restored arity map,
// reporting corruption through the reader instead of panicking.
func (ps *peerState) checkArity(r *snapshot.Reader, q rel.Name, n int) bool {
	if want, ok := ps.arity[q]; !ok || want != n {
		r.Failf("rule uses %s with arity %d, snapshot declares %v", q, n, ps.arity[q])
		return true
	}
	return false
}
