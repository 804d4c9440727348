package ddatalog

import (
	"sync"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/rel"
	"repro/internal/term"
	"repro/internal/wire"
)

// This file adds dynamic rule installation to the engine: rules may arrive
// while the network is running, either from an activation hook (a peer
// extending its own program lazily) or as wire.Install messages from
// another peer. It is the substrate for online dQSQ (the paper's Remark 2:
// "the dQSQ computation, and the generation of results, may start even
// before the rewriting is complete").

// ActivationHook is consulted the first time a relation is activated at a
// peer. It returns rules to add to the running program; rules hosted at
// the activating peer are installed immediately, rules hosted elsewhere
// are shipped as wire.Install messages. The returned rules must be built
// over the engine's program store. Hooks run on peer goroutines and must
// be safe for concurrent use.
type ActivationHook func(peer dist.PeerID, relName rel.Name) []PRule

// SetActivationHook installs the hook. Must be called before Run.
func (e *Engine) SetActivationHook(h ActivationHook) {
	e.hook = h
}

// hookStore serializes access to the shared program store during hook
// execution: hooks (the online rewriters) intern new terms into the
// program store, which is not safe for concurrent mutation.
var hookMu sync.Mutex

// runHook invokes the engine hook once per (peer, relation), routing the
// returned rules: local ones are installed now, remote ones shipped.
func (ps *peerState) runHook(ctx *dist.Context, relName rel.Name) {
	if ps.eng.hook == nil {
		return
	}
	key := Qualify(relName, ps.id)
	if ps.hooked[key] {
		return
	}
	ps.hooked[key] = true

	hookMu.Lock()
	rules := ps.eng.hook(ps.id, relName)
	var local []PRule
	var remote []wire.Install
	src := ps.eng.prog.Store
	for _, r := range rules {
		if r.Head.Peer == ps.id {
			local = append(local, reintern(src, ps.store, r))
		} else {
			remote = append(remote, wire.Install{Rule: externRule(src, r)})
		}
	}
	hookMu.Unlock()

	for _, r := range local {
		ps.installRule(ctx, r)
	}
	for _, m := range remote {
		ctx.Send(dist.PeerID(m.Rule.Head.Peer), m)
	}
}

// externRule encodes a rule for the wire.
func externRule(s *term.Store, r PRule) wire.Rule {
	conv := func(a PAtom) wire.Atom {
		return wire.Atom{Rel: a.Rel, Peer: string(a.Peer), Args: s.ExternalizeTuple(a.Args)}
	}
	out := wire.Rule{Head: conv(r.Head)}
	for _, a := range r.Body {
		out.Body = append(out.Body, conv(a))
	}
	xs := make([]term.ID, len(r.Neqs))
	ys := make([]term.ID, len(r.Neqs))
	for i, n := range r.Neqs {
		xs[i], ys[i] = n.X, n.Y
	}
	out.NeqX = s.ExternalizeTuple(xs)
	out.NeqY = s.ExternalizeTuple(ys)
	return out
}

// internRule decodes a wire rule into the peer's private store.
func (ps *peerState) internRule(w wire.Rule) PRule {
	conv := func(a wire.Atom) PAtom {
		return PAtom{Rel: a.Rel, Peer: dist.PeerID(a.Peer), Args: ps.store.InternalizeTuple(a.Args)}
	}
	out := PRule{Head: conv(w.Head)}
	for _, a := range w.Body {
		out.Body = append(out.Body, conv(a))
	}
	xs := ps.store.InternalizeTuple(w.NeqX)
	ys := ps.store.InternalizeTuple(w.NeqY)
	for i := range xs {
		out.Neqs = append(out.Neqs, datalog.Neq{X: xs[i], Y: ys[i]})
	}
	return out
}

// installRule registers a rule that arrived at runtime. If the head's
// relation is already active, the rule's body relations are activated and
// the rule evaluated over current data; otherwise activation will pick it
// up when the relation is requested.
func (ps *peerState) installRule(ctx *dist.Context, r PRule) {
	ps.installed++
	if ps.eng.traceOn {
		ps.eng.tracer.Instant(string(ps.id), "install "+string(r.Head.Qualified()))
	}
	ri := ps.addRule(r)
	if ps.active[ps.crules[ri].headQ] {
		for _, a := range r.Body {
			ps.activateBody(ctx, a)
		}
		ps.evalRule(ctx, ri, -1, nil)
	}
}
