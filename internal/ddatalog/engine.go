package ddatalog

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/datalog"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/term"
	"repro/internal/wire"
)

// The messages exchanged by the naive distributed evaluation (Section
// 3.2) are the wire package's payload types — wire.Activate (a peer
// activates a remote relation and thereby subscribes to its tuple
// stream), wire.Facts (the owner streams every current and future tuple
// back), wire.Inject (an incremental base-fact append), and wire.Install
// (runtime rule installation) — so the same evaluation runs unchanged
// whether its peers share a process or are spread across peerd nodes.

// Stats summarizes a distributed run.
type Stats struct {
	Net        dist.Stats
	Derived    int // tuples materialized at their owner peer
	Replicated int // remote tuples copied into subscriber replicas
	Truncated  bool
	Reason     string
}

// Engine evaluates a distributed program naively. Create with NewEngine,
// evaluate with Run, then inspect per-peer databases with PeerDB.
//
// An engine is re-entrant: Run (and RunDelta, which also injects new
// facts and rules) may be called repeatedly, each call evaluating on a
// fresh network while keeping every peer's materialized state warm. This
// is the substrate for incremental diagnosis sessions: round k+1 only
// derives what round k did not already materialize. Calls must not
// overlap; after a run fails (budget, timeout), the warm state is safe to
// read but further runs are best-effort.
type Engine struct {
	prog      *Program
	budget    datalog.Budget
	peers     map[dist.PeerID]*peerState
	order     []dist.PeerID
	progPeers map[dist.PeerID]bool // all program peers, hosted here or not
	// netFactory builds the per-round network; nil means dist.NewNetwork
	// (single process). A cluster driver installs its round constructor.
	netFactory func() dist.Net
	workers    int          // worker-pool width for default networks; 0 = GOMAXPROCS
	derived    atomic.Int64 // global fact counter for the budget
	aborted    atomic.Bool  // set when the budget trips; stops in-handler work
	hook       ActivationHook
	stats      Stats
	tracer     obs.Tracer // never nil; obs.Nop by default
	traceOn    bool       // tracer.Enabled() snapshot, set per run
	// Cumulative figures after the previous run, so each RunDelta can
	// emit the run's own delta as counter events.
	lastDerived    int
	lastReplicated int
	lastInstalled  int
	lastByRel      map[rel.Name]int
	// The collector persists across runs so that answers accumulated in
	// earlier rounds remain extractable in later ones.
	colStore *term.Store
	colDB    *rel.DB
}

// peerState is the private state of one peer; only its own goroutine
// touches it after Run starts.
type peerState struct {
	eng        *Engine
	id         dist.PeerID
	store      *term.Store
	db         *rel.DB
	bnd        *term.Bindings
	rules      []PRule           // hosted rules, re-interned into store
	crules     []crule           // compiled forms, parallel to rules
	active     map[rel.Name]bool // qualified local relations activated
	requested  map[rel.Name]bool // qualified remote relations already activated
	subs       map[rel.Name][]dist.PeerID
	bodyIdx    map[rel.Name][]ruleAt // qualified relation -> occurrences in hosted rule bodies
	arity      map[rel.Name]int      // qualified relation -> arity
	hooked     map[rel.Name]bool     // relations whose activation hook already ran
	pending    []pendingFact         // derived facts awaiting their delta joins
	derived    int
	replicated int
	installed  int              // rules installed at runtime (hook or wire.Install)
	probes     int              // tuples handed to the join callback; not snapshotted
	derivedBy  map[rel.Name]int // facts per head relation; tracked only while tracing
	// Join scratch, reused across every evaluation at this peer: one
	// key/resolved pair per join step (joinFrom at step k owns entry k;
	// deeper recursion uses higher entries) and one head-argument buffer
	// (emit is not re-entrant — derivations queue in pending instead of
	// recursing). Keeping these on the peer makes a delta join allocate
	// nothing per probed tuple.
	keybuf  [][]term.ID
	resbuf  [][]term.ID
	headbuf []term.ID
}

// crule caches the derived, hot parts of a rule so the join inner loop
// never rebuilds a qualified name ("rel@peer" concatenation) or re-hashes a
// relation name: the qualified head and body names are computed once at
// install time, and the relation pointers are filled lazily on first use
// (DB.Rel never replaces a relation, so a cached pointer stays valid).
type crule struct {
	headQ   rel.Name
	headRel *rel.Relation
	body    []catom
}

type catom struct {
	q rel.Name
	r *rel.Relation
}

// compileRule precomputes a rule's qualified relation names.
func compileRule(r PRule) crule {
	cr := crule{headQ: r.Head.Qualified(), body: make([]catom, len(r.Body))}
	for i, a := range r.Body {
		cr.body[i] = catom{q: a.Qualified()}
	}
	return cr
}

// scratch returns entry j of a per-depth buffer list, sized to n IDs.
func scratch(bufs *[][]term.ID, j, n int) []term.ID {
	for len(*bufs) <= j {
		*bufs = append(*bufs, nil)
	}
	b := (*bufs)[j]
	if cap(b) < n {
		b = make([]term.ID, n)
		(*bufs)[j] = b
	}
	return b[:n]
}

// pendingFact is a newly materialized fact whose delta joins have not run
// yet. Derivations are queued rather than evaluated recursively so that a
// rule never re-enters the join machinery (and its variable bindings)
// while a previous instantiation is still on the stack.
type pendingFact struct {
	q    rel.Name
	args []term.ID
}

type ruleAt struct {
	rule int // index into peerState.rules
	atom int // body position
}

// NewEngine prepares a naive distributed evaluation of prog under budget,
// hosting every peer of the program.
func NewEngine(prog *Program, budget datalog.Budget) (*Engine, error) {
	return NewEngineHosted(prog, budget, nil)
}

// NewEngineHosted prepares an evaluation that hosts only the given subset
// of the program's peers — one member node of a multi-process cluster.
// Every node of the cluster builds the engine from the identical program
// (the program construction is deterministic, so shipping the system
// description and rebuilding locally yields the same rules everywhere)
// and hosts a disjoint subset; messages between peers on different nodes
// travel through the cluster's routed network. nil hosted means all
// peers. In a cluster the fact budget is enforced per node: each node
// aborts when its own share of materialized facts exceeds MaxFacts, and
// the abort propagates cluster-wide through the coordinator.
func NewEngineHosted(prog *Program, budget datalog.Budget, hosted []dist.PeerID) (*Engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if budget.MaxFacts == 0 {
		budget.MaxFacts = datalog.DefaultBudget.MaxFacts
	}
	e := &Engine{
		prog:      prog,
		budget:    budget,
		peers:     make(map[dist.PeerID]*peerState),
		progPeers: make(map[dist.PeerID]bool),
		tracer:    obs.Nop,
		lastByRel: make(map[rel.Name]int),
	}
	e.colStore = term.NewStore()
	e.colDB = rel.NewDB(e.colStore)
	hostHere := func(id dist.PeerID) bool { return true }
	if hosted != nil {
		set := make(map[dist.PeerID]bool, len(hosted))
		for _, id := range hosted {
			set[id] = true
		}
		hostHere = func(id dist.PeerID) bool { return set[id] }
	}
	for _, id := range prog.Peers() {
		e.progPeers[id] = true
		if !hostHere(id) {
			continue
		}
		ps := &peerState{
			eng:       e,
			id:        id,
			store:     term.NewStore(),
			active:    make(map[rel.Name]bool),
			requested: make(map[rel.Name]bool),
			subs:      make(map[rel.Name][]dist.PeerID),
			bodyIdx:   make(map[rel.Name][]ruleAt),
			arity:     make(map[rel.Name]int),
			hooked:    make(map[rel.Name]bool),
			derivedBy: make(map[rel.Name]int),
		}
		ps.db = rel.NewDB(ps.store)
		ps.bnd = term.NewBindings(ps.store)
		e.peers[id] = ps
		e.order = append(e.order, id)
	}

	// Ship rules and facts to their hosts, re-interning terms into each
	// peer's private store (the wire conversion the real system would do).
	// Rules and facts of peers hosted elsewhere are simply skipped: their
	// node does the same and keeps its own share.
	src := prog.Store
	for _, r := range prog.Rules {
		ps := e.peers[r.Head.Peer]
		if ps == nil {
			continue
		}
		ps.addRule(reintern(src, ps.store, r))
	}
	for _, f := range prog.Facts {
		ps := e.peers[f.Peer]
		if ps == nil {
			continue
		}
		args := ps.store.InternalizeTuple(src.ExternalizeTuple(f.Args))
		q := f.Qualified()
		ps.noteArity(q, len(args))
		ps.rel(q, len(args)).Insert(args)
	}
	return e, nil
}

func reintern(src, dst *term.Store, r PRule) PRule {
	conv := func(a PAtom) PAtom {
		return PAtom{Rel: a.Rel, Peer: a.Peer, Args: dst.InternalizeTuple(src.ExternalizeTuple(a.Args))}
	}
	out := PRule{Head: conv(r.Head)}
	for _, a := range r.Body {
		out.Body = append(out.Body, conv(a))
	}
	for _, n := range r.Neqs {
		out.Neqs = append(out.Neqs, datalog.Neq{
			X: dst.Internalize(src.Externalize(n.X)),
			Y: dst.Internalize(src.Externalize(n.Y)),
		})
	}
	return out
}

// addRule appends a hosted rule with its compiled form and files its body
// occurrences in bodyIdx, returning the rule's index. Construction,
// runtime installation and snapshot restore all register rules here, so
// the per-rule structures stay in step.
func (ps *peerState) addRule(r PRule) int {
	ri := len(ps.rules)
	cr := compileRule(r)
	ps.noteArity(cr.headQ, len(r.Head.Args))
	for ai, a := range r.Body {
		q := cr.body[ai].q
		ps.noteArity(q, len(a.Args))
		ps.bodyIdx[q] = append(ps.bodyIdx[q], ruleAt{rule: ri, atom: ai})
	}
	ps.rules = append(ps.rules, r)
	ps.crules = append(ps.crules, cr)
	return ri
}

func (ps *peerState) noteArity(q rel.Name, n int) {
	if prev, ok := ps.arity[q]; ok && prev != n {
		panic(fmt.Sprintf("ddatalog: relation %s used with arities %d and %d", q, prev, n))
	}
	ps.arity[q] = n
}

func (ps *peerState) rel(q rel.Name, arity int) *rel.Relation {
	return ps.db.Rel(q, arity)
}

// handle processes one network message for the peer.
func (ps *peerState) handle(ctx *dist.Context, m dist.Message) {
	switch msg := m.Payload.(type) {
	case wire.Activate:
		ps.activateLocal(ctx, msg.Rel, m.From)
	case wire.Install:
		ps.installRule(ctx, ps.internRule(msg.Rule))
	case wire.Facts:
		tuple := ps.store.InternalizeTuple(msg.Tuple)
		ps.noteArity(msg.Qual, msg.Arity)
		relation := ps.rel(msg.Qual, msg.Arity)
		if pos, added := relation.InsertPos(tuple); added {
			ps.replicated++
			ps.pending = append(ps.pending, pendingFact{q: msg.Qual, args: relation.At(pos)})
		}
	case wire.Inject:
		// A base fact arriving at its owner mid-session (an incremental
		// append): derive it like a rule head so it reaches subscribers and
		// triggers delta joins.
		tuple := ps.store.InternalizeTuple(msg.Tuple)
		q := Qualify(msg.Rel, ps.id)
		ps.noteArity(q, len(tuple))
		ps.deriveFact(ctx, q, tuple)
	default:
		panic(fmt.Sprintf("ddatalog: unknown message %T", m.Payload))
	}
	ps.drain(ctx)
}

// drain runs the delta joins of every pending fact until none remain.
// On a divergent program this loop is where facts pile up, so it is also
// where a budget abort must take effect: network aborts stop message
// delivery but cannot interrupt a handler.
func (ps *peerState) drain(ctx *dist.Context) {
	if ps.eng.traceOn && len(ps.pending) > 0 {
		ps.eng.tracer.Gauge(string(ps.id), "ddatalog_pending_delta", int64(len(ps.pending)))
	}
	for len(ps.pending) > 0 && !ps.eng.aborted.Load() && !ctx.Stopped() {
		f := ps.pending[0]
		ps.pending = ps.pending[1:]
		ps.deltaJoin(ctx, f.q, f.args)
	}
}

// activateLocal activates relation r (owned by this peer) and subscribes
// subscriber (unless it is the pseudo-peer marker ""). Activation recurses
// into the body relations of every defining rule — remote ones via
// wire.Activate, local ones directly.
func (ps *peerState) activateLocal(ctx *dist.Context, r rel.Name, subscriber dist.PeerID) {
	q := Qualify(r, ps.id)
	if subscriber != "" && subscriber != ps.id {
		already := false
		for _, s := range ps.subs[q] {
			if s == subscriber {
				already = true
				break
			}
		}
		if !already {
			ps.subs[q] = append(ps.subs[q], subscriber)
			// Stream everything known so far.
			if relation := ps.db.Lookup(q); relation != nil {
				relation.Scan(0, nil, 0, relation.Len(), func(_ int, tuple []term.ID) bool {
					ctx.Send(subscriber, wire.Facts{Qual: q, Arity: relation.Arity(), Tuple: ps.store.ExternalizeTuple(tuple)})
					return true
				})
			}
		}
	}
	if ps.active[q] {
		return
	}
	ps.active[q] = true
	ps.runHook(ctx, r)
	if ar, ok := ps.arity[q]; ok {
		ps.rel(q, ar) // ensure the relation exists even if empty
	}
	for ri := range ps.rules {
		if ps.rules[ri].Head.Rel != r {
			continue
		}
		for _, a := range ps.rules[ri].Body {
			ps.activateBody(ctx, a)
		}
		// Initial full evaluation of the newly activated rule.
		ps.evalRule(ctx, ri, -1, nil)
	}
}

func (ps *peerState) activateBody(ctx *dist.Context, a PAtom) {
	if a.Peer == ps.id {
		ps.activateLocal(ctx, a.Rel, "")
		return
	}
	q := a.Qualified()
	if !ps.requested[q] {
		ps.requested[q] = true
		ctx.Send(a.Peer, wire.Activate{Rel: a.Rel})
	}
}

// deltaJoin re-evaluates every hosted rule that uses q in its body, pinning
// the occurrence to the new tuple.
func (ps *peerState) deltaJoin(ctx *dist.Context, q rel.Name, tuple []term.ID) {
	for _, occ := range ps.bodyIdx[q] {
		if !ps.active[ps.crules[occ.rule].headQ] {
			continue
		}
		ps.evalRule(ctx, occ.rule, occ.atom, tuple)
	}
}

// evalRule joins the body of rule ri. If pin >= 0, body atom `pin` is
// matched only against pinned (the delta tuple) and joined first, so its
// bindings restrict every later probe; the other atoms follow in written
// order and scan their full local replicas. With pin < 0 (an initial full
// evaluation) the body is joined left to right.
func (ps *peerState) evalRule(ctx *dist.Context, ri, pin int, pinned []term.ID) {
	ps.joinFrom(ctx, ri, 0, pin, pinned)
}

// joinFrom runs join step `step` of rule ri and recurses into the next.
// The step-to-atom order is computed, not stored (a table per rule and pin
// would cost more heap than the joins it saves): step 0 is the pinned atom,
// steps 1..pin are atoms 0..pin-1, and later steps are the atoms after pin.
func (ps *peerState) joinFrom(ctx *dist.Context, ri, step, pin int, pinned []term.ID) {
	r := &ps.rules[ri]
	if step == len(r.Body) {
		ps.emit(ctx, ri)
		return
	}
	j := step // no pin, or past the pinned atom
	switch {
	case step == 0 && pin >= 0:
		j = pin
	case step <= pin:
		j = step - 1
	}
	a := &r.Body[j]
	if j == pin {
		mark := ps.bnd.Mark()
		ok := true
		for i, pat := range a.Args {
			if !ps.bnd.Match(ps.bnd.Resolve(pat), pinned[i]) {
				ok = false
				break
			}
		}
		if ok {
			ps.joinFrom(ctx, ri, step+1, pin, pinned)
		}
		ps.bnd.Undo(mark)
		return
	}
	ca := &ps.crules[ri].body[j]
	relation := ca.r
	if relation == nil {
		if relation = ps.db.Lookup(ca.q); relation == nil {
			return
		}
		ca.r = relation
	}
	var mask uint64
	key := scratch(&ps.keybuf, step, len(a.Args))
	resolved := scratch(&ps.resbuf, step, len(a.Args))
	for i, t := range a.Args {
		rt := ps.bnd.Resolve(t)
		resolved[i] = rt
		if ps.store.IsGround(rt) {
			mask |= 1 << uint(i)
			key[i] = rt
		}
	}
	relation.Scan(mask, key, 0, relation.Len(), func(_ int, tuple []term.ID) bool {
		ps.probes++
		mark := ps.bnd.Mark()
		ok := true
		for i, pat := range resolved {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			if !ps.bnd.Match(pat, tuple[i]) {
				ok = false
				break
			}
		}
		if ok {
			ps.joinFrom(ctx, ri, step+1, pin, pinned)
		}
		ps.bnd.Undo(mark)
		return true
	})
}

// emit materializes the head of a satisfied rule body and propagates it.
// The head arguments are resolved into the peer's reusable buffer;
// deriveFact copies them into the relation's arena before anything retains
// them.
func (ps *peerState) emit(ctx *dist.Context, ri int) {
	r := &ps.rules[ri]
	for _, n := range r.Neqs {
		if ps.bnd.Resolve(n.X) == ps.bnd.Resolve(n.Y) {
			return
		}
	}
	n := len(r.Head.Args)
	if cap(ps.headbuf) < n {
		ps.headbuf = make([]term.ID, n)
	}
	args := ps.headbuf[:n]
	for i, t := range r.Head.Args {
		rt := ps.bnd.Resolve(t)
		if !ps.store.IsGround(rt) {
			panic(fmt.Sprintf("ddatalog: derived non-ground fact from %s", r.String(ps.store)))
		}
		if ps.eng.budget.MaxTermDepth > 0 && ps.store.Depth(rt) > ps.eng.budget.MaxTermDepth {
			return // depth gadget (Section 4.4): silently dropped
		}
		args[i] = rt
	}
	cr := &ps.crules[ri]
	relation := cr.headRel
	if relation == nil {
		relation = ps.rel(cr.headQ, n)
		cr.headRel = relation
	}
	ps.deriveInto(ctx, relation, cr.headQ, args)
}

// deriveFact inserts a locally owned fact, forwards it to subscribers and
// triggers local delta joins. Also used for the initial query seeding.
func (ps *peerState) deriveFact(ctx *dist.Context, q rel.Name, args []term.ID) {
	ps.deriveInto(ctx, ps.rel(q, len(args)), q, args)
}

// deriveInto is deriveFact with the target relation already resolved. The
// args slice may be a reusable buffer: every retained reference (pending
// queue, subscriber streams) uses the relation's own arena view instead.
func (ps *peerState) deriveInto(ctx *dist.Context, relation *rel.Relation, q rel.Name, args []term.ID) {
	pos, added := relation.InsertPos(args)
	if !added {
		return
	}
	stored := relation.At(pos)
	ps.derived++
	if ps.eng.traceOn {
		ps.derivedBy[q]++
	}
	if int(ps.eng.derived.Add(1)) > ps.eng.budget.MaxFacts {
		ps.eng.aborted.Store(true)
		ctx.Abort(fmt.Errorf("%w: more than %d facts", datalog.ErrBudget, ps.eng.budget.MaxFacts))
		return
	}
	for _, sub := range ps.subs[q] {
		ctx.Send(sub, wire.Facts{Qual: q, Arity: len(stored), Tuple: ps.store.ExternalizeTuple(stored)})
	}
	ps.pending = append(ps.pending, pendingFact{q: q, args: stored})
}

// collectorID is the synthetic peer that receives the query's answers.
const collectorID dist.PeerID = "§collector"

// Result of a distributed run.
type Result struct {
	// Answers are the query-variable bindings, deduplicated, in
	// first-occurrence order of the query's variables, interned in Store.
	Answers [][]term.ID
	// Store interns the answers (the collector's private store).
	Store *term.Store
	Stats Stats
}

// SetTracer installs the engine's tracer (obs.Nop when t is nil). It is
// threaded into each run's network, so every RunDelta gets per-peer spans
// and message-hop flow events for free; the engine adds its own counters
// (facts derived, facts replicated, rules installed, per-head-relation
// detail) at the end of each run. Must not be called during a run.
func (e *Engine) SetTracer(t obs.Tracer) {
	e.tracer = obs.Or(t)
}

// SetNetFactory installs the constructor for each run's network. A
// cluster driver uses this to evaluate over routed member nodes instead
// of the default in-process dist.NewNetwork. Must not be called during a
// run.
func (e *Engine) SetNetFactory(f func() dist.Net) {
	e.netFactory = f
}

// SetParallelism fixes the worker-pool width of the default in-process
// networks built by each run: n peer handlers may execute concurrently
// (per-peer delivery order is still per-sender FIFO, and the evaluation is
// confluent, so results match the sequential engine exactly). n <= 0
// restores the default, a pool sized by GOMAXPROCS; n == 1 forces fully
// sequential evaluation. Ignored when a custom net factory is installed.
// Must not be called during a run.
func (e *Engine) SetParallelism(n int) {
	e.workers = n
}

// RunMember participates in one evaluation round as a cluster member: it
// registers the hosted peers on the member-side network and blocks until
// the driver stops the round (or the timeout trips). The driver seeds the
// round; members only react. Returns the node's local network stats.
func (e *Engine) RunMember(net dist.Net, timeout time.Duration) (dist.Stats, error) {
	e.traceOn = e.tracer.Enabled()
	net.SetTracer(e.tracer)
	for _, id := range e.order {
		ps := e.peers[id]
		net.AddPeer(id, ps.handle)
	}
	stats, err := net.Run(nil, timeout)
	if e.traceOn {
		// Emit this round's materialization as deltas, mirroring the
		// driver's finishRun, so a member's /metrics carries the same
		// cumulative engine series as the driver's.
		derived, replicated := e.Totals()
		if d := derived - e.lastDerived; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_facts_derived_total", int64(d))
		}
		if d := replicated - e.lastReplicated; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_facts_replicated_total", int64(d))
		}
		e.lastDerived, e.lastReplicated = derived, replicated
	}
	return stats, err
}

// Totals reports the cumulative materialization counters of the hosted
// peers — a member node's contribution to the cluster-wide Derived and
// Replicated stats. Must not be called during a run.
func (e *Engine) Totals() (derived, replicated int) {
	for _, id := range e.order {
		ps := e.peers[id]
		derived += ps.derived
		replicated += ps.replicated
	}
	return derived, replicated
}

// Probes reports how many stored tuples the hosted peers' joins have
// examined since the engine was built or restored: every tuple a body-atom
// scan hands to the join, matched or not. With derived facts it measures
// how much join work each fact costs. Must not be called during a run.
func (e *Engine) Probes() int {
	n := 0
	for _, id := range e.order {
		n += e.peers[id].probes
	}
	return n
}

// finishRun emits the run's engine counters (as per-run deltas, so a
// metrics sink accumulates them into cumulative totals) and rolls the
// cumulative snapshots forward.
func (e *Engine) finishRun(res *Result) {
	installed := 0
	for _, id := range e.order {
		installed += e.peers[id].installed
	}
	if e.traceOn {
		e.tracer.Counter("ddatalog", "ddatalog_facts_derived_total", int64(res.Stats.Derived-e.lastDerived))
		e.tracer.Counter("ddatalog", "ddatalog_facts_replicated_total", int64(res.Stats.Replicated-e.lastReplicated))
		if d := installed - e.lastInstalled; d > 0 {
			e.tracer.Counter("ddatalog", "ddatalog_rules_installed_total", int64(d))
		}
		// Per-head-relation derivation counts: display-only names (the
		// space keeps them out of /metrics — unbounded cardinality).
		byRel := make(map[rel.Name]int, len(e.lastByRel))
		for _, id := range e.order {
			for r, c := range e.peers[id].derivedBy {
				byRel[r] += c
			}
		}
		for r, c := range byRel {
			if d := c - e.lastByRel[r]; d > 0 {
				e.tracer.Counter("ddatalog", "derived "+string(r), int64(d))
			}
		}
		e.lastByRel = byRel
	}
	e.lastDerived = res.Stats.Derived
	e.lastReplicated = res.Stats.Replicated
	e.lastInstalled = installed
}

// Run evaluates the program for the located query atom q: the collector
// activates q's relation at q's peer, the network runs to quiescence, and
// the tuples matching the query pattern are extracted. A zero timeout
// means one minute.
func (e *Engine) Run(q PAtom, timeout time.Duration) (*Result, error) {
	return e.RunDelta(q, nil, nil, timeout)
}

// RunDelta re-enters evaluation: it injects new base facts (delivered to
// their owner peers, forwarded to subscribers, delta-joined) and new rules
// (installed at their host peers), then evaluates q on a fresh network
// over the warm per-peer state of earlier runs. Facts and rules must be
// built over the engine's program store. Stats are cumulative across
// runs: Derived and Replicated count everything materialized since
// NewEngine, which is what incremental sessions report.
func (e *Engine) RunDelta(q PAtom, facts []PAtom, rules []PRule, timeout time.Duration) (*Result, error) {
	if !e.progPeers[q.Peer] {
		return nil, fmt.Errorf("ddatalog: query peer %q not in program", q.Peer)
	}
	e.traceOn = e.tracer.Enabled()
	if e.traceOn {
		sp := e.tracer.Begin("ddatalog", fmt.Sprintf("run %s", q.Qualified()))
		defer sp.End()
	}
	src := e.prog.Store
	initial := make([]dist.Message, 0, len(facts)+len(rules)+1)
	for _, r := range rules {
		if !e.progPeers[r.Head.Peer] {
			return nil, fmt.Errorf("ddatalog: rule host %q not in program", r.Head.Peer)
		}
		initial = append(initial, dist.Message{
			From: collectorID, To: r.Head.Peer, Payload: wire.Install{Rule: externRule(src, r)},
		})
	}
	for _, f := range facts {
		if !e.progPeers[f.Peer] {
			return nil, fmt.Errorf("ddatalog: fact owner %q not in program", f.Peer)
		}
		initial = append(initial, dist.Message{
			From: collectorID, To: f.Peer, Payload: wire.Inject{Rel: f.Rel, Tuple: src.ExternalizeTuple(f.Args)},
		})
	}
	initial = append(initial, dist.Message{From: collectorID, To: q.Peer, Payload: wire.Activate{Rel: q.Rel}})

	net := dist.Net(nil)
	if e.netFactory != nil {
		net = e.netFactory()
	} else {
		nw := dist.NewNetwork()
		nw.SetWorkers(e.workers)
		net = nw
	}
	net.SetTracer(e.tracer)
	for _, id := range e.order {
		ps := e.peers[id]
		net.AddPeer(id, ps.handle)
	}
	qual := q.Qualified()
	net.AddPeer(collectorID, func(ctx *dist.Context, m dist.Message) {
		msg, ok := m.Payload.(wire.Facts)
		if !ok {
			return
		}
		e.colDB.Rel(msg.Qual, msg.Arity).Insert(e.colStore.InternalizeTuple(msg.Tuple))
	})

	netStats, err := net.Run(initial, timeout)

	res := &Result{Store: e.colStore}
	res.Stats.Net = netStats
	for _, id := range e.order {
		ps := e.peers[id]
		res.Stats.Derived += ps.derived
		res.Stats.Replicated += ps.replicated
	}
	// In a cluster, the member nodes' shares of the materialization
	// arrive with their end-of-round reports.
	if ce, ok := net.(interface{ ClusterExtras() map[string]uint64 }); ok {
		extras := ce.ClusterExtras()
		res.Stats.Derived += int(extras["derived"])
		res.Stats.Replicated += int(extras["replicated"])
	}
	e.finishRun(res)
	if err != nil {
		res.Stats.Truncated = true
		res.Stats.Reason = err.Error()
		return res, err
	}

	// Extract answers by matching the query pattern against the collected
	// relation (re-interning the pattern into the collector's store).
	pattern := e.colStore.InternalizeTuple(src.ExternalizeTuple(q.Args))
	res.Answers = datalog.Answers(e.colDB, e.colStore, datalog.Atom{Rel: qual, Args: pattern})
	return res, nil
}

// PeerDB exposes a peer's database after Run has returned — used by tests
// and by the materialization metrics. It must not be called concurrently
// with Run.
func (e *Engine) PeerDB(id dist.PeerID) *rel.DB {
	ps := e.peers[id]
	if ps == nil {
		return nil
	}
	return ps.db
}

// Peers returns the program's peer IDs in first-mention order.
func (e *Engine) Peers() []dist.PeerID {
	out := make([]dist.PeerID, len(e.order))
	copy(out, e.order)
	return out
}

// PeerStore exposes a peer's term store after Run has returned.
func (e *Engine) PeerStore(id dist.PeerID) *term.Store {
	ps := e.peers[id]
	if ps == nil {
		return nil
	}
	return ps.store
}

// Run is the one-call convenience wrapper: build an engine and evaluate q.
func Run(prog *Program, q PAtom, budget datalog.Budget, timeout time.Duration) (*Result, *Engine, error) {
	e, err := NewEngine(prog, budget)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Run(q, timeout)
	return res, e, err
}
