package ddatalog_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/alarm"
	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/diagnosis"
	"repro/internal/dqsq"
	"repro/internal/gen"
	"repro/internal/petri"
	"repro/internal/rel"
	"repro/internal/term"
)

// rotated returns a copy of p whose rule bodies are rotated left by k
// (modulo each body's length). Over k = 0..n-1 every atom of an n-atom
// body is written at every position, so every delta a rule receives is
// pinned at every position, and the atoms it is joined against come in
// every cyclic order.
func rotated(p *ddatalog.Program, k int) *ddatalog.Program {
	out := ddatalog.NewProgram(p.Store)
	out.Facts = p.Facts
	for _, r := range p.Rules {
		if n := len(r.Body); n > 0 {
			r.Body = append(append([]ddatalog.PAtom(nil), r.Body[k%n:]...), r.Body[:k%n]...)
		}
		out.AddRule(r)
	}
	return out
}

func maxBody(p *ddatalog.Program) int {
	n := 1
	for _, r := range p.Rules {
		n = max(n, len(r.Body))
	}
	return n
}

// peerFacts renders every relation each peer holds, owned or replicated,
// one "peer relation: facts" line per relation, sorted.
func peerFacts(e *ddatalog.Engine) []string {
	var out []string
	for _, id := range e.Peers() {
		db, st := e.PeerDB(id), e.PeerStore(id)
		for _, name := range db.Names() {
			out = append(out, fmt.Sprintf("%s %s: %s", id, name, strings.Join(ddatalog.SortedRows(st, db.Lookup(name).All()), " ")))
		}
	}
	sort.Strings(out)
	return out
}

type orderCase struct {
	name  string
	prog  *ddatalog.Program
	query ddatalog.PAtom
	// For diagnosis programs: the net and stream, whose diagnoses must
	// equal product[8]'s.
	pn  *petri.PetriNet
	seq alarm.Seq
}

func orderCases(t *testing.T) []orderCase {
	t.Helper()
	fig3 := ddatalog.Figure3(
		[][2]string{{"1", "2"}, {"2", "3"}},
		[][2]string{{"2", "w"}, {"3", "w"}, {"4", "w"}},
		[][2]string{{"2", "4"}, {"3", "5"}, {"4", "6"}})
	s := fig3.Store
	reach, reachQ := ddatalog.ReachProgram(term.NewStore(), [][2]string{{"1", "2"}, {"2", "3"}, {"3", "1"}, {"3", "4"}})
	cases := []orderCase{
		{name: "figure3", prog: fig3, query: ddatalog.At("R", "r", s.Constant("1"), s.Variable("Y"))},
		{name: "reach", prog: reach, query: reachQ},
	}
	addDiag := func(name string, pn *petri.PetriNet, seq alarm.Seq) {
		padded, err := petri.Pad2(pn)
		if err != nil {
			t.Fatal(err)
		}
		prog, query, err := diagnosis.BuildDiagnosisProgram(padded, seq)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := dqsq.Rewrite(prog, query)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, orderCase{name: name, prog: rw.Program, query: rw.Query, pn: pn, seq: seq})
	}
	addDiag("example", petri.Example(), alarm.S("b", "p1", "a", "p2", "c", "p1"))
	pipe := gen.Pipeline(3, 2)
	addDiag("pipeline(3,2)", pipe, gen.PipelineSeq(pipe, rand.New(rand.NewSource(7)), 4))
	added := 0
	for seed := int64(0); seed < 40 && added < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pn := gen.RandomSafe(rng, gen.Params{Peers: 2, Places: 5, Transitions: 4, Alarms: 2})
		if pn == nil {
			continue
		}
		exec, _ := pn.RandomExecution(rng, 1+rng.Intn(3))
		if len(exec) == 0 {
			continue
		}
		addDiag(fmt.Sprintf("random(seed %d)", seed), pn, petri.Interleave(rng, exec.ObservedAlarms()))
		added++
	}
	if added == 0 {
		t.Fatal("no random net with an observable execution")
	}
	return cases
}

// TestJoinOrderInvariance: the order in which a rule's body is joined is
// an evaluation choice, never a semantic one. For every fixture and every
// rotation of every rule body, the sequential and the parallel engine
// must leave each peer holding exactly the facts of the localized
// program's minimal model (Section 3's semantics; see
// TestGlobalTranslationAgrees), the same relations as the unrotated
// sequential run, and — for diagnosis programs — diagnoses byte-equal to
// product[8]'s.
func TestJoinOrderInvariance(t *testing.T) {
	for _, tc := range orderCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			model, _ := tc.prog.Localize().SemiNaive(datalog.Budget{})
			var want string
			if tc.pn != nil {
				ref, err := diagnosis.Run(tc.pn, tc.seq, diagnosis.EngineProduct, diagnosis.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want = strings.Join(ref.Diagnoses.Keys(), "\n")
			}
			var first []string
			for k := 0; k < maxBody(tc.prog); k++ {
				for _, workers := range []int{1, 4} {
					e, err := ddatalog.NewEngine(rotated(tc.prog, k), datalog.Budget{})
					if err != nil {
						t.Fatal(err)
					}
					e.SetParallelism(workers)
					res, err := e.Run(tc.query, time.Minute)
					if err != nil {
						t.Fatalf("rotation %d, %d workers: %v", k, workers, err)
					}
					got := peerFacts(e)
					if first == nil {
						first = got
					} else if strings.Join(got, "\n") != strings.Join(first, "\n") {
						t.Fatalf("rotation %d, %d workers: peer relations differ from the unrotated sequential run:\n%s\nwant:\n%s",
							k, workers, strings.Join(got, "\n"), strings.Join(first, "\n"))
					}
					for _, id := range e.Peers() {
						db := e.PeerDB(id)
						for _, name := range db.Names() {
							m := model.Lookup(name)
							if m == nil {
								m = rel.New(db.Lookup(name).Arity())
							}
							g, w := ddatalog.SortedRows(e.PeerStore(id), db.Lookup(name).All()), ddatalog.SortedRows(model.Store, m.All())
							if strings.Join(g, " ") != strings.Join(w, " ") {
								t.Fatalf("rotation %d, %d workers: %s at %s holds %v, the model %v", k, workers, name, id, g, w)
							}
						}
					}
					if tc.pn != nil {
						got := strings.Join(diagnosis.ExtractDiagnoses(res.Store, res.Answers, true).Keys(), "\n")
						if got != want {
							t.Fatalf("rotation %d, %d workers: diagnoses\n%s\nproduct[8]:\n%s", k, workers, got, want)
						}
					}
				}
			}
		})
	}
}
