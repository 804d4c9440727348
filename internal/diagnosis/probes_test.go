package diagnosis

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/ddatalog"
	"repro/internal/dqsq"
	"repro/internal/gen"
	"repro/internal/petri"
)

// TestOneShotProbeBudget is the deterministic guard on delta-join work:
// one-shot dQSQ on pipeline(6,2) with the 10 alarms of
// gen.PipelineSeq(seed 7). Joining the delta atom first keeps the join
// probes (stored tuples examined) near the number of facts derived
// (40,963 probes for 38,278 facts); joining every body left to right
// probed 982,378 tuples for the same facts. The derived and replicated
// counts pin that the join order changes only the work, never what the
// evaluation computes.
func TestOneShotProbeBudget(t *testing.T) {
	const (
		maxProbes      = 100_000
		wantDerived    = 38278
		wantReplicated = 7142
	)
	pn := gen.Pipeline(6, 2)
	seq := gen.PipelineSeq(pn, rand.New(rand.NewSource(7)), 10)
	padded, err := petri.Pad2(pn)
	if err != nil {
		t.Fatal(err)
	}
	prog, query, err := BuildDiagnosisProgram(padded, seq)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := dqsq.Rewrite(prog, query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ddatalog.NewEngine(rw.Program, datalog.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetParallelism(1)
	res, err := eng.Run(rw.Query, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	probes := eng.Probes()
	t.Logf("derived %d, replicated %d, probes %d", res.Stats.Derived, res.Stats.Replicated, probes)
	if res.Stats.Derived != wantDerived {
		t.Errorf("derived %d facts, want %d", res.Stats.Derived, wantDerived)
	}
	if res.Stats.Replicated != wantReplicated {
		t.Errorf("replicated %d facts, want %d", res.Stats.Replicated, wantReplicated)
	}
	if probes > maxProbes {
		t.Errorf("joins probed %d tuples, want <= %d", probes, maxProbes)
	}
	ref, err := Run(pn, seq, EngineProduct, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ExtractDiagnoses(res.Store, res.Answers, true); !got.Equal(ref.Diagnoses) {
		t.Errorf("dQSQ diagnoses %v, product[8] %v", got.Keys(), ref.Diagnoses.Keys())
	}
}
