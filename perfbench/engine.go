package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/adorn"
	"repro/internal/alarm"
	"repro/internal/ddatalog"
	"repro/internal/diagnosis"
	"repro/internal/petri"
	"repro/internal/term"
)

// engineCounts are the materialization counts read from a finished
// engine's public accessors (PeerDB, PeerStore).
type engineCounts struct {
	sup, in, answer int // dQSQ supplementary, input and adorned-answer facts
	factsStored     int // every fact in every peer database
	storeLen        int // interned terms, summed over distinct stores
}

func inspectEngine(eng *ddatalog.Engine) engineCounts {
	var c engineCounts
	stores := make(map[*term.Store]bool)
	for _, id := range eng.Peers() {
		db := eng.PeerDB(id)
		if db == nil {
			continue
		}
		c.factsStored += db.FactCount()
		for _, name := range db.Names() {
			n := db.Lookup(name).Len()
			switch s := string(name); {
			case strings.HasPrefix(s, "sup."):
				c.sup += n
			case strings.HasPrefix(s, "in-"):
				c.in += n
			case strings.Contains(s, "#"):
				c.answer += n
			}
		}
		if st := eng.PeerStore(id); st != nil && !stores[st] {
			stores[st] = true
			c.storeLen += st.Len()
		}
	}
	return c
}

func (r *result) setEngineCounts(c engineCounts) {
	r.set("dqsq.sup_facts", float64(c.sup))
	r.set("dqsq.in_facts", float64(c.in))
	r.set("dqsq.answer_facts", float64(c.answer))
	r.set("rel.facts_stored", float64(c.factsStored))
	r.set("term.store_len", float64(c.storeLen))
}

// adornStats counts the distinct (relation, adornment) pairs a rewriting
// expanded, and the most adornments any one relation was requested under.
func adornStats(keys []adorn.Key) (distinct, maxPerRel int) {
	seen := make(map[adorn.Key]bool)
	perRel := make(map[string]int)
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		perRel[string(k.Rel)]++
	}
	for _, n := range perRel {
		maxPerRel = max(maxPerRel, n)
	}
	return len(seen), maxPerRel
}

// reference is the product-unfolding diagnosis of [8] on one input, with
// its run time and size.
type reference struct {
	diags   diagnosis.Diagnoses
	elapsed time.Duration
	events  int
}

func productRef(pn *petri.PetriNet, seq alarm.Seq) (reference, error) {
	start := time.Now()
	rep, err := diagnosis.Run(pn, seq, diagnosis.EngineProduct, diagnosis.Options{})
	if err != nil {
		return reference{}, fmt.Errorf("product[8] on %d alarms: %w", len(seq), err)
	}
	if rep.Truncated {
		return reference{}, fmt.Errorf("product[8] on %d alarms: truncated", len(seq))
	}
	return reference{rep.Diagnoses, time.Since(start), rep.TransFacts}, nil
}
