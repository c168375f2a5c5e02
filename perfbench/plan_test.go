package main

import (
	"bytes"
	"testing"
)

// TestPlanIsSeeded checks that the seed alone fixes every input: the
// same seed gives a byte-identical plan (roster, source pool, request
// order, PATCH schedule) and another seed a different one.
func TestPlanIsSeeded(t *testing.T) {
	for name, w := range workloads {
		a, b := newPlan(w, 7, 20).encode(), newPlan(w, 7, 20).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different plans", name)
		}
		if c := newPlan(w, 8, 20).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same plan", name)
		}
	}
}

// TestPlanSizing checks the sample-size rules: enough open-loop reads
// for a p95 with 10 samples beyond it, at least 100 PATCHes on
// catalog-churn, and a due-ordered open-loop schedule even at a short
// --seconds.
func TestPlanSizing(t *testing.T) {
	for name, w := range workloads {
		p := newPlan(w, 1, 2)
		reads, patches := 0, 0
		for i, r := range p.Open {
			if i > 0 && r.Due < p.Open[i-1].Due {
				t.Fatalf("%s: request %d due before its predecessor", name, i)
			}
			if r.Op == opPatch {
				patches++
			} else {
				reads++
			}
		}
		if reads < 200 {
			t.Errorf("%s: %d open-loop reads, want ≥ 200", name, reads)
		}
		if w.patchRate > 0 && patches < 100 {
			t.Errorf("%s: %d PATCHes, want ≥ 100", name, patches)
		}
		if len(p.Roster) != 32 {
			t.Errorf("%s: roster of %d catalogs, want 32", name, len(p.Roster))
		}
	}
}
