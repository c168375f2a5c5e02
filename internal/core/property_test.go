package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ctxmatch/internal/relational"
)

// TestFamilyGroupsPartitionValues: for every inferred family, the groups
// are mutually exclusive and jointly cover exactly the values observed
// for the attribute — the defining property of a view family (§3.2.2).
func TestFamilyGroupsPartitionValues(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src, tgt := invFixture(rng, 300, 4)
		opt := DefaultOptions()
		opt.Inference = SrcClassInfer
		opt.Seed = seed
		for _, f := range viewFamilies(src, opt, preparedClassifiers(t, tgt, opt)) {
			seen := map[string]int{}
			for _, g := range f.Groups {
				for _, v := range g {
					seen[v.Key()]++
				}
			}
			for k, n := range seen {
				if n != 1 {
					t.Fatalf("seed %d: value %s appears in %d groups of %v", seed, k, n, f)
				}
			}
			// Groups are built from the training split, so they may miss
			// rare values of the full sample — but must never invent one.
			domain := map[string]bool{}
			for _, v := range src.DistinctValues(f.Attr) {
				domain[v.Key()] = true
			}
			for k := range seen {
				if !domain[k] {
					t.Fatalf("seed %d: family %v invents value %s", seed, f, k)
				}
			}
		}
	}
}

// TestViewsNeverExceedBase: every scored candidate's view is a subset of
// the base table's rows, and its condition holds on each of them.
func TestViewsNeverExceedBase(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src, tgt := invFixture(rng, 200, 4)
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	res := mustContextMatch(t, relational.NewSchema("RS", src), tgt, opt)
	for _, c := range res.Candidates {
		view := c.Match.Source
		if !view.IsView() {
			t.Fatalf("candidate source is not a view: %v", c.Match)
		}
		if view.Len() > view.Root().Len() {
			t.Fatalf("view larger than base: %v", c.Match)
		}
		for _, row := range view.Rows {
			if !c.Match.Cond.Eval(view.Root(), row) {
				t.Fatalf("view row violates its condition: %v", c.Match)
			}
		}
	}
}

// TestSelectedSubsetOfCandidatesOrProtos: everything selected is either
// a prototype (base) match or one of the scored candidates — the
// algorithm invents no edges.
func TestSelectedSubsetOfCandidatesOrProtos(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	src, tgt := invFixture(rng, 250, 4)
	for _, sel := range []Selection{QualTable, MultiTable} {
		opt := DefaultOptions()
		opt.Inference = SrcClassInfer
		opt.Selection = sel
		res := mustContextMatch(t, relational.NewSchema("RS", src), tgt, opt)
		known := map[string]bool{}
		for _, p := range res.Standard {
			known[p.String()] = true
		}
		for _, c := range res.Candidates {
			known[c.Match.String()] = true
		}
		for _, m := range res.Matches {
			if !known[m.String()] {
				t.Errorf("%v: selected match not in protos∪candidates: %v", sel, m)
			}
		}
	}
}

// TestOmegaMonotonicity: raising ω can only shrink (or keep) the set of
// selected contextual matches.
func TestOmegaMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	src, tgt := invFixture(rng, 250, 4)
	schema := relational.NewSchema("RS", src)
	prev := -1
	for _, omega := range []float64{1, 5, 15, 40, 1000} {
		opt := DefaultOptions()
		opt.Inference = SrcClassInfer
		opt.EarlyDisjuncts = false
		opt.Omega = omega
		n := len(mustContextMatch(t, schema, tgt, opt).ContextualMatches())
		if prev >= 0 && n > prev {
			t.Errorf("ω=%v selected %d contextual matches, more than the %d at lower ω", omega, n, prev)
		}
		prev = n
	}
}

// TestTauMonotonicityOnStandard: raising τ never adds prototype matches.
func TestTauMonotonicityOnStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	src, tgt := invFixture(rng, 250, 2)
	schema := relational.NewSchema("RS", src)
	prev := -1
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		opt := DefaultOptions()
		opt.Tau = tau
		opt.Inference = NaiveInfer
		n := len(mustContextMatch(t, schema, tgt, opt).Standard)
		if prev >= 0 && n > prev {
			t.Errorf("τ=%v produced %d protos, more than %d at lower τ", tau, n, prev)
		}
		prev = n
	}
}

// TestViewNameSafety: generated view names contain only identifier-safe
// characters for any condition shape.
func TestViewNameSafety(t *testing.T) {
	tab := relational.NewTable("my_table", relational.Attribute{Name: "a b", Type: relational.String})
	conds := []relational.Condition{
		relational.Eq{Attr: "a b", Value: relational.S("x'y;z")},
		relational.NewIn("a b", relational.S("α"), relational.S("β")),
		relational.NewAnd(
			relational.Eq{Attr: "a b", Value: relational.S("--")},
			relational.Eq{Attr: "c", Value: relational.I(-1)},
		),
	}
	for _, c := range conds {
		name := viewName(tab, c)
		for _, r := range name {
			ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
			if !ok {
				t.Errorf("unsafe rune %q in view name %q (cond %v)", r, name, c)
			}
		}
		if name == "" {
			t.Errorf("empty view name for %v", c)
		}
	}
	// Distinct conditions on the same table get distinct names.
	n1 := viewName(tab, conds[0])
	n2 := viewName(tab, conds[1])
	if n1 == n2 {
		t.Errorf("conditions share a view name: %q", n1)
	}
	_ = fmt.Sprint(n1, n2)
}
