package core

import (
	"math/rand"
	"strings"
	"testing"

	"ctxmatch/internal/relational"
)

func TestValueGroupCondition(t *testing.T) {
	single := ValueGroup{relational.I(1)}
	if _, ok := single.Condition("type").(relational.Eq); !ok {
		t.Error("singleton group should render as Eq")
	}
	merged := ValueGroup{relational.I(1), relational.I(2)}
	c, ok := merged.Condition("type").(relational.In)
	if !ok || len(c.Values) != 2 {
		t.Errorf("merged group should render as In: %v", merged.Condition("type"))
	}
}

func TestViewFamilyConditionsAndString(t *testing.T) {
	tab := relational.NewTable("inv", relational.Attribute{Name: "type", Type: relational.Int})
	f := ViewFamily{
		Table: tab,
		Attr:  "type",
		Groups: []ValueGroup{
			{relational.I(1)},
			{relational.I(2), relational.I(3)},
		},
		Evidence:     "code",
		Significance: 0.99,
	}
	conds := f.Conditions()
	if len(conds) != 2 {
		t.Fatalf("Conditions() = %v", conds)
	}
	if conds[0].String() != "type = 1" || conds[1].String() != "type in (2, 3)" {
		t.Errorf("conditions = %v, %v", conds[0], conds[1])
	}
	s := f.String()
	for _, want := range []string{"inv.type", "{1}", "{2,3}", "code", "0.990"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestGroupLabelRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 7, 42, 9999} {
		if got := parseGroupLabel(groupLabel(i)); got != i {
			t.Errorf("round trip %d → %d", i, got)
		}
	}
	for _, bad := range []string{"", "g", "x0001", "g12a4", "g123456"} {
		if got := parseGroupLabel(bad); got != -1 {
			t.Errorf("parseGroupLabel(%q) = %d, want -1", bad, got)
		}
	}
}

func TestSrcClassInferFindsItemTypeFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, tgt := invFixture(rng, 400, 2)
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	opt.EarlyDisjuncts = false
	fams := viewFamilies(src, opt, preparedClassifiers(t, tgt, opt))
	if len(fams) == 0 {
		t.Fatal("no families found on clearly clustered data")
	}
	foundItemType := false
	for _, f := range fams {
		switch f.Attr {
		case "ItemType":
			foundItemType = true
		case "StockStatus":
			t.Errorf("random StockStatus must not form a family: %v", f)
		}
	}
	if !foundItemType {
		t.Error("ItemType family not found")
	}
}

func TestTgtClassInferFindsItemTypeFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, tgt := invFixture(rng, 400, 2)
	opt := DefaultOptions()
	opt.Inference = TgtClassInfer
	opt.EarlyDisjuncts = false
	fams := viewFamilies(src, opt, preparedClassifiers(t, tgt, opt))
	foundItemType := false
	for _, f := range fams {
		if f.Attr == "ItemType" {
			foundItemType = true
		}
		if f.Attr == "StockStatus" {
			t.Errorf("random StockStatus must not form a family: %v", f)
		}
	}
	if !foundItemType {
		t.Error("TgtClassInfer should certify the ItemType family")
	}
}

func TestEarlyDisjunctsMergesIndistinguishableLabels(t *testing.T) {
	// With γ=4 the classifier cannot tell Book1 from Book2 (identical
	// value distributions), so the §3.3 merge loop should produce a
	// family whose groups merge the book labels and the CD labels.
	rng := rand.New(rand.NewSource(3))
	src, tgt := invFixture(rng, 600, 4)
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	opt.EarlyDisjuncts = true
	fams := viewFamilies(src, opt, preparedClassifiers(t, tgt, opt))
	foundMerged := false
	for _, f := range fams {
		if f.Attr != "ItemType" || len(f.Groups) != 2 {
			continue
		}
		pure := true
		for _, g := range f.Groups {
			books := 0
			for _, v := range g {
				if isBookLabel(v) {
					books++
				}
			}
			if books != 0 && books != len(g) {
				pure = false
			}
		}
		if pure {
			foundMerged = true
		}
	}
	if !foundMerged {
		t.Errorf("no pure two-group merged family found among %d families", len(fams))
		for _, f := range fams {
			t.Logf("  %v", f)
		}
	}
}

func TestLateDisjunctsKeepsSingletonGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src, tgt := invFixture(rng, 400, 4)
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	opt.EarlyDisjuncts = false
	for _, f := range viewFamilies(src, opt, preparedClassifiers(t, tgt, opt)) {
		for _, g := range f.Groups {
			if len(g) != 1 {
				t.Errorf("LateDisjuncts produced a merged group: %v", f)
			}
		}
	}
}

func TestFamiliesRequireMinimumData(t *testing.T) {
	tab := relational.NewTable("t",
		relational.Attribute{Name: "l", Type: relational.String},
		relational.Attribute{Name: "h", Type: relational.String},
	)
	tab.Append(relational.Tuple{relational.S("a"), relational.S("x")})
	tab.Append(relational.Tuple{relational.S("b"), relational.S("y")})
	opt := DefaultOptions()
	opt.Inference = SrcClassInfer
	if fams := viewFamilies(tab, opt, nil); len(fams) != 0 {
		t.Errorf("tiny table should yield no families, got %v", fams)
	}
}

func TestDedupFamiliesKeepsHighestSignificance(t *testing.T) {
	tab := relational.NewTable("t", relational.Attribute{Name: "l", Type: relational.Int})
	mk := func(sig float64, ev string) ViewFamily {
		return ViewFamily{
			Table:        tab,
			Attr:         "l",
			Groups:       []ValueGroup{{relational.I(1)}, {relational.I(2)}},
			Evidence:     ev,
			Significance: sig,
		}
	}
	out := dedupFamilies([]ViewFamily{mk(0.96, "a"), mk(0.99, "b"), mk(0.97, "c")})
	if len(out) != 1 {
		t.Fatalf("dedup kept %d families", len(out))
	}
	if out[0].Significance != 0.99 || out[0].Evidence != "b" {
		t.Errorf("kept %v, want the most significant", out[0])
	}
}

func TestTopErrorPairNormalization(t *testing.T) {
	res := testResult{
		errors: map[[2]int]int{
			{0, 1}: 10, // frequent groups: normalized 10/200
			{2, 3}: 5,  // rare groups: normalized 5/20
		},
		freq: []int{100, 100, 10, 10},
	}
	i, j := res.topErrorPair()
	if i != 2 || j != 3 {
		t.Errorf("topErrorPair = (%d,%d), want the normalized winner (2,3)", i, j)
	}
	empty := testResult{errors: map[[2]int]int{}}
	if i, j := empty.topErrorPair(); i != -1 || j != -1 {
		t.Errorf("empty topErrorPair = (%d,%d)", i, j)
	}
}
