package match

import (
	"math/rand"
	"testing"

	"ctxmatch/internal/relational"
)

func TestFeatureCacheMemoizesNGram(t *testing.T) {
	tab := relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.Text})
	tab.Append(relational.Tuple{relational.S("hello world")})
	// other is a layer column and tab a source column, memoized by the
	// cache itself.
	other := relational.NewTable("u", relational.Attribute{Name: "a", Type: relational.Text})
	other.Append(relational.Tuple{relational.S("zzz")})
	c := testCache(t, other)
	v1 := c.NGramVector(tab, "a", 0)
	// Mutate the table afterwards: the cache must return the memoized
	// vector, proving no recomputation happens.
	tab.Append(relational.Tuple{relational.S("more data")})
	v2 := c.NGramVector(tab, "a", 0)
	if v1 != v2 {
		t.Error("cache recomputed the vector")
	}
	// A different attribute or table is a different entry.
	if c.NGramVector(other, "a", 0) == v1 {
		t.Error("distinct tables share a cache entry")
	}
}

func TestFeatureCacheNumeric(t *testing.T) {
	tab := relational.NewTable("t",
		relational.Attribute{Name: "x", Type: relational.Real},
		relational.Attribute{Name: "s", Type: relational.Text},
	)
	tab.Append(relational.Tuple{relational.F(1.5), relational.S("a")})
	tab.Append(relational.Tuple{relational.Null, relational.S("b")})
	tab.Append(relational.Tuple{relational.F(2.5), relational.S("3.5")})
	c := testCache(t)
	xs := c.Numeric(tab, "x")
	if len(xs) != 2 || xs[0] != 1.5 || xs[1] != 2.5 {
		t.Errorf("Numeric = %v", xs)
	}
	// String columns with parseable values convert.
	ss := c.Numeric(tab, "s")
	if len(ss) != 1 || ss[0] != 3.5 {
		t.Errorf("Numeric over strings = %v", ss)
	}
	// Memoized: mutation invisible.
	tab.Append(relational.Tuple{relational.F(9), relational.S("x")})
	if got := c.Numeric(tab, "x"); len(got) != 2 {
		t.Error("cache recomputed numeric column")
	}
}

func TestFeatureCacheMaxValues(t *testing.T) {
	tab := relational.NewTable("t", relational.Attribute{Name: "a", Type: relational.Text})
	for i := 0; i < 100; i++ {
		tab.Append(relational.Tuple{relational.S("abcdefgh")})
	}
	c := testCache(t, tab)
	v := c.NGramVector(tab, "a", 10)
	// 10 values × 6 trigrams each.
	if total := v.Mass(); total != 60 {
		t.Errorf("capped vector mass = %v, want 60", total)
	}
}

// TestCachedScoringMatchesUncached ensures memoization does not change
// results: two fresh caches and one shared cache agree.
func TestCachedScoringMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, tgt := fixture(rng, 100)
	book := tgt.Table("book")
	m := ValueNGramMatcher{W: 1}
	shared := testCache(t, tgt.Tables...)
	a := m.Score(shared, src, "name", book, "title")
	b := m.Score(shared, src, "name", book, "title")
	c := m.Score(testCache(t, tgt.Tables...), src, "name", book, "title")
	if a != b || a != c {
		t.Errorf("cached scores diverge: %v %v %v", a, b, c)
	}
	n := NumericMatcher{W: 1}
	x := n.Score(shared, src, "price", book, "price")
	y := n.Score(testCache(t, tgt.Tables...), src, "price", book, "price")
	if x != y {
		t.Errorf("numeric cached scores diverge: %v %v", x, y)
	}
}

func TestExplainBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src, tgt := fixture(rng, 120)
	b := bind(NewEngine(), src, tgt)
	exps := b.Explain(src, "code", "book", "isbn")
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	names := map[string]bool{}
	for _, e := range exps {
		names[e.Matcher] = true
		if e.Raw < 0 || e.Confidence < 0 || e.Confidence > 1 {
			t.Errorf("explanation out of range: %+v", e)
		}
	}
	if !names["value-ngram"] || !names["name"] || !names["type"] {
		t.Errorf("missing matcher explanations: %v", names)
	}
	if names["numeric"] {
		t.Error("numeric matcher should be inapplicable for string pair")
	}
	if b.Explain(src, "code", "zzz", "isbn") != nil {
		t.Error("unknown table should explain nothing")
	}
}

// TestBindParallelMatchesSequential: the column-parallel bind must
// produce exactly the sequential bind's normalization statistics and
// therefore exactly its standard matches, at any worker count.
func TestBindParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, tgt := fixture(rng, 150)
	eng := NewEngine()
	tf := frozenLayer(eng, tgt)
	seq := eng.Bind(src, tgt, tf, 1)
	defer seq.Release()
	want := seq.StandardMatches(0)
	for _, workers := range []int{2, 4, 8} {
		par := eng.Bind(src, tgt, tf, workers)
		got := par.StandardMatches(0)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: match %d diverged:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
		par.Release()
	}
}

// TestFeatureCachePoolReuse: a released cache serves a fresh bind
// correctly (no stale entries leak across acquire/release cycles).
func TestFeatureCachePoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src, tgt := fixture(rng, 80)
	eng := NewEngine()
	tf := frozenLayer(eng, tgt)
	var first []Match
	for i := 0; i < 5; i++ {
		b := eng.Bind(src, tgt, tf, 1)
		got := b.StandardMatches(0)
		if i == 0 {
			first = got
		} else if len(got) != len(first) {
			t.Fatalf("iteration %d: %d matches, want %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("iteration %d: match %d diverged after cache reuse", i, j)
				}
			}
		}
		b.Release()
	}
}
