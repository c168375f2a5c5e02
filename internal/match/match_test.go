package match

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

var bookWords = []string{"heart", "darkness", "leaves", "grass", "history", "novel",
	"shadow", "mountain", "river", "winter", "garden", "letters", "secret", "stone"}

var cdWords = []string{"hotel", "california", "abbey", "road", "rumours", "thriller",
	"groove", "electric", "night", "dance", "beat", "soul", "funk", "velvet"}

func title(rng *rand.Rand, words []string) string {
	n := 2 + rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

func isbn(rng *rand.Rand) string {
	return fmt.Sprintf("0-%03d-%05d-%d", rng.Intn(1000), rng.Intn(100000), rng.Intn(10))
}

const asinAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"

func asin(rng *rand.Rand) string {
	b := []byte("B00")
	for i := 0; i < 7; i++ {
		b = append(b, asinAlphabet[rng.Intn(len(asinAlphabet))])
	}
	return string(b)
}

// fixture builds a combined source inventory and a books/music target.
func fixture(rng *rand.Rand, n int) (src *relational.Table, tgt *relational.Schema) {
	src = relational.NewTable("inv",
		relational.Attribute{Name: "name", Type: relational.Text},
		relational.Attribute{Name: "type", Type: relational.Int},
		relational.Attribute{Name: "code", Type: relational.String},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			src.Append(relational.Tuple{
				relational.S(title(rng, bookWords)), relational.I(1),
				relational.S(isbn(rng)), relational.F(25 + rng.NormFloat64()*3),
			})
		} else {
			src.Append(relational.Tuple{
				relational.S(title(rng, cdWords)), relational.I(2),
				relational.S(asin(rng)), relational.F(10 + rng.NormFloat64()*2),
			})
		}
	}
	book := relational.NewTable("book",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "isbn", Type: relational.String},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	music := relational.NewTable("music",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "asin", Type: relational.String},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	for i := 0; i < n/2; i++ {
		book.Append(relational.Tuple{
			relational.S(title(rng, bookWords)), relational.S(isbn(rng)),
			relational.F(25 + rng.NormFloat64()*3),
		})
		music.Append(relational.Tuple{
			relational.S(title(rng, cdWords)), relational.S(asin(rng)),
			relational.F(10 + rng.NormFloat64()*2),
		})
	}
	return src, relational.NewSchema("RT", book, music)
}

// frozenLayer builds e's feature layer over tgt and freezes its
// dictionary, the state Bind requires.
func frozenLayer(e *Engine, tgt *relational.Schema) *TargetFeatures {
	d := tokenize.NewDict()
	tf := e.PrecomputeTarget(tgt, d, 1)
	d.Freeze()
	return tf
}

// bind binds src to tgt over a fresh frozen layer of tgt.
func bind(e *Engine, src *relational.Table, tgt *relational.Schema) *Bound {
	return e.Bind(src, tgt, frozenLayer(e, tgt), 1)
}

// testCache returns a feature cache over a frozen layer of the given
// tables, released when the test ends. Every table a test scores on
// the target side of a pair must be among them. Grams outside the
// dictionary get per-build overflow IDs counted from its end, so two
// vectors that both carry such grams collide; production never
// compares two of them, because the target side is always interned,
// and the tests must not either.
func testCache(t testing.TB, tables ...*relational.Table) *FeatureCache {
	c := acquireFeatureCache(frozenLayer(NewEngine(), relational.NewSchema("layer", tables...)))
	t.Cleanup(c.release)
	return c
}

func TestNameMatcher(t *testing.T) {
	m := NameMatcher{W: 1}
	var attrs []relational.Attribute
	for _, n := range []string{"title", "isbn", "zzz", "price", "prices", "label"} {
		attrs = append(attrs, relational.Attribute{Name: n, Type: relational.Text})
	}
	c := testCache(t, relational.NewTable("names", attrs...))
	if got := m.Score(c, nil, "title", nil, "title"); got != 1 {
		t.Errorf("identical names score %v, want 1", got)
	}
	if got := m.Score(c, nil, "isbn", nil, "zzz"); got != 0 {
		t.Errorf("disjoint names score %v, want 0", got)
	}
	closeScore := m.Score(c, nil, "price", nil, "prices")
	farScore := m.Score(c, nil, "price", nil, "label")
	if closeScore <= farScore {
		t.Errorf("price~prices (%v) should beat price~label (%v)", closeScore, farScore)
	}
	if m.Name() != "name" || m.Weight() != 1 {
		t.Error("metadata wrong")
	}
}

func TestValueNGramMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src, tgt := fixture(rng, 100)
	m := ValueNGramMatcher{W: 1}
	book := tgt.Table("book")
	c := testCache(t, src, book)
	selfish := m.Score(c, src, "name", src, "name")
	if selfish < 0.99 {
		t.Errorf("self-similarity = %v, want ≈1", selfish)
	}
	titleScore := m.Score(c, src, "name", book, "title")
	isbnScore := m.Score(c, src, "name", book, "isbn")
	if titleScore <= isbnScore {
		t.Errorf("name~title (%v) should beat name~isbn (%v)", titleScore, isbnScore)
	}
	// Numeric column pairs are out of scope for this matcher.
	if got := m.Score(c, src, "price", book, "price"); got != 0 {
		t.Errorf("numeric pair score = %v, want 0", got)
	}
	if got := m.Score(c, src, "name", book, "price"); got != 0 {
		t.Errorf("cross-domain score = %v, want 0", got)
	}
	if got := m.Score(c, src, "missing", book, "title"); got != 0 {
		t.Errorf("missing attr score = %v, want 0", got)
	}
}

func TestValueNGramMatcherMaxValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src, tgt := fixture(rng, 400)
	book := tgt.Table("book")
	full := ValueNGramMatcher{W: 1}.Score(testCache(t, src, book), src, "name", book, "title")
	sampled := ValueNGramMatcher{W: 1, MaxValues: 50}.Score(testCache(t, src, book), src, "name", book, "title")
	if sampled == 0 {
		t.Fatal("sampled score should not vanish")
	}
	if diff := full - sampled; diff > 0.2 || diff < -0.2 {
		t.Errorf("sampling changed score too much: full=%v sampled=%v", full, sampled)
	}
}

func TestNumericMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src, tgt := fixture(rng, 200)
	m := NumericMatcher{W: 1}
	book, music := tgt.Table("book"), tgt.Table("music")
	c := testCache(t, book, music)
	// Source price mixes both populations; book price (mean 25) should
	// still be discriminated from music price (mean 10) when the source
	// is restricted to books.
	bookView := src.Select("V1", relational.Eq{Attr: "type", Value: relational.I(1)})
	toBook := m.Score(c, bookView, "price", book, "price")
	toMusic := m.Score(c, bookView, "price", music, "price")
	if toBook <= toMusic {
		t.Errorf("restricted price should match book (%v) over music (%v)", toBook, toMusic)
	}
	if got := m.Score(c, src, "name", book, "price"); got != 0 {
		t.Errorf("string-numeric pair = %v, want 0", got)
	}
	if got := m.Score(c, src, "price", book, "title"); got != 0 {
		t.Errorf("numeric-string pair = %v, want 0", got)
	}
	empty := relational.NewTable("e", relational.Attribute{Name: "x", Type: relational.Real})
	if got := m.Score(c, empty, "x", book, "price"); got != 0 {
		t.Errorf("empty column = %v, want 0", got)
	}
}

func TestNumericMatcherScaleSensitivity(t *testing.T) {
	mk := func(mean, sd float64) *relational.Table {
		tab := relational.NewTable("t", relational.Attribute{Name: "x", Type: relational.Real})
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 300; i++ {
			tab.Append(relational.Tuple{relational.F(mean + rng.NormFloat64()*sd)})
		}
		return tab
	}
	m := NumericMatcher{W: 1}
	same := mk(10, 2)
	sameT, scaleT, meanT := mk(10, 2), mk(10, 20), mk(100, 2)
	c := testCache(t, sameT, scaleT, meanT)
	sameDist := m.Score(c, same, "x", sameT, "x")
	diffScale := m.Score(c, same, "x", scaleT, "x")
	diffMean := m.Score(c, same, "x", meanT, "x")
	if sameDist <= diffScale || sameDist <= diffMean {
		t.Errorf("same=%v should beat diffScale=%v and diffMean=%v", sameDist, diffScale, diffMean)
	}
}

func TestTypeMatcher(t *testing.T) {
	a := relational.NewTable("a",
		relational.Attribute{Name: "i", Type: relational.Int},
		relational.Attribute{Name: "r", Type: relational.Real},
		relational.Attribute{Name: "s", Type: relational.String},
	)
	m := TypeMatcher{W: 1}
	c := testCache(t, a)
	if got := m.Score(c, a, "i", a, "i"); got != 1 {
		t.Errorf("same type = %v", got)
	}
	if got := m.Score(c, a, "i", a, "r"); got != 0.5 {
		t.Errorf("same domain = %v", got)
	}
	if got := m.Score(c, a, "i", a, "s"); got != 0 {
		t.Errorf("cross domain = %v", got)
	}
	if got := m.Score(c, a, "zz", a, "i"); got != 0 {
		t.Errorf("missing attr = %v", got)
	}
}

func TestStandardMatchesFindCorrectPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, tgt := fixture(rng, 200)
	b := bind(NewEngine(), src, tgt)
	// τ=0.25: the mixed code column scores below 0.5 confidence against
	// isbn (the false-negative effect of §3 that motivates reducing τ).
	matches := b.StandardMatches(0.25)
	if len(matches) == 0 {
		t.Fatal("no matches found")
	}
	// The best match for inv.code into table book must be isbn, and into
	// music must be asin.
	best := map[string]Match{}
	for _, m := range matches {
		key := m.SourceAttr + "→" + m.Target.Name
		if prev, ok := best[key]; !ok || m.Confidence > prev.Confidence {
			best[key] = m
		}
	}
	if got := best["code→book"]; got.TargetAttr != "isbn" {
		t.Errorf("best code→book is %q, want isbn", got.TargetAttr)
	}
	if got := best["code→music"]; got.TargetAttr != "asin" {
		t.Errorf("best code→music is %q, want asin", got.TargetAttr)
	}
	if got := best["name→book"]; got.TargetAttr != "title" {
		t.Errorf("best name→book is %q, want title", got.TargetAttr)
	}
	if got := best["price→book"]; got.TargetAttr != "price" {
		t.Errorf("best price→book is %q, want price", got.TargetAttr)
	}
}

func TestStandardMatchesTauFilters(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src, tgt := fixture(rng, 100)
	b := bind(NewEngine(), src, tgt)
	loose := b.StandardMatches(0.1)
	tight := b.StandardMatches(0.9)
	if len(tight) >= len(loose) {
		t.Errorf("raising τ should prune: %d vs %d", len(tight), len(loose))
	}
	for _, m := range tight {
		if m.Confidence < 0.9 {
			t.Errorf("match below τ leaked through: %v", m)
		}
	}
	// Sorted descending.
	for i := 1; i < len(loose); i++ {
		if loose[i].Confidence > loose[i-1].Confidence {
			t.Error("matches not sorted by confidence")
			break
		}
	}
}

func TestViewRescoringImprovesConditionedMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, tgt := fixture(rng, 300)
	b := bind(NewEngine(), src, tgt)

	_, baseConf := b.Score(src, "code", "book", "isbn")
	bookView := src.Select("V1", relational.Eq{Attr: "type", Value: relational.I(1)})
	_, viewConf := b.Score(bookView, "code", "book", "isbn")
	if viewConf <= baseConf {
		t.Errorf("restricting to books should improve code→isbn: %v vs %v", viewConf, baseConf)
	}

	// And the complementary view should hurt it.
	cdView := src.Select("V2", relational.Eq{Attr: "type", Value: relational.I(2)})
	_, wrongConf := b.Score(cdView, "code", "book", "isbn")
	if wrongConf >= viewConf {
		t.Errorf("cd view should not beat book view for isbn: %v vs %v", wrongConf, viewConf)
	}
}

func TestScoreMissingTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src, tgt := fixture(rng, 50)
	b := bind(NewEngine(), src, tgt)
	if _, conf := b.Score(src, "code", "nope", "isbn"); conf != 0 {
		t.Error("missing target table should score 0")
	}
	if _, conf := b.Score(src, "nope", "book", "isbn"); conf != 0 {
		t.Error("missing source attr should score 0")
	}
	if _, conf := b.Score(src, "code", "book", "nope"); conf != 0 {
		t.Error("missing target attr should score 0")
	}
}

func TestMatchStringAndIsStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src, tgt := fixture(rng, 20)
	book := tgt.Table("book")
	std := Match{Source: src, SourceAttr: "code", Target: book, TargetAttr: "isbn",
		Cond: relational.True{}, Confidence: 0.9}
	if !std.IsStandard() {
		t.Error("TRUE condition on base table is standard")
	}
	if s := std.String(); !strings.Contains(s, "inv.code → book.isbn") {
		t.Errorf("String = %q", s)
	}
	cond := relational.Eq{Attr: "type", Value: relational.I(1)}
	view := src.Select("V1", cond)
	ctx := Match{Source: view, SourceAttr: "code", Target: book, TargetAttr: "isbn",
		Cond: cond, Confidence: 0.95}
	if ctx.IsStandard() {
		t.Error("view match is contextual")
	}
	if s := ctx.String(); !strings.Contains(s, "[type = 1]") {
		t.Errorf("contextual String = %q", s)
	}
	nilCond := Match{Source: src, SourceAttr: "a", Target: book, TargetAttr: "b"}
	if !nilCond.IsStandard() {
		t.Error("nil condition on base table counts as standard")
	}
}

func TestSortMatchesDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src, tgt := fixture(rng, 30)
	book := tgt.Table("book")
	ms := []Match{
		{Source: src, SourceAttr: "b", Target: book, TargetAttr: "y", Confidence: 0.5},
		{Source: src, SourceAttr: "a", Target: book, TargetAttr: "x", Confidence: 0.5},
		{Source: src, SourceAttr: "a", Target: book, TargetAttr: "w", Confidence: 0.5},
		{Source: src, SourceAttr: "c", Target: book, TargetAttr: "z", Confidence: 0.9},
	}
	SortMatches(ms)
	if ms[0].SourceAttr != "c" {
		t.Error("highest confidence first")
	}
	if ms[1].TargetAttr != "w" || ms[2].TargetAttr != "x" || ms[3].SourceAttr != "b" {
		t.Errorf("tie-break order wrong: %v", ms)
	}
}

func TestBoundAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src, tgt := fixture(rng, 10)
	e := NewEngine()
	b := bind(e, src, tgt)
	if b.Source() != src || b.TargetSchema() != tgt || b.Engine() != e {
		t.Error("accessors broken")
	}
}
