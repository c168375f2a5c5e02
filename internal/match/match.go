// Package match implements the standard (non-contextual) schema matching
// system of §2.3 that contextual matching treats as a black box. A set of
// matchers computes raw similarity scores between attribute pairs; for
// each source attribute and matcher, the distribution of raw scores to
// all target attributes is treated as samples of a normal distribution,
// converting raw scores to confidences; per-matcher confidences are then
// combined by weight.
package match

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/stats"
	"ctxmatch/internal/tokenize"
)

// Match is the paper's match triple (RS.s, RT.t, c) plus the quality
// numbers the algorithms reason about. Cond == nil means the constant
// TRUE (a standard match). Source may be a base table or an inferred
// view.
type Match struct {
	Source     *relational.Table
	SourceAttr string
	Target     *relational.Table
	TargetAttr string
	Cond       relational.Condition

	Score      float64 // average raw matcher score s_i
	Confidence float64 // combined confidence f_i in [0,1]
}

// IsStandard reports whether the match is a standard match: TRUE
// condition on a base table (§2.1).
func (m Match) IsStandard() bool {
	if m.Source.IsView() {
		return false
	}
	if m.Cond == nil {
		return true
	}
	_, isTrue := m.Cond.(relational.True)
	return isTrue
}

// String renders the match for display, e.g.
// "inv.name → book.title [type = 1] (conf 0.93)".
func (m Match) String() string {
	s := fmt.Sprintf("%s.%s → %s.%s", m.Source.Root().Name, m.SourceAttr, m.Target.Name, m.TargetAttr)
	if !m.IsStandard() && m.Cond != nil {
		s += " [" + m.Cond.String() + "]"
	}
	return fmt.Sprintf("%s (conf %.3f)", s, m.Confidence)
}

// AttrMatcher scores the similarity of one source column against one
// target column on sample data. Scores are raw: they need not be
// comparable across matchers, only across target attributes for a fixed
// source attribute (the normalization step handles the rest).
type AttrMatcher interface {
	// Name identifies the matcher in diagnostics.
	Name() string
	// Weight is the matcher's share in confidence combination.
	Weight() float64
	// Applicable reports whether the matcher has anything meaningful to
	// say about the pair (e.g. the numeric matcher requires two
	// numeric-domain attributes). Inapplicable matchers are excluded
	// from scoring and normalization rather than contributing a
	// meaningless neutral score.
	Applicable(src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) bool
	// Score returns the raw similarity of src.srcAttr and tgt.tgtAttr.
	// Column-derived features come from cache (never nil): target
	// columns from its prepared layer, source columns memoized on first
	// use, which makes standard matching linear rather than quadratic in
	// column scans: one source column is scored against every target
	// attribute.
	Score(cache *FeatureCache, src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string) float64
}

// FeatureCache memoizes per-column derived features — interned-gram ID
// vectors, numeric slices, attribute-name gram vectors — keyed by table
// identity and attribute. A Bound owns one for the lifetime of a
// matching run; it is not safe for concurrent use. The shared
// TargetFeatures layer — immutable, so safe to read from many caches at
// once — answers target-column lookups without rescanning the catalog
// and supplies the frozen gram dictionary; grams outside the dictionary
// get per-column overflow IDs (see tokenize.VectorBuilder).
//
// Caches are pooled: Bind acquires one and Bound.Release returns it, so
// the steady-state prepared hot path reuses the maps instead of
// reallocating them per request.
type FeatureCache struct {
	shared  *TargetFeatures
	builder *tokenize.VectorBuilder
	ngrams  map[colKey]*tokenize.IDVector
	numbers map[colKey][]float64
	names   map[string]*tokenize.IDVector
	// numRanges memoizes per-column numeric [min, max] so pairwise
	// matchers combine cached ranges instead of rescanning columns.
	numRanges map[colKey][2]float64
	// rows memoizes, per source column, the indexed batch scores
	// against every target column of the shared candidate index: one
	// inverted-index retrieval replaces one merge walk per target
	// column, and the normalization pass and StandardMatches read the
	// same row.
	rows map[colKey][]float64
	// segs memoizes, per base column, the per-row tokenization encoded
	// as dense slot indices, so every candidate view's column vector
	// accumulates as a pure array-increment pass instead of re-folding
	// and re-hashing the sample's strings once per view (see
	// vectorFromSegments). slotCounts/slotTouched are the reusable
	// accumulation scratch.
	segs        map[colKey]*colSegments
	slotCounts  []float64
	slotTouched []int32
	rowIdx      []int
	// hists memoizes normalized value histograms per (column, range,
	// bins): the bin weights are a pure function of those inputs, so
	// re-scoring the same numeric column pair — every candidate view
	// against the same target column, say — reuses the counts instead of
	// re-binning. noMemo marks the parallel normalization phase, during
	// which the cache must stay read-only: histograms are then computed
	// fresh and not stored.
	hists  map[histKey][]float64
	noMemo bool
}

type histKey struct {
	col    colKey
	lo, hi float64
	bins   int
}

// colSegments is the per-row tokenization of one base column compiled
// against the frozen shared dictionary: ids holds the column's
// distinct encoded gram IDs in ascending order (dictionary IDs first,
// then the column's out-of-vocabulary grams encoded from the
// dictionary's end in first-occurrence order), and rows holds each
// row's grams as indices into ids. A nil row marks a NULL value
// (which does not count toward the n-gram value cap); a non-nil empty
// row is a value with no grams.
type colSegments struct {
	ids      []uint32
	firstOOV int
	rows     [][]int32
}

type colKey struct {
	t    *relational.Table
	attr string
}

// featureCachePool recycles caches between Bind calls; see Bound.Release.
var featureCachePool = sync.Pool{New: func() any {
	return &FeatureCache{
		builder:   tokenize.NewVectorBuilder(),
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		names:     map[string]*tokenize.IDVector{},
		numRanges: map[colKey][2]float64{},
		rows:      map[colKey][]float64{},
		segs:      map[colKey]*colSegments{},
		hists:     map[histKey][]float64{},
	}
}}

// acquireFeatureCache returns a pooled cache wired to the shared feature
// layer.
func acquireFeatureCache(tf *TargetFeatures) *FeatureCache {
	c := featureCachePool.Get().(*FeatureCache)
	c.shared = tf
	return c
}

// release clears the cache and returns it to the pool. The maps keep
// their capacity, which is what makes the steady-state hot path cheap.
func (c *FeatureCache) release() {
	clear(c.ngrams)
	clear(c.numbers)
	clear(c.names)
	clear(c.numRanges)
	clear(c.rows)
	clear(c.segs)
	clear(c.hists)
	c.noMemo = false
	c.shared = nil
	featureCachePool.Put(c)
}

// NGramVector returns the aggregate trigram ID vector of the column,
// computing it at most once per (table, attribute). maxValues caps how
// many values are folded in (0 = all); the cap is part of the column's
// identity only on first use, matching ValueNGramMatcher's single
// configuration per engine.
func (c *FeatureCache) NGramVector(t *relational.Table, attr string, maxValues int) *tokenize.IDVector {
	key := colKey{t, attr}
	if maxValues == c.shared.maxValues {
		if v, ok := c.shared.ngrams[key]; ok {
			return v
		}
	}
	if v, ok := c.ngrams[key]; ok {
		return v
	}
	var vec *tokenize.IDVector
	switch {
	case c.shared.index != nil && t.IsView() && len(t.Projection) == 0 &&
		len(t.Rows) > 0 && len(t.SelectedRows) == len(t.Rows):
		// len(t.Rows) > 0 matters: a zero-row view has nil SelectedRows,
		// which vectorFromSegments would otherwise read as "all rows".
		vec = c.vectorFromSegments(t.Base, attr, maxValues, t.SelectedRows)
	case c.shared.index != nil && !t.IsView():
		// Base columns also assemble from their own segments: the
		// column is tokenized once (segmentsFor) and both its aggregate
		// vector and every view over it become integer passes.
		vec = c.vectorFromSegments(t, attr, maxValues, nil)
	default:
		vec = buildColumnVector(c.builder, c.shared.dict, t, attr, maxValues)
	}
	c.ngrams[key] = vec
	return vec
}

// emptySeg marks a non-NULL row that tokenizes to no grams, keeping it
// distinct from the nil segment of a NULL row (which does not count
// toward the n-gram value cap).
var emptySeg = []uint32{}

// segmentsFor returns (compiling on first use) the slot-encoded
// per-row segments of one base column; see colSegments.
func (c *FeatureCache) segmentsFor(t *relational.Table, attr string) *colSegments {
	key := colKey{t, attr}
	if s, ok := c.segs[key]; ok {
		return s
	}
	segs := compileSegments(c.shared.dict, t, attr)
	c.segs[key] = segs
	return segs
}

// compileSegments tokenizes one column once and slot-encodes every
// row's grams; see colSegments. It only reads the (frozen) dictionary,
// so compilations for different columns may run concurrently.
func compileSegments(d *tokenize.Dict, t *relational.Table, attr string) *colSegments {
	segs := &colSegments{rows: make([][]int32, len(t.Rows))}
	i := t.AttrIndex(attr)
	if i >= 0 {
		oovBase := uint32(d.Len())
		oov := map[string]uint32{}
		raw := make([][]uint32, len(t.Rows))
		distinct := map[uint32]struct{}{}
		for ri, row := range t.Rows {
			v := row[i]
			if v.IsNull() {
				continue
			}
			seg := emptySeg
			for g := range tokenize.TrigramSeq(v.Str()) {
				id, ok := d.Lookup(g)
				if !ok {
					id, ok = oov[g]
					if !ok {
						id = oovBase + uint32(len(oov))
						oov[g] = id
					}
				}
				seg = append(seg, id)
				distinct[id] = struct{}{}
			}
			raw[ri] = seg
		}
		segs.ids = make([]uint32, 0, len(distinct))
		for id := range distinct {
			segs.ids = append(segs.ids, id)
		}
		slices.Sort(segs.ids)
		segs.firstOOV = len(segs.ids)
		slotOf := make(map[uint32]int32, len(segs.ids))
		for slot, id := range segs.ids {
			slotOf[id] = int32(slot)
			if id >= oovBase && slot < segs.firstOOV {
				segs.firstOOV = slot
			}
		}
		for ri, seg := range raw {
			if seg == nil {
				continue
			}
			out := make([]int32, len(seg))
			for k, id := range seg {
				out[k] = slotOf[id]
			}
			segs.rows[ri] = out
		}
	}
	return segs
}

// vectorFromSegments accumulates the trigram vector of a column from
// base's slot-encoded segments over the selected row indices (nil
// selects every row — the base column itself): a pure array-increment
// pass with no string folding or hashing, bit-identical to
// re-tokenizing the selection. Known-gram slots materialize in
// ascending ID order and out-of-vocabulary slots in the selection's
// first-touch order with IDs assigned from the frozen dictionary's end
// — exactly the IDs, sort order and norm summation order
// VectorBuilder.AddGram + Build would have produced.
func (c *FeatureCache) vectorFromSegments(base *relational.Table, attr string, maxValues int, selected []int) *tokenize.IDVector {
	segs := c.segmentsFor(base, attr)
	if cap(c.slotCounts) < len(segs.ids) {
		c.slotCounts = make([]float64, len(segs.ids))
	}
	if selected == nil {
		selected = c.allRows(len(segs.rows))
	}
	vec, touched := segs.vector(uint32(c.shared.dict.Len()), selected, maxValues,
		c.slotCounts[:len(segs.ids)], c.slotTouched[:0])
	c.slotTouched = touched[:0] // keep the grown capacity
	return vec
}

// vector accumulates the selection's trigram vector from the segments
// using caller-supplied scratch (counts zeroed, len == len(segs.ids);
// touched empty). It returns the scratch touched slice (zeroed again)
// so callers can recycle its capacity.
func (segs *colSegments) vector(oovBase uint32, selected []int, maxValues int, counts []float64, touched []int32) (*tokenize.IDVector, []int32) {
	if len(segs.ids) == 0 {
		return tokenize.NewIDVector(nil, nil, 0), touched
	}
	n := 0
	for _, ri := range selected {
		row := segs.rows[ri]
		if row == nil {
			continue // NULL in the base row
		}
		for _, slot := range row {
			if counts[slot] == 0 {
				touched = append(touched, slot)
			}
			counts[slot]++
		}
		n++
		if maxValues > 0 && n >= maxValues {
			break
		}
	}
	if len(touched) == 0 {
		return tokenize.NewIDVector(nil, nil, 0), touched
	}
	ids := make([]uint32, 0, len(touched))
	cs := make([]float64, 0, len(touched))
	var norm2 float64
	// Known grams: ascending slot order is ascending ID order.
	for slot := 0; slot < segs.firstOOV; slot++ {
		if counts[slot] == 0 {
			continue
		}
		ids = append(ids, segs.ids[slot])
		cs = append(cs, counts[slot])
		norm2 += counts[slot] * counts[slot]
	}
	// OOV grams: IDs assigned from the dictionary's end in the
	// selection's first-touch order, which is also their ascending
	// final-ID order.
	nOOV := uint32(0)
	for _, slot := range touched {
		if int(slot) < segs.firstOOV {
			continue
		}
		ids = append(ids, oovBase+nOOV)
		nOOV++
		cs = append(cs, counts[slot])
		norm2 += counts[slot] * counts[slot]
	}
	for _, slot := range touched {
		counts[slot] = 0
	}
	return tokenize.NewIDVector(ids, cs, math.Sqrt(norm2)), touched
}

// Numeric returns the column's numeric values, computed at most once per
// (table, attribute).
func (c *FeatureCache) Numeric(t *relational.Table, attr string) []float64 {
	key := colKey{t, attr}
	if v, ok := c.shared.numbers[key]; ok {
		return v
	}
	if v, ok := c.numbers[key]; ok {
		return v
	}
	out := numericColumn(t, attr)
	c.numbers[key] = out
	return out
}

// NumericRange returns the [min, max] of the column's numeric values
// (+Inf, -Inf when empty). Min over cached per-column minima equals min
// over the concatenated scan bit-for-bit, so matchers can combine two
// columns' cached ranges instead of rescanning both columns per pair —
// the scan that made numeric scoring quadratic in catalog width. The
// per-column statistics are part of the candidate-generation subsystem:
// an Exhaustive engine's shared layer carries none, and its runs
// rescan per call, measuring the baseline §2.3 loop faithfully.
func (c *FeatureCache) NumericRange(t *relational.Table, attr string) (lo, hi float64) {
	key := colKey{t, attr}
	if r, ok := c.shared.numRanges[key]; ok {
		return r[0], r[1]
	}
	if c.shared.index == nil {
		r := numericRange(c.Numeric(t, attr))
		return r[0], r[1]
	}
	if r, ok := c.numRanges[key]; ok {
		return r[0], r[1]
	}
	r := numericRange(c.Numeric(t, attr))
	c.numRanges[key] = r
	return r[0], r[1]
}

// Histogram returns the column's bins-bin normalized value histogram
// over [lo, hi) (last bin closed), memoized per (column, range, bins).
// hi must be strictly greater than lo. The bin expression matches the
// inline loop NumericMatcher historically used bit-for-bit, so memoized
// reuse cannot move a score.
func (c *FeatureCache) Histogram(t *relational.Table, attr string, lo, hi float64, bins int) []float64 {
	key := histKey{colKey{t, attr}, lo, hi, bins}
	if h, ok := c.hists[key]; ok {
		return h
	}
	vals := c.Numeric(t, attr)
	h := make([]float64, bins)
	for _, v := range vals {
		i := int(float64(bins) * (v - lo) / (hi - lo))
		if i >= bins {
			i = bins - 1
		}
		h[i] += 1 / float64(len(vals))
	}
	if !c.noMemo {
		c.hists[key] = h
	}
	return h
}

// NameVector returns the trigram ID vector of an attribute name,
// computed at most once per distinct name, so the name matcher stops
// re-tokenizing the same identifiers for every scored pair.
func (c *FeatureCache) NameVector(name string) *tokenize.IDVector {
	if v, ok := c.shared.names[name]; ok {
		return v
	}
	if v, ok := c.names[name]; ok {
		return v
	}
	c.builder.AddTrigrams(c.shared.dict, name)
	v := c.builder.Build()
	c.names[name] = v
	return v
}

// NGramCosine returns the cosine similarity of the two columns'
// aggregate trigram vectors. When the shared layer's candidate index
// covers the target column, the source column is batch-scored against
// every indexed column in one inverted-index retrieval (memoized in
// rows, so the normalization pass pays it once and every later pair
// lookup — including every rescoring of the same column — is O(1));
// otherwise it falls back to the pairwise merge walk. Both paths
// produce bit-identical values — the index accumulates each column's
// dot product in the merge walk's own summation order, and columns
// sharing no gram score exactly 0 either way.
func (c *FeatureCache) NGramCosine(src *relational.Table, srcAttr string, tgt *relational.Table, tgtAttr string, maxValues int) float64 {
	if c.shared.index != nil && maxValues == c.shared.maxValues {
		if ci, ok := c.shared.colDense[colKey{tgt, tgtAttr}]; ok {
			return c.scoreRow(src, srcAttr, maxValues)[ci]
		}
	}
	return tokenize.CosineIDs(
		c.NGramVector(src, srcAttr, maxValues),
		c.NGramVector(tgt, tgtAttr, maxValues),
	)
}

// scoreRow returns the memoized indexed scores of one source column
// against every column of the shared candidate index. No single-entry
// shortcut state here: the parallel normalization pass calls this
// concurrently on a prewarmed (and therefore read-only) rows map, so
// scoreRow must not write anything when it hits.
func (c *FeatureCache) scoreRow(src *relational.Table, srcAttr string, maxValues int) []float64 {
	key := colKey{src, srcAttr}
	if row, ok := c.rows[key]; ok {
		return row
	}
	row := make([]float64, c.shared.index.Columns())
	c.shared.index.ScoreColumnsFresh(c.NGramVector(src, srcAttr, maxValues), row)
	c.rows[key] = row
	return row
}

// allRows returns the identity row selection [0, n), reusing (and
// growing) a cached slice.
func (c *FeatureCache) allRows(n int) []int {
	if cap(c.rowIdx) < n {
		c.rowIdx = make([]int, n)
		for i := range c.rowIdx {
			c.rowIdx[i] = i
		}
	}
	return c.rowIdx[:n]
}

// Engine bundles a matcher set. The zero value is unusable; construct
// with NewEngine (default matcher suite) or assemble Matchers directly.
//
// An Engine is safe for concurrent Bind calls once assembled: Bind only
// reads the matcher set, matchers are stateless values, and every Bound
// owns a private FeatureCache. Mutating Matchers or EvidenceScale while
// Binds are in flight is the caller's race.
type Engine struct {
	Matchers []AttrMatcher
	// EvidenceScale gates relative confidence by absolute evidence: a
	// matcher's confidence is Φ(z) · (1 - exp(-raw/EvidenceScale)), so a
	// pair whose raw score is near zero cannot become confident merely
	// by being the best of a bad lot. Zero or negative disables the
	// gate, restoring the pure §2.3 normalization (exposed for the
	// ablation benchmarks).
	EvidenceScale float64
	// Exhaustive disables the inverted gram-ID candidate index:
	// PrecomputeTarget skips building it and every pair falls back to
	// the per-pair merge-walk cosine. Scores are bit-identical either
	// way; the flag exists so benchmarks and property tests can pit the
	// indexed path against the exhaustive one.
	Exhaustive bool
}

// NewEngine returns an engine with the default matcher suite: attribute
// name similarity, instance 3-gram similarity, numeric distribution
// similarity, and declared-type compatibility — the kinds of evidence
// enumerated in §1 and §2.3. Instance-based matchers carry most of the
// weight: contextual matching works by re-scoring instance evidence
// under candidate views, and schema-level scores are invariant under
// view restriction.
func NewEngine() *Engine {
	return &Engine{
		Matchers: []AttrMatcher{
			NameMatcher{W: 0.15},
			ValueNGramMatcher{W: 1.0},
			NumericMatcher{W: 1.0},
			TypeMatcher{W: 0.05},
		},
		EvidenceScale: 0.08,
	}
}

// Bound is an engine bound to one source table and a target schema, with
// the per-(source attribute, matcher) normalization statistics of §2.3
// precomputed over the base sample. ContextMatch keeps the Bound around
// so view re-scoring (ScoreMatch in Figure 5) reuses the base attribute's
// score distribution, as the strawman discussion prescribes.
type Bound struct {
	engine *Engine
	src    *relational.Table
	tgt    *relational.Schema
	cache  *FeatureCache

	targets []relational.AttrRef
	// norm[matcher][srcAttr] = (mean, std) of raw scores from srcAttr to
	// every target attribute.
	norm []map[string]normStat
}

type normStat struct{ mu, sigma float64 }

// Bind precomputes the §2.3 normalization statistics for matching src
// against all tables of tgt. tf is tgt's prepared feature layer (see
// PrecomputeTarget), whose dictionary must be frozen: target columns
// are read from it and never rescanned, and source grams outside its
// dictionary get per-column overflow IDs. The source-side work — column
// feature extraction and per-(matcher, source attribute) normalization
// — fans across up to workers goroutines. Output is bit-identical at
// any worker count: each (matcher, attribute) accumulation runs
// entirely inside one task, in target order.
//
// The parallel path requires tf to have been built for tgt under this
// engine (so the normalization pass is read-only on the cache) and an
// engine whose matchers touch only domain-appropriate cache accessors,
// as the built-in suite does; otherwise workers degrade to 1.
func (e *Engine) Bind(src *relational.Table, tgt *relational.Schema, tf *TargetFeatures, workers int) *Bound {
	b := &Bound{engine: e, src: src, tgt: tgt, cache: acquireFeatureCache(tf)}
	for _, tt := range tgt.Tables {
		for _, a := range tt.Attrs {
			b.targets = append(b.targets, relational.AttrRef{Table: tt.Name, Attr: a.Name})
		}
	}
	if workers > len(src.Attrs) {
		workers = len(src.Attrs)
	}
	if workers > 1 && tf.covers(tgt, e.ngramMaxValues()) {
		b.prewarmParallel(workers)
		b.cache.noMemo = true
		b.normalizeParallel(workers)
		b.cache.noMemo = false
	} else {
		b.normalizeSequential()
	}
	return b
}

// BindParallel is Bind under its former name, kept only because the
// benchmark harness (perfbench/replay.go) calls it. Remove it with the
// next change to perfbench.
func (e *Engine) BindParallel(src *relational.Table, tgt *relational.Schema, tf *TargetFeatures, workers int) *Bound {
	return e.Bind(src, tgt, tf, workers)
}

// normalizeSequential computes the §2.3 normalization statistics in
// schema order on the calling goroutine.
func (b *Bound) normalizeSequential() {
	b.norm = make([]map[string]normStat, len(b.engine.Matchers))
	for mi, m := range b.engine.Matchers {
		b.norm[mi] = make(map[string]normStat, len(b.src.Attrs))
		for _, sa := range b.src.Attrs {
			b.norm[mi][sa.Name] = b.normalizeOne(m, sa.Name, b.cache)
		}
	}
}

// normalizeOne accumulates one (matcher, source attribute) score
// distribution over every target attribute.
func (b *Bound) normalizeOne(m AttrMatcher, srcAttr string, cache *FeatureCache) normStat {
	var acc stats.Moments
	// A zero pseudo-observation anchors the distribution at the
	// "unrelated column" score. With many target attributes it
	// is negligible; with very few it keeps the sample from
	// degenerating (two real scores pin the better one at z=+1
	// no matter how raw scores move under a view).
	acc.Add(0)
	for _, ref := range b.targets {
		tt := b.tgt.Table(ref.Table)
		if m.Applicable(b.src, srcAttr, tt, ref.Attr) {
			acc.Add(m.Score(cache, b.src, srcAttr, tt, ref.Attr))
		}
	}
	sigma := acc.Std()
	if sigma < minNormSigma {
		sigma = minNormSigma
	}
	return normStat{mu: acc.Mean(), sigma: sigma}
}

// ForEachIndex fans fn over the indices [0, n) across up to workers
// goroutines and waits for all of them. Each index is handed to exactly
// one worker, so fn may write to the i-th slot of a shared results
// slice without synchronization; per-index slots plus an in-order merge
// after return is the deterministic fan-out shape the whole pipeline
// uses. workers ≤ 1 (or n ≤ 1) runs inline on the calling goroutine.
func ForEachIndex(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// prewarmParallel builds every source-column feature the normalization
// pass can touch — n-gram vectors for string columns, numeric slices
// for number columns, name vectors for all attributes — fanning columns
// across workers. Each task uses its own builder and writes into its
// own slot; the results merge into the cache maps on the calling
// goroutine, after which the cache is effectively read-only for the
// built-in matcher suite.
func (b *Bound) prewarmParallel(workers int) {
	type slot struct {
		vec    *tokenize.IDVector
		segs   *colSegments
		row    []float64
		nums   []float64
		numsOK bool
		rng    [2]float64
		name   *tokenize.IDVector
	}
	attrs := b.src.Attrs
	slots := make([]slot, len(attrs))
	var builders sync.Pool
	builders.New = func() any { return tokenize.NewVectorBuilder() }
	ix := b.cache.shared.index
	dict := b.cache.shared.dict
	dictLen := uint32(dict.Len())
	allRows := b.cache.allRows(len(b.src.Rows))
	ForEachIndex(len(attrs), workers, func(i int) {
		builder := builders.Get().(*tokenize.VectorBuilder)
		defer builders.Put(builder)
		a := attrs[i]
		switch a.Type.Domain() {
		case relational.DomainString:
			if ix != nil {
				// Compile the column's per-row segments once (worker-local
				// scratch) and derive the vector and the indexed score
				// row from them, so the normalization pass — and every
				// candidate view over this column — stays read-only on
				// the cache.
				slots[i].segs = compileSegments(dict, b.src, a.Name)
				slots[i].vec, _ = slots[i].segs.vector(dictLen, allRows,
					b.cache.shared.maxValues,
					make([]float64, len(slots[i].segs.ids)), nil)
				slots[i].row = make([]float64, ix.Columns())
				ix.ScoreColumns(slots[i].vec, slots[i].row)
			} else {
				slots[i].vec = buildColumnVector(builder, dict, b.src, a.Name, b.cache.shared.maxValues)
			}
		case relational.DomainNumber:
			slots[i].nums = numericColumn(b.src, a.Name)
			slots[i].numsOK = true
			if ix != nil {
				// Range statistics ride with the candidate subsystem;
				// the Exhaustive baseline rescans per pair and would
				// never read this.
				slots[i].rng = numericRange(slots[i].nums)
			}
		}
		if _, ok := b.cache.shared.names[a.Name]; !ok {
			builder.AddTrigrams(dict, a.Name)
			slots[i].name = builder.Build()
		}
	})
	for i, a := range attrs {
		if slots[i].vec != nil {
			b.cache.ngrams[colKey{b.src, a.Name}] = slots[i].vec
		}
		if slots[i].segs != nil {
			b.cache.segs[colKey{b.src, a.Name}] = slots[i].segs
		}
		if slots[i].row != nil {
			b.cache.rows[colKey{b.src, a.Name}] = slots[i].row
		}
		if slots[i].numsOK {
			b.cache.numbers[colKey{b.src, a.Name}] = slots[i].nums
			if ix != nil {
				b.cache.numRanges[colKey{b.src, a.Name}] = slots[i].rng
			}
		}
		if slots[i].name != nil {
			b.cache.names[a.Name] = slots[i].name
		}
	}
}

// normalizeParallel fans the per-(matcher, source attribute)
// normalization accumulations across workers. The cache must already be
// warm (prewarmParallel) so every Score call is a read; results land in
// indexed slots and merge deterministically.
func (b *Bound) normalizeParallel(workers int) {
	matchers := b.engine.Matchers
	attrs := b.src.Attrs
	slots := make([]normStat, len(matchers)*len(attrs))
	ForEachIndex(len(slots), workers, func(i int) {
		mi, ai := i/len(attrs), i%len(attrs)
		slots[i] = b.normalizeOne(matchers[mi], attrs[ai].Name, b.cache)
	})
	b.norm = make([]map[string]normStat, len(matchers))
	for mi := range matchers {
		b.norm[mi] = make(map[string]normStat, len(attrs))
		for ai, sa := range attrs {
			b.norm[mi][sa.Name] = slots[mi*len(attrs)+ai]
		}
	}
}

// Clone returns a Bound sharing the receiver's engine, source, targets
// and normalization statistics but owning a fresh pooled FeatureCache,
// so concurrent candidate-view scoring can proceed with one clone per
// worker. The clone's cache starts seeded with the parent's per-column
// artifacts — vectors, numeric features, score rows, compiled segments
// — all immutable once built, so clones never re-tokenize the columns
// the parent already compiled. The parent's cache must be past its
// write phase (Bind has returned) when Clone is called, which is when
// candidate scoring clones. Release each clone independently.
func (b *Bound) Clone() *Bound {
	c := acquireFeatureCache(b.cache.shared)
	maps.Copy(c.ngrams, b.cache.ngrams)
	maps.Copy(c.numbers, b.cache.numbers)
	maps.Copy(c.names, b.cache.names)
	maps.Copy(c.numRanges, b.cache.numRanges)
	maps.Copy(c.rows, b.cache.rows)
	maps.Copy(c.segs, b.cache.segs)
	maps.Copy(c.hists, b.cache.hists)
	return &Bound{
		engine:  b.engine,
		src:     b.src,
		tgt:     b.tgt,
		cache:   c,
		targets: b.targets,
		norm:    b.norm,
	}
}

// Release returns the Bound's FeatureCache to the pool. The Bound (and
// any feature vector obtained through its cache) must not be used
// afterwards. Release is not idempotent; call it exactly once, and only
// on Bounds whose scoring is complete.
func (b *Bound) Release() {
	if b.cache != nil {
		b.cache.release()
		b.cache = nil
	}
}

// minNormSigma floors the normalization deviation so that a source
// attribute whose scores are all nearly equal does not turn microscopic
// raw differences into extreme confidences.
const minNormSigma = 0.05

// Score evaluates the (possibly view-restricted) source column against a
// target column and returns the average raw score and combined
// confidence. srcView must be the bound source table or a view whose
// Root is the bound source table: the normalization statistics of the
// base attribute are reused either way.
func (b *Bound) Score(srcView *relational.Table, srcAttr string, tgtTable, tgtAttr string) (score, confidence float64) {
	tt := b.tgt.Table(tgtTable)
	if tt == nil || srcView.AttrIndex(srcAttr) < 0 || tt.AttrIndex(tgtAttr) < 0 {
		return 0, 0
	}
	var totalScore, totalConf, totalWeight float64
	applicable := 0
	for mi, m := range b.engine.Matchers {
		if !m.Applicable(srcView, srcAttr, tt, tgtAttr) {
			continue
		}
		applicable++
		raw := m.Score(b.cache, srcView, srcAttr, tt, tgtAttr)
		conf := b.confidence(raw, b.norm[mi][srcAttr])
		w := m.Weight()
		totalScore += w * raw
		totalConf += w * conf
		totalWeight += w
	}
	if applicable == 0 || totalWeight == 0 {
		return 0, 0
	}
	// Both the average score and the confidence are weighted by matcher
	// weight, so the instance-based matchers dominate: a view that
	// doubles the instance evidence should register in the score even
	// though the schema-level matchers are invariant under views.
	return totalScore / totalWeight, totalConf / totalWeight
}

// ResolvedPair is one (source attribute, target attribute) pair with
// every view-invariant lookup of Score hoisted out: the target table
// resolution, the per-matcher applicability (a function of declared
// attribute types only, which select-only views share with their base
// table), and the normalization statistics. Rescoring the same pair
// under many candidate views — the inner loop of contextual matching —
// then skips all of the repeated string-keyed traffic. Build with
// Bound.Resolve; the value is immutable and shareable across the
// Bound's clones, whose engine and statistics it snapshots.
type ResolvedPair struct {
	srcAttr, tgtAttr string
	tt               *relational.Table
	appl             uint64 // bit mi set: matcher mi applicable
	konst            uint64 // bit mi set: ms[mi].raw/conf precomputed
	ms               []resolvedMatcher
	ok               bool
}

// resolvedMatcher is one matcher's pair-constant state: its
// normalization statistics, and — for view-invariant matchers — its
// precomputed raw score and confidence.
type resolvedMatcher struct {
	ns        normStat
	raw, conf float64
}

// viewInvariantMatcher is an optional AttrMatcher extension: a matcher
// returning true scores purely on declared metadata (attribute names,
// types), so its raw score for a pair is the same under the base table
// and every select-only view of it, and Resolve computes it once.
type viewInvariantMatcher interface {
	ViewInvariant() bool
}

// Resolve precomputes the ResolvedPair for one attribute pair. An
// unknown table or attribute yields a pair that scores (0, 0), exactly
// like Score's own validation.
func (b *Bound) Resolve(srcAttr, tgtTable, tgtAttr string) ResolvedPair {
	tt := b.tgt.Table(tgtTable)
	if tt == nil || b.src.AttrIndex(srcAttr) < 0 || tt.AttrIndex(tgtAttr) < 0 {
		return ResolvedPair{}
	}
	rp := ResolvedPair{
		srcAttr: srcAttr,
		tgtAttr: tgtAttr,
		tt:      tt,
		ms:      make([]resolvedMatcher, len(b.engine.Matchers)),
		ok:      true,
	}
	for mi, m := range b.engine.Matchers {
		if !m.Applicable(b.src, srcAttr, tt, tgtAttr) {
			continue
		}
		rp.appl |= 1 << uint(mi)
		ns := b.norm[mi][srcAttr]
		rp.ms[mi].ns = ns
		if vi, okVI := m.(viewInvariantMatcher); okVI && vi.ViewInvariant() {
			raw := m.Score(b.cache, b.src, srcAttr, tt, tgtAttr)
			rp.ms[mi].raw = raw
			rp.ms[mi].conf = b.confidence(raw, ns)
			rp.konst |= 1 << uint(mi)
		}
	}
	return rp
}

// confidence maps one matcher's raw score through its normalization
// statistics (and the optional evidence discount) — the shared tail of
// Score, ScoreResolved, Resolve and Explain.
func (b *Bound) confidence(raw float64, ns normStat) float64 {
	conf := stats.NormalCDF(raw, ns.mu, ns.sigma)
	if b.engine.EvidenceScale > 0 {
		conf *= 1 - math.Exp(-raw/b.engine.EvidenceScale)
	}
	return conf
}

// ScoreResolved is Score over a precomputed ResolvedPair: bit-identical
// output, minus the per-call table/statistics lookups, applicability
// re-checks, and re-scoring of view-invariant matchers. The
// accumulation visits matchers in the same order with the same values,
// so the floating-point result cannot diverge from Score's. srcView
// must obey Score's contract (the bound source table or a select-only
// view over it — which is also what makes the resolved applicability
// and the precomputed metadata scores valid for it).
func (b *Bound) ScoreResolved(srcView *relational.Table, rp *ResolvedPair) (score, confidence float64) {
	if !rp.ok {
		return 0, 0
	}
	var totalScore, totalConf, totalWeight float64
	applicable := 0
	for mi, m := range b.engine.Matchers {
		bit := uint64(1) << uint(mi)
		if rp.appl&bit == 0 {
			continue
		}
		applicable++
		var raw, conf float64
		if rp.konst&bit != 0 {
			raw, conf = rp.ms[mi].raw, rp.ms[mi].conf
		} else {
			raw = m.Score(b.cache, srcView, rp.srcAttr, rp.tt, rp.tgtAttr)
			conf = b.confidence(raw, rp.ms[mi].ns)
		}
		w := m.Weight()
		totalScore += w * raw
		totalConf += w * conf
		totalWeight += w
	}
	if applicable == 0 || totalWeight == 0 {
		return 0, 0
	}
	return totalScore / totalWeight, totalConf / totalWeight
}

// StandardMatches runs the standard matcher (§2.3): it scores every
// (source attribute, target attribute) pair and returns those whose
// combined confidence is at least tau, sorted by descending confidence
// (ties broken deterministically).
func (b *Bound) StandardMatches(tau float64) []Match {
	var out []Match
	for _, sa := range b.src.Attrs {
		for _, ref := range b.targets {
			score, conf := b.Score(b.src, sa.Name, ref.Table, ref.Attr)
			if conf < tau {
				continue
			}
			out = append(out, Match{
				Source:     b.src,
				SourceAttr: sa.Name,
				Target:     b.tgt.Table(ref.Table),
				TargetAttr: ref.Attr,
				Cond:       relational.True{},
				Score:      score,
				Confidence: conf,
			})
		}
	}
	SortMatches(out)
	return out
}

// Source returns the bound source table.
func (b *Bound) Source() *relational.Table { return b.src }

// TargetSchema returns the bound target schema.
func (b *Bound) TargetSchema() *relational.Schema { return b.tgt }

// Explanation is one matcher's contribution to a pair's combined
// confidence, for diagnostics.
type Explanation struct {
	Matcher    string
	Weight     float64
	Raw        float64 // raw similarity score
	Confidence float64 // normalized (and evidence-gated) confidence
}

// Explain returns the per-matcher breakdown for one attribute pair.
// Inapplicable matchers are omitted.
func (b *Bound) Explain(srcView *relational.Table, srcAttr, tgtTable, tgtAttr string) []Explanation {
	tt := b.tgt.Table(tgtTable)
	if tt == nil {
		return nil
	}
	var out []Explanation
	for mi, m := range b.engine.Matchers {
		if !m.Applicable(srcView, srcAttr, tt, tgtAttr) {
			continue
		}
		raw := m.Score(b.cache, srcView, srcAttr, tt, tgtAttr)
		out = append(out, Explanation{
			Matcher:    m.Name(),
			Weight:     m.Weight(),
			Raw:        raw,
			Confidence: b.confidence(raw, b.norm[mi][srcAttr]),
		})
	}
	return out
}

// SortMatches orders matches by descending confidence, breaking ties by
// source attribute, target table and target attribute so output is
// stable across runs.
func SortMatches(ms []Match) {
	slices.SortStableFunc(ms, func(a, b Match) int {
		if a.Confidence != b.Confidence {
			return cmp.Compare(b.Confidence, a.Confidence)
		}
		if c := strings.Compare(a.SourceAttr, b.SourceAttr); c != 0 {
			return c
		}
		if c := strings.Compare(a.Target.Name, b.Target.Name); c != 0 {
			return c
		}
		return strings.Compare(a.TargetAttr, b.TargetAttr)
	})
}

// Engine returns the engine the Bound was created from.
func (b *Bound) Engine() *Engine { return b.engine }
