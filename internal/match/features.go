package match

import (
	"math"
	"sync"
	"sync/atomic"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetPrecomputes counts PrecomputeTarget invocations process-wide,
// so tests can assert that prepared-target matching rescans no catalog
// columns.
var targetPrecomputes atomic.Int64

// TargetPrecomputes returns how many times a target feature layer has
// been computed in this process.
func TargetPrecomputes() int64 { return targetPrecomputes.Load() }

// TargetFeatures holds the per-column derived features of one target
// schema — interned-gram ID vectors for string columns, numeric slices
// for number columns, attribute-name gram vectors — plus the gram
// dictionary they are keyed by, all precomputed once so that repeated
// Bind calls against the same long-lived target catalog skip the column
// scans and share one ID space. The struct is immutable after the
// owning dictionary is frozen and is then safe to share between
// concurrent Bounds.
type TargetFeatures struct {
	tgt       *relational.Schema
	maxValues int
	dict      *tokenize.Dict
	ngrams    map[colKey]*tokenize.IDVector
	numbers   map[colKey][]float64
	numRanges map[colKey][2]float64
	names     map[string]*tokenize.IDVector

	// colOrder records, per string column, the shared-dictionary IDs of
	// the column's distinct grams in first-appearance (column-local
	// insertion) order — the MergeInto remap of the build. A delta
	// rebuild replays this order to reassign untouched columns' grams
	// into a fresh dictionary without rescanning any rows. Nil on layers
	// restored from snapshots, which therefore cannot delta-update.
	colOrder map[colKey][]uint32

	// strCols lists the string-domain target columns in schema order —
	// the dense column numbering of the candidate index — and colDense
	// inverts it. index is the inverted gram-ID candidate index over
	// those columns (nil when the engine runs Exhaustive).
	strCols  []colKey
	colDense map[colKey]int
	index    *tokenize.Index
}

// PrecomputeTarget scans every column of tgt once and returns the shared
// feature set for the engine's configured matchers, interning all
// catalog grams into d, which must still be building. The caller
// freezes d once every artifact sharing the ID space (e.g. frozen
// classifiers) has been compiled into it; Bind requires a frozen
// layer. The n-gram value cap is taken from the engine's
// ValueNGramMatcher so every layer vector carries the cap Bind scores
// under.
//
// The per-column scans fan across up to workers goroutines. Each
// column's grams are interned into a column-local dictionary, and the
// locals merge into d sequentially in schema order — reproducing
// exactly the ID assignment of a single sequential pass, so the
// resulting feature layer is bit-identical at any worker count.
// Attribute-name vectors intern after every column (the canonical
// order all worker counts share), and the candidate index builds last,
// over the final vectors.
func (e *Engine) PrecomputeTarget(tgt *relational.Schema, d *tokenize.Dict, workers int) *TargetFeatures {
	targetPrecomputes.Add(1)
	tf := &TargetFeatures{
		tgt:       tgt,
		maxValues: e.ngramMaxValues(),
		dict:      d,
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		numRanges: map[colKey][2]float64{},
		names:     map[string]*tokenize.IDVector{},
		colOrder:  map[colKey][]uint32{},
	}
	if tgt == nil {
		return tf
	}
	type job struct {
		t      *relational.Table
		attr   string
		domain relational.Domain
	}
	var jobs []job
	for _, tt := range tgt.Tables {
		for _, a := range tt.Attrs {
			if dom := a.Type.Domain(); dom == relational.DomainString || dom == relational.DomainNumber {
				jobs = append(jobs, job{tt, a.Name, dom})
			}
		}
	}
	type slot struct {
		local *tokenize.Dict
		vec   *tokenize.IDVector
		nums  []float64
	}
	slots := make([]slot, len(jobs))
	var builders sync.Pool
	builders.New = func() any { return tokenize.NewVectorBuilder() }
	ForEachIndex(len(jobs), workers, func(i int) {
		b := builders.Get().(*tokenize.VectorBuilder)
		defer builders.Put(b)
		j := jobs[i]
		switch j.domain {
		case relational.DomainString:
			ld := tokenize.NewDict()
			slots[i] = slot{local: ld, vec: buildColumnVector(b, ld, j.t, j.attr, tf.maxValues)}
		case relational.DomainNumber:
			slots[i] = slot{nums: numericColumn(j.t, j.attr)}
		}
	})
	for i, j := range jobs {
		key := colKey{j.t, j.attr}
		switch j.domain {
		case relational.DomainString:
			remap := slots[i].local.MergeInto(d)
			tf.ngrams[key] = tokenize.Remapped(slots[i].vec, remap)
			tf.colOrder[key] = remap
			tf.strCols = append(tf.strCols, key)
		case relational.DomainNumber:
			tf.numbers[key] = slots[i].nums
			if !e.Exhaustive {
				// Per-column range statistics ride with the candidate
				// subsystem; the Exhaustive baseline rescans per pair.
				tf.numRanges[key] = numericRange(slots[i].nums)
			}
		}
	}
	b := tokenize.NewVectorBuilder()
	for _, tt := range tgt.Tables {
		for _, a := range tt.Attrs {
			if _, ok := tf.names[a.Name]; !ok {
				b.AddTrigrams(d, a.Name)
				tf.names[a.Name] = b.Build()
			}
		}
	}
	if !e.Exhaustive && len(tf.strCols) > 0 {
		cols := make([]*tokenize.IDVector, len(tf.strCols))
		tf.colDense = make(map[colKey]int, len(tf.strCols))
		for i, key := range tf.strCols {
			cols[i] = tf.ngrams[key]
			tf.colDense[key] = i
		}
		tf.index = tokenize.BuildIndex(cols, d.Len())
	}
	return tf
}

// buildColumnVector aggregates the trigram vector of one column through
// the shared builder: at most maxValues non-null values (0 = all). Rows
// are walked in place — no intermediate column slice.
func buildColumnVector(b *tokenize.VectorBuilder, d *tokenize.Dict, t *relational.Table, attr string, maxValues int) *tokenize.IDVector {
	i := t.AttrIndex(attr)
	if i < 0 {
		return b.Build()
	}
	n := 0
	for _, row := range t.Rows {
		v := row[i]
		if v.IsNull() {
			continue
		}
		b.AddTrigrams(d, v.Str())
		n++
		if maxValues > 0 && n >= maxValues {
			break
		}
	}
	return b.Build()
}

// numericRange returns the [min, max] of vals (+Inf, -Inf when empty),
// accumulated with math.Min/Max in slice order — the same fold a
// pairwise scan performs, so combining two cached ranges reproduces the
// combined scan bit-for-bit.
func numericRange(vals []float64) [2]float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return [2]float64{lo, hi}
}

// numericColumn collects the column's parseable numeric values.
func numericColumn(t *relational.Table, attr string) []float64 {
	out := []float64{}
	i := t.AttrIndex(attr)
	if i < 0 {
		return out
	}
	for _, row := range t.Rows {
		if x, ok := row[i].Float(); ok {
			out = append(out, x)
		}
	}
	return out
}

// ngramMaxValues returns the value cap of the engine's ValueNGramMatcher
// (0 when absent or uncapped); the cap is part of a cached vector's
// identity, so shared features must be built with the same one.
func (e *Engine) ngramMaxValues() int {
	for _, m := range e.Matchers {
		if ng, ok := m.(ValueNGramMatcher); ok {
			return ng.MaxValues
		}
	}
	return 0
}

// Target returns the schema the features were computed for.
func (tf *TargetFeatures) Target() *relational.Schema { return tf.tgt }

// Dict returns the frozen gram dictionary shared by every vector in the
// layer (and by any frozen classifiers compiled into the same ID
// space).
func (tf *TargetFeatures) Dict() *tokenize.Dict { return tf.dict }

// Columns returns how many column feature vectors (n-gram and numeric)
// the layer holds — the size figure a serving layer reports per
// prepared catalog.
func (tf *TargetFeatures) Columns() int {
	if tf == nil {
		return 0
	}
	return len(tf.ngrams) + len(tf.numbers)
}

// MaxValues returns the per-column value cap the layer's n-gram vectors
// were built under (0 = uncapped). A retrieval layer building source
// vectors to probe this layer's index uses the same cap so both sides
// sample columns identically.
func (tf *TargetFeatures) MaxValues() int {
	if tf == nil {
		return 0
	}
	return tf.maxValues
}

// Index returns the inverted gram-ID candidate index over the layer's
// string columns, or nil when the layer was built exhaustively (or
// holds no string columns).
func (tf *TargetFeatures) Index() *tokenize.Index {
	if tf == nil {
		return nil
	}
	return tf.index
}

// IndexStats snapshots the candidate index's size and retrieval
// counters (zero when the layer has no index).
func (tf *TargetFeatures) IndexStats() tokenize.IndexStats {
	if tf == nil {
		return tokenize.IndexStats{}
	}
	return tf.index.Stats()
}

// covers reports whether the layer can answer every target-side feature
// lookup of a Bind against tgt with the given n-gram cap — the
// precondition for the column-parallel bind path, whose normalization
// pass must be read-only on the cache.
func (tf *TargetFeatures) covers(tgt *relational.Schema, maxValues int) bool {
	return tf != nil && tf.tgt == tgt && tf.maxValues == maxValues
}
