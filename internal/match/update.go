package match

import (
	"sync"
	"sync/atomic"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetUpdates counts UpdateTargetFeatures invocations process-wide, so
// tests can assert that a delta rebuild went through the splice path
// (and that it performed no full precompute: TargetPrecomputes stays
// flat across an update).
var targetUpdates atomic.Int64

// TargetUpdates returns how many times a target feature layer has been
// delta-rebuilt in this process.
func TargetUpdates() int64 { return targetUpdates.Load() }

// CanUpdate reports whether the layer retains the per-column gram merge
// order a delta rebuild replays. Layers built by PrecomputeTarget do;
// layers restored from snapshots do not (the snapshot format carries
// vectors, not merge provenance) and must be re-prepared from scratch.
func (tf *TargetFeatures) CanUpdate() bool {
	return tf != nil && tf.colOrder != nil
}

// UpdateTargetFeatures derives the feature layer of an updated schema
// from an existing layer, rescanning only the columns of tables for
// which touched reports true. Untouched columns never rescan rows:
// their gram vectors are replayed into the fresh dictionary d through
// the recorded per-column merge order, so the dictionary's ID
// assignment — and therefore every vector, name vector and the rebuilt
// candidate index — is bit-identical to what PrecomputeTarget
// would produce from scratch over updated. Touched columns fan across
// up to workers goroutines exactly like a fresh build.
//
// The engine must be the one old was built under (the n-gram value cap
// and Exhaustive flag are part of a layer's identity), old must satisfy
// CanUpdate, and untouched tables in updated must be the same *Table
// pointers old was built over.
func (e *Engine) UpdateTargetFeatures(old *TargetFeatures, updated *relational.Schema, d *tokenize.Dict, touched func(*relational.Table) bool, workers int) *TargetFeatures {
	targetUpdates.Add(1)
	tf := &TargetFeatures{
		tgt:       updated,
		maxValues: e.ngramMaxValues(),
		dict:      d,
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		numRanges: map[colKey][2]float64{},
		names:     map[string]*tokenize.IDVector{},
		colOrder:  map[colKey][]uint32{},
	}
	if updated == nil {
		return tf
	}
	type job struct {
		t      *relational.Table
		attr   string
		domain relational.Domain
		fresh  bool
	}
	var jobs []job
	for _, tt := range updated.Tables {
		fresh := touched(tt)
		for _, a := range tt.Attrs {
			if dom := a.Type.Domain(); dom == relational.DomainString || dom == relational.DomainNumber {
				jobs = append(jobs, job{tt, a.Name, dom, fresh})
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
		j := jobs[i]
		if !j.fresh {
			return
		}
		b := builders.Get().(*tokenize.VectorBuilder)
		defer builders.Put(b)
		switch j.domain {
		case relational.DomainString:
			ld := tokenize.NewDict()
			slots[i] = slot{local: ld, vec: buildColumnVector(b, ld, j.t, j.attr, tf.maxValues)}
		case relational.DomainNumber:
			slots[i] = slot{nums: numericColumn(j.t, j.attr)}
		}
	})
	// remapOld lazily translates old shared IDs to fresh ones as the
	// replay walks each untouched column's recorded merge order; entries
	// never reached stay NoID and are never consulted, because a
	// column's vector references exactly the grams its order lists.
	remapOld := make([]uint32, old.dict.Len())
	for i := range remapOld {
		remapOld[i] = tokenize.NoID
	}
	for i, j := range jobs {
		key := colKey{j.t, j.attr}
		switch j.domain {
		case relational.DomainString:
			if j.fresh {
				remap := slots[i].local.MergeInto(d)
				tf.ngrams[key] = tokenize.Remapped(slots[i].vec, remap)
				tf.colOrder[key] = remap
			} else {
				order := old.colOrder[key]
				norder := make([]uint32, len(order))
				for oi, oldID := range order {
					nid := remapOld[oldID]
					if nid == tokenize.NoID {
						nid = d.Intern(old.dict.Gram(oldID))
						remapOld[oldID] = nid
					}
					norder[oi] = nid
				}
				tf.ngrams[key] = tokenize.Remapped(old.ngrams[key], remapOld)
				tf.colOrder[key] = norder
			}
			tf.strCols = append(tf.strCols, key)
		case relational.DomainNumber:
			if j.fresh {
				tf.numbers[key] = slots[i].nums
				if !e.Exhaustive {
					tf.numRanges[key] = numericRange(slots[i].nums)
				}
			} else {
				tf.numbers[key] = old.numbers[key]
				if !e.Exhaustive {
					tf.numRanges[key] = old.numRanges[key]
				}
			}
		}
	}
	// Name vectors intern after every column — the same canonical point
	// a fresh build interns them at — and the candidate index rebuilds
	// over the final vectors. Both are cheap relative to column scans
	// (names are short strings; the index is a counting sort over
	// postings already in memory).
	b := tokenize.NewVectorBuilder()
	for _, tt := range updated.Tables {
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
