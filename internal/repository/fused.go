package repository

import (
	"sort"
	"time"

	"ctxmatch"
	"ctxmatch/internal/tokenize"
)

// fusedRetrieve is the registry-global retrieval pass: the source is
// profiled once per sampling cap, keyed into the fused index's global
// dictionary once, and a single fused term-at-a-time pass accumulates
// every catalog's per-column WAND bound simultaneously. Catalogs are
// then visited in descending aggregate-bound order — the most
// promising catalogs establish the top-k floor first, so the floor is
// sharp for the long tail. Ties break by name, so the walk is
// deterministic.
//
// Per source column j of n the walk derives the contribution the
// column must at least achieve for the catalog to still reach the
// floor even if all remaining columns scored a perfect 1 (`needed`),
// and scans the catalog's own index floored at max(minScore, needed).
// A column whose fused bound already falls below that floor is skipped
// without building its vector or touching the catalog's postings: the
// bound proves what the floored scan would have (best < floor). The
// floored scan returns exact values at or above its floor, so a
// returned best is the column's true best; a zero proves the true best
// is below the floor, which either contributes exactly 0 (the floor
// was minScore) or proves the catalog cannot reach the k-th best
// evidence, and it is pruned.
//
// Every non-pruned catalog's evidence is therefore exact and computed
// by the catalog's own index (LocalVector feeds it the in-vocabulary
// (ID, count) pairs and norm of the column), so the survivor set is
// the true top-k by evidence.
//
// A non-zero deadline is the retrieval stage's budget: once it passes,
// every not-yet-scored indexed catalog is marked Skipped (unindexed
// catalogs carry no scan and still pass through), so the caller can
// degrade instead of blowing the whole request deadline here.
//
// Must be called with the fleet's read lock held: the fused pass reads
// the unfrozen global dictionary and the slot table, which installs
// mutate under the write lock.
func (f *Fleet) fusedRetrieve(entries []*Entry, src *ctxmatch.Schema, k int, minScore float64, deadline time.Time) []CatalogScore {
	type capProfile struct {
		cols   []srcColumn
		bounds [][]float64 // per column, per slot position
	}
	nSlots := f.fused.Slots()
	profiles := map[int]*capProfile{}
	profileFor := func(maxValues int) *capProfile {
		if p, ok := profiles[maxValues]; ok {
			return p
		}
		cols := extractColumns(src, maxValues)
		p := &capProfile{cols: cols, bounds: make([][]float64, len(cols))}
		for j := range cols {
			gv := globalColumnVector(f.fused, &cols[j])
			p.bounds[j] = make([]float64, nSlots)
			f.fused.AccumulateBounds(gv, p.bounds[j])
			cols[j].global = gv
		}
		profiles[maxValues] = p
		return p
	}

	type cand struct {
		e       *Entry
		profile *capProfile
		agg     float64
	}
	var cands []cand
	scores := make([]CatalogScore, 0, len(entries))
	for _, e := range entries {
		if e.slot == nil {
			scores = append(scores, CatalogScore{Name: e.Name, Generation: e.Generation, Unindexed: true})
			continue
		}
		p := profileFor(e.feats.MaxValues())
		agg := 0.0
		if n := len(p.cols); n > 0 {
			pos := e.slot.Pos()
			for j := range p.cols {
				b := p.bounds[j][pos]
				if b > 1 {
					b = 1
				}
				agg += b
			}
			agg /= float64(n)
		}
		cands = append(cands, cand{e: e, profile: p, agg: agg})
	}
	// Highest aggregate bound first: these are the catalogs most likely
	// to own the final top-k, so scoring them first makes the advancing
	// floor maximally sharp for everything after. Ties by name keep the
	// walk deterministic.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].agg != cands[j].agg {
			return cands[i].agg > cands[j].agg
		}
		return cands[i].e.Name < cands[j].e.Name
	})

	floor := newTopK(k)
	var row []float64
	var scratch tokenize.LocalVectorScratch
	skips := 0
	for _, c := range cands {
		e := c.e
		cs := CatalogScore{Name: e.Name, Generation: e.Generation}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			cs.Skipped = true
			scores = append(scores, cs)
			continue
		}
		ix := e.slot.Index()
		pos := e.slot.Pos()
		cols := c.profile.cols
		n := len(cols)
		if cap(row) < ix.Columns() {
			row = make([]float64, ix.Columns())
		}
		var sum float64
		pruned := false
		for j := range cols {
			rem := float64(n - 1 - j)
			needed := floor.kth()*float64(n) - sum - rem
			if needed > 1 {
				// Even a perfect remaining scan cannot reach the floor.
				pruned = true
				break
			}
			fl := max(minScore, needed)
			if fl > 0 && c.profile.bounds[j][pos] < fl {
				// The fused bound proves the column's true best is below
				// fl — exactly what a floored scan returning 0 proves —
				// without building the vector or walking any postings.
				skips++
				if needed > minScore {
					pruned = true
					break
				}
				// fl was minScore: the column's best is sub-threshold
				// and contributes exactly 0.
				continue
			}
			vec := e.slot.LocalVector(cols[j].global, &scratch)
			r := row[:ix.Columns()]
			ix.ScoreColumnsFloored(vec, r, fl)
			best := 0.0
			for _, x := range r {
				if x > best {
					best = x
				}
			}
			if best > 0 {
				sum += best
				continue
			}
			// The floored scan proved the column's true best is below fl.
			if needed > minScore {
				pruned = true
				break
			}
		}
		cs.Pruned = pruned
		if !pruned && n > 0 {
			cs.Evidence = sum / float64(n)
			floor.push(cs.Evidence)
		}
		scores = append(scores, cs)
	}
	f.fused.CountSkips(skips)

	sortCatalogScores(scores)
	return scores
}

// globalColumnVector keys one profiled source column into the fused
// index's global ID space. Profile grams are sorted by gram string,
// the order GlobalVector expects.
func globalColumnVector(fx *tokenize.FusedIndex, col *srcColumn) *tokenize.IDVector {
	grams := make([]string, len(col.grams))
	counts := make([]float64, len(col.grams))
	for i, gc := range col.grams {
		grams[i] = gc.g
		counts[i] = gc.c
	}
	return fx.GlobalVector(grams, counts, col.norm)
}
