package repository

import (
	"math"
	"slices"
	"sort"
	"strings"

	"ctxmatch"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// gramCount is one (gram, count) pair of a source column's trigram
// multiset, in gram-string form so it can be keyed into the fused
// index's global ID space.
type gramCount struct {
	g string
	c float64
}

// srcColumn is the catalog-independent profile of one source string
// column: its deduplicated gram counts (sorted by gram for determinism)
// and the Euclidean norm of the counts — which is the same under every
// ID mapping, so it is computed once.
type srcColumn struct {
	grams []gramCount
	norm  float64
	// global is the column keyed into a fused index's global ID space,
	// set by the fused retrieval pass that owns the profile.
	global *tokenize.IDVector
}

// extractColumns profiles every string-domain column of src: trigram
// counts over at most maxValues non-null values per column (0 = all),
// the same per-column sampling rule the catalogs' own index vectors
// were built under.
func extractColumns(src *ctxmatch.Schema, maxValues int) []srcColumn {
	var out []srcColumn
	for _, t := range src.Tables {
		for ai, a := range t.Attrs {
			if a.Type.Domain() != relational.DomainString {
				continue
			}
			counts := map[string]float64{}
			n := 0
			for _, row := range t.Rows {
				v := row[ai]
				if v.IsNull() {
					continue
				}
				for g := range tokenize.TrigramSeq(v.Str()) {
					counts[g]++
				}
				n++
				if maxValues > 0 && n >= maxValues {
					break
				}
			}
			col := srcColumn{grams: make([]gramCount, 0, len(counts))}
			for g, c := range counts {
				col.grams = append(col.grams, gramCount{g, c})
			}
			slices.SortFunc(col.grams, func(a, b gramCount) int { return strings.Compare(a.g, b.g) })
			var norm2 float64
			for _, gc := range col.grams {
				norm2 += gc.c * gc.c
			}
			col.norm = math.Sqrt(norm2)
			out = append(out, col)
		}
	}
	return out
}

// sortCatalogScores orders retrieval outcomes survivors-first
// (evidence desc, name asc), then pruned catalogs, then
// budget-skipped ones — the order Report.Retrieval presents.
func sortCatalogScores(scores []CatalogScore) {
	sort.SliceStable(scores, func(i, j int) bool {
		a, b := scores[i], scores[j]
		if a.Skipped != b.Skipped {
			return !a.Skipped
		}
		if a.Pruned != b.Pruned {
			return !a.Pruned
		}
		if a.Evidence != b.Evidence {
			return a.Evidence > b.Evidence
		}
		return a.Name < b.Name
	})
}

// topK tracks the k best evidence values seen so far; kth reports the
// advancing floor — 0 until k catalogs have been scored.
type topK struct {
	k int
	v []float64 // descending, at most k values
}

func newTopK(k int) *topK { return &topK{k: k} }

func (t *topK) push(x float64) {
	if t.k <= 0 {
		return
	}
	i, _ := slices.BinarySearchFunc(t.v, x, func(a, b float64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	})
	t.v = slices.Insert(t.v, i, x)
	if len(t.v) > t.k {
		t.v = t.v[:t.k]
	}
}

func (t *topK) kth() float64 {
	if len(t.v) < t.k {
		return 0
	}
	return t.v[len(t.v)-1]
}
