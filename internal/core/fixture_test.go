package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ctxmatch/internal/relational"
)

var (
	bookWords = []string{"heart", "darkness", "leaves", "grass", "history", "novel",
		"shadow", "mountain", "river", "winter", "garden", "letters", "secret", "stone"}
	cdWords = []string{"hotel", "california", "abbey", "road", "rumours", "thriller",
		"groove", "electric", "night", "dance", "beat", "soul", "funk", "velvet"}
	stockLevels = []string{"Low", "Normal", "High"}
)

func mkTitle(rng *rand.Rand, words []string) string {
	n := 2 + rng.Intn(3)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(parts, " ")
}

// mkISBN generates hyphenated ISBN-10-style identifiers ("0-486-61272-4").
func mkISBN(rng *rand.Rand) string {
	return fmt.Sprintf("0-%03d-%05d-%d", rng.Intn(1000), rng.Intn(100000), rng.Intn(10))
}

const asinAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"

// mkASIN generates Amazon-style alphanumeric identifiers ("B00K7GRV2L").
func mkASIN(rng *rand.Rand) string {
	b := []byte("B00")
	for i := 0; i < 7; i++ {
		b = append(b, asinAlphabet[rng.Intn(len(asinAlphabet))])
	}
	return string(b)
}

// invFixture builds a combined inventory source with an ItemType of
// cardinality gamma (half book labels, half CD labels) plus an unrelated
// StockStatus, and a books/music target schema — the shape of the
// paper's Retail data set.
func invFixture(rng *rand.Rand, n, gamma int) (*relational.Table, *relational.Schema) {
	src := relational.NewTable("inv",
		relational.Attribute{Name: "Title", Type: relational.Text},
		relational.Attribute{Name: "ItemType", Type: relational.String},
		relational.Attribute{Name: "StockStatus", Type: relational.String},
		relational.Attribute{Name: "Code", Type: relational.String},
		relational.Attribute{Name: "Price", Type: relational.Real},
	)
	half := gamma / 2
	for i := 0; i < n; i++ {
		stock := relational.S(stockLevels[rng.Intn(len(stockLevels))])
		if i%2 == 0 {
			label := fmt.Sprintf("Book%d", 1+rng.Intn(half))
			src.Append(relational.Tuple{
				relational.S(mkTitle(rng, bookWords)), relational.S(label), stock,
				relational.S(mkISBN(rng)), relational.F(25 + rng.NormFloat64()*3),
			})
		} else {
			label := fmt.Sprintf("CD%d", 1+rng.Intn(half))
			src.Append(relational.Tuple{
				relational.S(mkTitle(rng, cdWords)), relational.S(label), stock,
				relational.S(mkASIN(rng)), relational.F(10 + rng.NormFloat64()*2),
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
			relational.S(mkTitle(rng, bookWords)),
			relational.S(mkISBN(rng)),
			relational.F(25 + rng.NormFloat64()*3),
		})
		music.Append(relational.Tuple{
			relational.S(mkTitle(rng, cdWords)),
			relational.S(mkASIN(rng)),
			relational.F(10 + rng.NormFloat64()*2),
		})
	}
	return src, relational.NewSchema("RT", book, music)
}

// preparedClassifiers returns the frozen target classifiers
// PrepareTarget pins for tgt under opt — nil unless opt.Inference is
// TgtClassInfer — the set a prepared match hands to inference.
func preparedClassifiers(t testing.TB, tgt *relational.Schema, opt Options) *frozenTargetClassifiers {
	t.Helper()
	pt, err := PrepareTarget(context.Background(), tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	return pt.arts.fcls
}

// isBookLabel reports whether an ItemType value denotes a book subtype.
func isBookLabel(v relational.Value) bool { return strings.HasPrefix(v.Str(), "Book") }

// condCoversOnly reports whether every ItemType value accepted by the
// match's condition satisfies pred — e.g. "the view feeding the book
// table selects only book labels".
func condCoversOnly(src *relational.Table, cond relational.Condition, pred func(relational.Value) bool) bool {
	for _, v := range src.DistinctValues("ItemType") {
		row := make(relational.Tuple, len(src.Attrs))
		for i := range row {
			row[i] = relational.Null
		}
		row[src.AttrIndex("ItemType")] = v
		if cond.Eval(src, row) && !pred(v) {
			return false
		}
	}
	return true
}
