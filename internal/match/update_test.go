package match

import (
	"reflect"
	"testing"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// updateFixture builds a three-table schema mixing string and numeric
// columns, plus an updated variant of it: the first table replaced with
// a row-changed copy, the last dropped, and a new table appended.
func updateFixture() (base, updated *relational.Schema, touched func(*relational.Table) bool) {
	books := relational.NewTable("books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	for _, r := range []struct {
		t string
		p float64
	}{{"heart of darkness", 12}, {"leaves of grass", 9}, {"a secret history", 14}} {
		books.Append(relational.Tuple{relational.S(r.t), relational.F(r.p)})
	}
	music := relational.NewTable("music",
		relational.Attribute{Name: "album", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	music.Append(relational.Tuple{relational.S("abbey road"), relational.F(10)})
	music.Append(relational.Tuple{relational.S("hotel california"), relational.F(11)})
	extra := relational.NewTable("extra",
		relational.Attribute{Name: "note", Type: relational.Text},
	)
	extra.Append(relational.Tuple{relational.S("winter garden letters")})
	base = relational.NewSchema("base", books, music, extra)

	booksV2 := relational.NewTable("books",
		relational.Attribute{Name: "title", Type: relational.Text},
		relational.Attribute{Name: "price", Type: relational.Real},
	)
	booksV2.Append(relational.Tuple{relational.S("heart of darkness"), relational.Null})
	booksV2.Append(relational.Tuple{relational.S("river of shadow"), relational.F(17)})
	added := relational.NewTable("added",
		relational.Attribute{Name: "name", Type: relational.Text},
		relational.Attribute{Name: "qty", Type: relational.Int},
	)
	added.Append(relational.Tuple{relational.S("velvet stone"), relational.F(3)})
	// music carries over by pointer — the contract UpdateTargetFeatures
	// replays untouched columns under.
	updated = relational.NewSchema("base", booksV2, music, added)
	fresh := map[*relational.Table]bool{booksV2: true, added: true}
	return base, updated, func(t *relational.Table) bool { return fresh[t] }
}

// TestUpdateTargetFeaturesMatchesFreshBuild: the delta path must
// reproduce, field for field, the layer a from-scratch parallel build
// produces over the updated schema — gram vectors, merge orders,
// numeric columns, name vectors, and the rebuilt candidate index — for
// both the indexed and the exhaustive engine, at 1 and 4 workers.
func TestUpdateTargetFeaturesMatchesFreshBuild(t *testing.T) {
	for _, exhaustive := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			e := NewEngine()
			e.Exhaustive = exhaustive
			base, updated, touched := updateFixture()
			old := e.PrecomputeTarget(base, tokenize.NewDict(), workers)
			if !old.CanUpdate() {
				t.Fatal("fresh build lost its merge provenance")
			}

			before := TargetUpdates()
			got := e.UpdateTargetFeatures(old, updated, tokenize.NewDict(), touched, workers)
			if TargetUpdates() != before+1 {
				t.Error("TargetUpdates did not advance")
			}
			want := e.PrecomputeTarget(updated, tokenize.NewDict(), workers)

			if !reflect.DeepEqual(got.ngrams, want.ngrams) {
				t.Errorf("exhaustive=%v workers=%d: ngrams diverge", exhaustive, workers)
			}
			if !reflect.DeepEqual(got.colOrder, want.colOrder) {
				t.Errorf("exhaustive=%v workers=%d: colOrder diverges", exhaustive, workers)
			}
			if !reflect.DeepEqual(got.numbers, want.numbers) {
				t.Errorf("exhaustive=%v workers=%d: numbers diverge", exhaustive, workers)
			}
			if !reflect.DeepEqual(got.numRanges, want.numRanges) {
				t.Errorf("exhaustive=%v workers=%d: numRanges diverge", exhaustive, workers)
			}
			if !reflect.DeepEqual(got.names, want.names) {
				t.Errorf("exhaustive=%v workers=%d: name vectors diverge", exhaustive, workers)
			}
			if !reflect.DeepEqual(got.strCols, want.strCols) {
				t.Errorf("exhaustive=%v workers=%d: string column order diverges", exhaustive, workers)
			}
			if got.dict.Len() != want.dict.Len() {
				t.Errorf("exhaustive=%v workers=%d: dict sized %d, fresh %d",
					exhaustive, workers, got.dict.Len(), want.dict.Len())
			}
			for id := 0; id < got.dict.Len(); id++ {
				if got.dict.Gram(uint32(id)) != want.dict.Gram(uint32(id)) {
					t.Fatalf("exhaustive=%v workers=%d: dict diverges at id %d: %q vs %q",
						exhaustive, workers, id, got.dict.Gram(uint32(id)), want.dict.Gram(uint32(id)))
				}
			}
			if exhaustive {
				if got.index != nil {
					t.Error("exhaustive layer built a candidate index")
				}
			} else {
				if got.index == nil {
					t.Fatal("indexed layer missing its candidate index")
				}
				if !reflect.DeepEqual(got.colDense, want.colDense) {
					t.Errorf("workers=%d: dense column mapping diverges", workers)
				}
			}
			if got.Target() != updated {
				t.Error("layer not bound to the updated schema")
			}
		}
	}
}

// TestCanUpdate: nil layers and layers without merge provenance (the
// snapshot-restore shape) must refuse the delta path.
func TestCanUpdate(t *testing.T) {
	var nilTF *TargetFeatures
	if nilTF.CanUpdate() {
		t.Error("nil layer claims updatability")
	}
	if (&TargetFeatures{}).CanUpdate() {
		t.Error("layer without colOrder claims updatability")
	}
	e := NewEngine()
	base, _, _ := updateFixture()
	if !e.PrecomputeTarget(base, tokenize.NewDict(), 2).CanUpdate() {
		t.Error("fresh parallel build not updatable")
	}
}

// TestUpdateTargetFeaturesNilSchema: a nil updated schema yields an
// empty layer rather than a panic.
func TestUpdateTargetFeaturesNilSchema(t *testing.T) {
	e := NewEngine()
	base, _, _ := updateFixture()
	old := e.PrecomputeTarget(base, tokenize.NewDict(), 1)
	tf := e.UpdateTargetFeatures(old, nil, tokenize.NewDict(), func(*relational.Table) bool { return false }, 1)
	if tf.Columns() != 0 {
		t.Errorf("nil schema produced %d columns", tf.Columns())
	}
}
