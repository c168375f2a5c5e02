package match

import (
	"fmt"

	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// RawColumnRef addresses one column of a schema positionally — table
// index in Schema.Tables, attribute index in Table.Attrs — the stable
// form a snapshot stores in place of the pointer-keyed colKey.
type RawColumnRef struct {
	Table, Attr int
}

// RawVector is the serializable form of a tokenize.IDVector: the sorted
// parallel ID/count slices plus the norm cached at build time.
type RawVector struct {
	IDs    []uint32
	Counts []float64
	Norm   float64
}

// RawNumericColumn is one numeric column's cached values.
type RawNumericColumn struct {
	Ref    RawColumnRef
	Values []float64
}

// RawNameVector is one attribute name's trigram vector.
type RawNameVector struct {
	Name string
	Vec  RawVector
}

// RawTargetFeatures is the flat, serializable form of TargetFeatures:
// every map re-keyed to positional column references, in the canonical
// schema-scan order PrecomputeTarget builds them, so export →
// restore reproduces the layer bit-for-bit.
type RawTargetFeatures struct {
	MaxValues int
	// StrCols lists the string-domain columns in schema order — the
	// dense column numbering of the candidate index — and NGrams holds
	// their vectors, parallel.
	StrCols []RawColumnRef
	NGrams  []RawVector
	// Numbers holds the numeric columns in schema order. NumRanges is
	// parallel to it when the layer caches per-column ranges (indexed
	// engines), nil when it was built exhaustively.
	Numbers   []RawNumericColumn
	NumRanges [][2]float64
	// Names holds the attribute-name vectors in first-seen schema order.
	Names []RawNameVector
	// Index is the candidate index in flat form, nil when the layer has
	// none.
	Index *tokenize.RawIndex
}

// ExportRaw flattens the feature layer for serialization, re-keying
// every column to positional references against the layer's own schema.
func (tf *TargetFeatures) ExportRaw() (*RawTargetFeatures, error) {
	tableIdx := make(map[*relational.Table]int, len(tf.tgt.Tables))
	for i, t := range tf.tgt.Tables {
		tableIdx[t] = i
	}
	ref := func(key colKey) (RawColumnRef, error) {
		ti, ok := tableIdx[key.t]
		if !ok {
			return RawColumnRef{}, fmt.Errorf("match: column %s.%s references a table outside the schema", key.t.Name, key.attr)
		}
		ai := key.t.AttrIndex(key.attr)
		if ai < 0 {
			return RawColumnRef{}, fmt.Errorf("match: column %s.%s references an unknown attribute", key.t.Name, key.attr)
		}
		return RawColumnRef{Table: ti, Attr: ai}, nil
	}
	raw := &RawTargetFeatures{MaxValues: tf.maxValues}
	for _, key := range tf.strCols {
		r, err := ref(key)
		if err != nil {
			return nil, err
		}
		raw.StrCols = append(raw.StrCols, r)
		raw.NGrams = append(raw.NGrams, exportVector(tf.ngrams[key]))
	}
	// Numeric columns in the schema-scan order the precompute walks.
	for ti, t := range tf.tgt.Tables {
		for ai, a := range t.Attrs {
			key := colKey{t, a.Name}
			vals, ok := tf.numbers[key]
			if !ok {
				continue
			}
			raw.Numbers = append(raw.Numbers, RawNumericColumn{Ref: RawColumnRef{Table: ti, Attr: ai}, Values: vals})
			if rng, ok := tf.numRanges[key]; ok {
				raw.NumRanges = append(raw.NumRanges, rng)
			}
		}
	}
	if len(raw.NumRanges) > 0 && len(raw.NumRanges) != len(raw.Numbers) {
		return nil, fmt.Errorf("match: %d numeric ranges for %d numeric columns", len(raw.NumRanges), len(raw.Numbers))
	}
	// Name vectors in first-seen schema order — the precompute's own
	// insertion order.
	seen := make(map[string]bool, len(tf.names))
	for _, t := range tf.tgt.Tables {
		for _, a := range t.Attrs {
			if seen[a.Name] {
				continue
			}
			seen[a.Name] = true
			v, ok := tf.names[a.Name]
			if !ok {
				return nil, fmt.Errorf("match: attribute %q has no name vector", a.Name)
			}
			raw.Names = append(raw.Names, RawNameVector{Name: a.Name, Vec: exportVector(v)})
		}
	}
	if len(raw.Names) != len(tf.names) {
		return nil, fmt.Errorf("match: %d name vectors for %d schema attribute names", len(tf.names), len(raw.Names))
	}
	if tf.index != nil {
		raw.Index = tf.index.Raw()
	}
	return raw, nil
}

// RestoreTargetFeatures reconstructs a TargetFeatures over tgt and dict
// from its flat form, validating every positional reference and vector
// shape the matching hot path indexes by. When raw carries an index,
// the candidate index is rebuilt over the restored string-column
// vectors (the exact pointers the score rows address) and the dense
// column numbering is reconstituted from StrCols.
func RestoreTargetFeatures(tgt *relational.Schema, dict *tokenize.Dict, raw *RawTargetFeatures) (*TargetFeatures, error) {
	tf := &TargetFeatures{
		tgt:       tgt,
		maxValues: raw.MaxValues,
		dict:      dict,
		ngrams:    map[colKey]*tokenize.IDVector{},
		numbers:   map[colKey][]float64{},
		numRanges: map[colKey][2]float64{},
		names:     map[string]*tokenize.IDVector{},
	}
	resolve := func(r RawColumnRef, dom relational.Domain) (colKey, error) {
		if r.Table < 0 || r.Table >= len(tgt.Tables) {
			return colKey{}, fmt.Errorf("match: column references table %d of %d", r.Table, len(tgt.Tables))
		}
		t := tgt.Tables[r.Table]
		if r.Attr < 0 || r.Attr >= len(t.Attrs) {
			return colKey{}, fmt.Errorf("match: column references attribute %d of %d in table %s", r.Attr, len(t.Attrs), t.Name)
		}
		a := t.Attrs[r.Attr]
		if a.Type.Domain() != dom {
			return colKey{}, fmt.Errorf("match: column %s.%s has domain %v, want %v", t.Name, a.Name, a.Type.Domain(), dom)
		}
		return colKey{t, a.Name}, nil
	}
	if len(raw.NGrams) != len(raw.StrCols) {
		return nil, fmt.Errorf("match: %d ngram vectors for %d string columns", len(raw.NGrams), len(raw.StrCols))
	}
	for i, r := range raw.StrCols {
		key, err := resolve(r, relational.DomainString)
		if err != nil {
			return nil, err
		}
		if _, dup := tf.ngrams[key]; dup {
			return nil, fmt.Errorf("match: duplicate string column %s.%s", key.t.Name, key.attr)
		}
		v, err := restoreVector(raw.NGrams[i])
		if err != nil {
			return nil, err
		}
		tf.ngrams[key] = v
		tf.strCols = append(tf.strCols, key)
	}
	if len(raw.NumRanges) > 0 && len(raw.NumRanges) != len(raw.Numbers) {
		return nil, fmt.Errorf("match: %d numeric ranges for %d numeric columns", len(raw.NumRanges), len(raw.Numbers))
	}
	for i, nc := range raw.Numbers {
		key, err := resolve(nc.Ref, relational.DomainNumber)
		if err != nil {
			return nil, err
		}
		if _, dup := tf.numbers[key]; dup {
			return nil, fmt.Errorf("match: duplicate numeric column %s.%s", key.t.Name, key.attr)
		}
		tf.numbers[key] = nc.Values
		if len(raw.NumRanges) > 0 {
			tf.numRanges[key] = raw.NumRanges[i]
		}
	}
	for _, nv := range raw.Names {
		if _, dup := tf.names[nv.Name]; dup {
			return nil, fmt.Errorf("match: duplicate name vector %q", nv.Name)
		}
		v, err := restoreVector(nv.Vec)
		if err != nil {
			return nil, err
		}
		tf.names[nv.Name] = v
	}
	if raw.Index != nil {
		cols := make([]*tokenize.IDVector, len(tf.strCols))
		tf.colDense = make(map[colKey]int, len(tf.strCols))
		for i, key := range tf.strCols {
			cols[i] = tf.ngrams[key]
			tf.colDense[key] = i
		}
		ix, err := tokenize.NewIndexFromRaw(cols, raw.Index)
		if err != nil {
			return nil, err
		}
		tf.index = ix
	}
	return tf, nil
}

func exportVector(v *tokenize.IDVector) RawVector {
	return RawVector{IDs: v.IDs, Counts: v.Counts, Norm: v.Norm()}
}

// restoreVector validates the parallel-slice shape and ID ordering the
// merge walks and the candidate index rely on before wrapping the
// slices.
func restoreVector(r RawVector) (*tokenize.IDVector, error) {
	if len(r.IDs) != len(r.Counts) {
		return nil, fmt.Errorf("match: vector has %d ids but %d counts", len(r.IDs), len(r.Counts))
	}
	for i := 1; i < len(r.IDs); i++ {
		if r.IDs[i] <= r.IDs[i-1] {
			return nil, fmt.Errorf("match: vector ids not strictly ascending at %d", i)
		}
	}
	return tokenize.NewIDVector(r.IDs, r.Counts, r.Norm), nil
}
