// Package ctxmatch is a contextual schema matching library: an
// implementation of "Putting Context into Schema Matching" (Bohannon,
// Elnahrawy, Fan, Flaster — VLDB 2006).
//
// Contextual schema matching extends attribute-level schema matching
// with selection conditions: a contextual match (RS.s, RT.t, c) states
// that source attribute s corresponds to target attribute t for the
// rows satisfying c. Equivalently, the matcher infers select-only views
// of the source whose columns match the target cleanly even when the
// base table's columns do not — the situation that arises whenever one
// schema stores subtypes in a single table (inventory items that are
// books or CDs) and the other in separate tables, or when rows of one
// table correspond to columns of another (attribute normalization).
//
// The top-level API is a long-lived Matcher built with functional
// options. For one-off runs its Match method runs the paper's pipeline
// under a context; a service matching many source schemas against one
// curated catalog prepares the catalog once and fans sources at the
// resulting handle:
//
//	matcher, err := ctxmatch.New(ctxmatch.WithTau(0.5))
//	if err != nil { ... }
//	target, err := matcher.Prepare(ctx, catalog) // trains & pins catalog artifacts
//	if err != nil { ... }
//	result, err := target.Match(ctx, source)     // zero target-side training
//	if err != nil { ... }
//	for _, m := range result.ContextualMatches() { fmt.Println(m) }
//	mappings, err := ctxmatch.BuildMappings(result.Matches, source, catalog)
//
// Batches and streams of sources go through Target.MatchAll and
// Target.MatchStream, which bound concurrency and isolate per-source
// failures. A Matcher (and every Target) is safe for concurrent use,
// honors cancellation, and fans per-table work out across a bounded
// worker pool deterministically — see WithParallelism.
//
// A Result is pure data — tables are referenced by name and condition,
// never by live pointer — and marshals to a versioned JSON wire format,
// so matches can cross process boundaries and be rebound to schemas on
// the other side.
//
// Schemas and tables come from NewSchema / NewTable / ReadCSV; the
// matching algorithms, constraint machinery and Clio-style mapping
// generator live in the internal packages and are re-exported here in
// the shapes a client needs.
package ctxmatch

import (
	"io"
	"slices"

	"ctxmatch/internal/constraints"
	"ctxmatch/internal/core"
	"ctxmatch/internal/mapping"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Re-exported data model types. A Table carries both schema (attributes)
// and sample instance (rows); every algorithm in the library is
// instance-based.
type (
	// Schema is a named collection of tables.
	Schema = relational.Schema
	// Table is a base table or select-only view with its sample rows.
	Table = relational.Table
	// Attribute is a named, typed column.
	Attribute = relational.Attribute
	// Tuple is one row.
	Tuple = relational.Tuple
	// Value is a typed attribute value.
	Value = relational.Value
	// Type is an attribute type (String, Text, Int, Real, Bool).
	Type = relational.Type
	// Condition is a boolean selection condition attached to a match.
	Condition = relational.Condition
	// Eq is the simple condition attr = value.
	Eq = relational.Eq
	// In is the disjunctive condition attr ∈ {v1,…,vk}.
	In = relational.In
	// And is a conjunction of conditions.
	And = relational.And
	// Or is a disjunction of conditions.
	Or = relational.Or
	// True is the constant TRUE condition of a standard match.
	True = relational.True
)

// Condition constructors with canonicalization.
var (
	// NewIn builds an In condition with the values deduplicated and
	// sorted.
	NewIn = relational.NewIn
	// NewAnd builds a flattened conjunction.
	NewAnd = relational.NewAnd
	// NewOr builds a flattened disjunction.
	NewOr = relational.NewOr
)

// Attribute type constants.
const (
	String = relational.String
	Text   = relational.Text
	Int    = relational.Int
	Real   = relational.Real
	Bool   = relational.Bool
)

// Value constructors.
var (
	// S builds a string Value.
	S = relational.S
	// I builds an integer Value.
	I = relational.I
	// F builds a real Value.
	F = relational.F
	// B builds a boolean Value.
	B = relational.B
	// Null is the NULL value.
	Null = relational.Null
)

// NewSchema creates a schema holding the given tables.
func NewSchema(name string, tables ...*Table) *Schema {
	return relational.NewSchema(name, tables...)
}

// NewTable creates an empty table with the given attributes.
func NewTable(name string, attrs ...Attribute) *Table {
	return relational.NewTable(name, attrs...)
}

// ReadCSV loads a table from CSV with a typed header (see
// internal/relational.ReadCSV for the format).
func ReadCSV(name string, r io.Reader) (*Table, error) {
	return relational.ReadCSV(name, r)
}

// ReadCSVFile loads a table from a CSV file.
func ReadCSVFile(name, path string) (*Table, error) {
	return relational.ReadCSVFile(name, path)
}

// Matching API. Result, MatchEdge, TableRef and Family — the
// serializable output model — are defined in encode.go; the Matcher and
// the prepared-target session handle live in matcher.go and target.go.
type (
	// Options are the tunables of contextual matching (τ, ω, disjunct
	// policy, inference and selection algorithms…).
	Options = core.Options
	// Inference selects the candidate-view inference algorithm.
	Inference = core.Inference
	// Selection selects the match-selection policy.
	Selection = core.Selection
)

// Inference and selection policy constants.
const (
	NaiveInfer    = core.NaiveInfer
	SrcClassInfer = core.SrcClassInfer
	TgtClassInfer = core.TgtClassInfer
	QualTable     = core.QualTable
	MultiTable    = core.MultiTable
)

// StandardMatch runs only the standard (non-contextual) matcher of §2.3
// between one source table and a target schema, returning matches with
// confidence at least tau.
func StandardMatch(source *Table, target *Schema, tau float64) []MatchEdge {
	b := bindFresh(source, target)
	defer b.Release()
	return newEdges(b.StandardMatches(tau))
}

// Explain breaks a pair's similarity down per matcher on fresh
// normalization statistics, for debugging why a match did or did not
// clear τ.
func Explain(source *Table, sourceAttr string, target *Schema, targetTable, targetAttr string) []match.Explanation {
	b := bindFresh(source, target)
	defer b.Release()
	return b.Explain(source, sourceAttr, targetTable, targetAttr)
}

// bindFresh binds source to target under the default engine over a
// freshly built and frozen feature layer of target — the layer
// Prepare pins, minus the classifiers.
func bindFresh(source *Table, target *Schema) *match.Bound {
	eng := match.NewEngine()
	d := tokenize.NewDict()
	tf := eng.PrecomputeTarget(target, d, 1)
	d.Freeze()
	return eng.Bind(source, target, tf, 1)
}

// Mapping API.
type (
	// Mapping is a Clio-style schema mapping for one target table.
	Mapping = mapping.Mapping
	// ConstraintSet holds keys, foreign keys and contextual foreign
	// keys.
	ConstraintSet = constraints.Set
)

// MineConstraints discovers keys and foreign keys on the schema's sample
// instances, as Clio's mining tools would.
func MineConstraints(s *Schema) *ConstraintSet {
	return constraints.Mine(s, constraints.DefaultMineOptions())
}

// PropagateConstraints derives view constraints (keys, contextual
// foreign keys) from base constraints using the paper's §4.2 inference
// rules. views lists the views participating in matches.
func PropagateConstraints(base *ConstraintSet, views []*Table) *ConstraintSet {
	return constraints.Propagate(base, views)
}

// BuildMappings assembles Clio-style mappings (§4.1 extended with the
// paper's join rules 1-3) from the given matches. Edges reference
// tables by name, so they first rebind to the given schemas — views are
// re-materialized from each edge's (base, condition) pair, which is why
// a Result decoded from JSON in another process works here as well as a
// freshly computed one. Constraints are then mined from the source
// schema and propagated to every view appearing in the matches; the
// result can generate SQL or execute over the sample instances
// (attribute normalization included). An edge referencing a table the
// schemas do not contain is an error.
func BuildMappings(edges []MatchEdge, source, target *Schema) ([]*Mapping, error) {
	matches, err := resolveEdges(edges, source, target)
	if err != nil {
		return nil, err
	}
	mined := constraints.Mine(source, constraints.DefaultMineOptions())
	var views []*Table
	seen := map[string]bool{}
	for _, m := range matches {
		if m.Source.IsView() && !seen[m.Source.Name] {
			seen[m.Source.Name] = true
			views = append(views, m.Source)
		}
	}
	cons := constraints.Propagate(mined, views)
	// Views are select-only (no projection), so their instances also
	// admit direct mining for keys the propagation rules cannot derive
	// (e.g. when the base key was itself mined as composite).
	for _, v := range views {
		for _, k := range constraints.MineKeys(v, constraints.DefaultMineOptions()) {
			cons.AddKey(k)
		}
	}
	// Contextual foreign keys for mined keys of views with simple
	// conditions: V[X, a=v] ⊆ base[X, a] requires [X, a] to be a key of
	// the base, which mining can confirm directly. Keys that already
	// mention the condition attribute are skipped: inside the view that
	// attribute is constant, so it adds nothing and would produce joins
	// on a = v that never cross view boundaries.
	for _, v := range views {
		eq, ok := v.Cond.(relational.Eq)
		if !ok {
			continue
		}
		base := v.Base
		for _, k := range cons.KeysOf(v.Name) {
			if slices.Contains(k.Attrs, eq.Attr) {
				continue
			}
			full := append(append([]string(nil), k.Attrs...), eq.Attr)
			if constraints.CheckKey(base, constraints.Key{Table: base.Name, Attrs: full}) {
				cons.AddCFK(constraints.ContextualForeignKey{
					From: v.Name, FromAttrs: k.Attrs,
					CondAttr: eq.Attr, CondValue: eq.Value,
					To: base.Name, ToAttrs: k.Attrs, ToAttr: eq.Attr,
				})
			}
		}
	}
	return mapping.Build(matches, cons), nil
}
