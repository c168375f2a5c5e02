package ctxmatch

import (
	"context"
	"runtime"

	"ctxmatch/internal/core"
	"ctxmatch/internal/match"
)

// Structured errors of the Matcher API.
var (
	// ErrEmptySchema reports that Match was handed a nil schema or one
	// with no tables; the wrapping message says which side. Test with
	// errors.Is.
	ErrEmptySchema = core.ErrEmptySchema

	// ErrInvalidDelta reports that Target.Update was handed a catalog
	// delta that is empty, references unknown (or duplicate) table
	// names, adds a name the catalog already holds, or carries a nil or
	// unnamed table. Test with errors.Is.
	ErrInvalidDelta = core.ErrInvalidDelta
)

// TableError wraps a failure confined to one source table of a Match
// run (typically context cancellation striking mid-table), naming the
// table. Retrieve with errors.As; Unwrap exposes the cause.
type TableError = core.TableError

// Matcher is a long-lived, reusable contextual schema matcher: the
// paper's ContextMatch pipeline (Figure 5) packaged for service use.
// Construct one with New; then either Prepare a target catalog once and
// fan source schemas at the returned handle (Target.Match,
// Target.MatchAll, Target.MatchStream), or call Match directly — the
// one-shot composition of Prepare and Target.Match. The Matcher holds
// only its configuration; the prepared Target is the unit of reuse. A
// Matcher is safe for concurrent use by multiple goroutines.
type Matcher struct {
	opt core.Options
}

// New builds a Matcher from the paper's defaults (τ=0.5, ω=5,
// TgtClassInfer, QualTable, EarlyDisjuncts) amended by the given
// options. Parallelism defaults to GOMAXPROCS. Configuration errors are
// reported together and wrap ErrInvalidOption.
//
//	m, err := ctxmatch.New(
//		ctxmatch.WithTau(0.4),
//		ctxmatch.WithInference(ctxmatch.SrcClassInfer),
//		ctxmatch.WithParallelism(4),
//	)
func New(opts ...Option) (*Matcher, error) {
	cfg := config{Options: core.DefaultOptions()}
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		cfg.Engine = match.NewEngine()
	}
	return &Matcher{opt: cfg.Options}, nil
}

// Match runs contextual schema matching (Algorithm ContextMatch,
// Figure 5) between a source and a target schema and returns the
// selected matches along with the standard matches and the inferred
// view families. It is plain Prepare + Target.Match: every call pays
// the target-side training and column scans again, so a service
// matching many sources against one catalog should Prepare once and
// hold the handle.
//
// The run honors ctx cancellation and deadlines: an aborted run returns
// an error chaining to ctx.Err() — wrapped in a *TableError naming the
// source table being matched when the cancellation struck mid-table,
// or ctx.Err() itself when it struck between tables. Empty or nil schemas
// return ErrEmptySchema instead of an empty result. Per-source-table
// work fans out across the configured worker pool; results are
// deterministic — byte-identical Matches — for every parallelism level,
// because each table draws from its own RNG derived from the seed and
// outputs merge in schema order.
func (m *Matcher) Match(ctx context.Context, source, target *Schema) (*Result, error) {
	t, err := m.Prepare(ctx, target)
	if err != nil {
		return nil, err
	}
	return t.Match(ctx, source)
}

// MatchTarget runs contextual matching with the roles reversed, finding
// conditions on the *target* tables (§3 notes the reversal is
// straightforward; §3.2.4 applies it to TgtClassInfer). Returned
// matches still read source → target; the view sits on the target side,
// so collect them with Result.TargetContextualMatches. Because the
// pipeline runs with the schemas swapped, each call trains the
// source-side artifacts afresh, and a TableError names a table of
// target.
func (m *Matcher) MatchTarget(ctx context.Context, source, target *Schema) (*Result, error) {
	cr, err := core.ContextMatchTarget(ctx, source, target, m.opt)
	if err != nil {
		return nil, err
	}
	return newResult(cr), nil
}

// Parallelism returns the matcher's resolved worker budget, for serving
// layers that size their own concurrency bounds from it.
func (m *Matcher) Parallelism() int { return m.opt.Parallelism }

// Options returns a copy of the matcher's resolved configuration, for
// diagnostics and for bridging to the legacy Options-based helpers.
func (m *Matcher) Options() Options { return m.opt }
