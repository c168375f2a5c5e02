package core

import (
	"slices"
	"strings"
	"sync/atomic"

	"ctxmatch/internal/classify"
	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// Candidate is one candidate view condition produced by
// inferCandidateViews, with the family that motivated it (nil
// provenance for NaiveInfer).
type Candidate struct {
	Cond   relational.Condition
	Family *ViewFamily
}

// inferCandidateViews produces the set C of candidate view conditions
// for source table r (line 5 of Figure 5). hasMatches reports whether
// StandardMatch accepted any match; per the paper no conditions are
// returned when it did not. fcls is the prepared target's frozen
// classifier set (see viewFamilies).
func inferCandidateViews(r *relational.Table, hasMatches bool, opt Options, fcls *frozenTargetClassifiers) []Candidate {
	if !hasMatches {
		return nil
	}
	if opt.Inference == NaiveInfer {
		return naiveInfer(r, opt)
	}
	return candidatesFromFamilies(viewFamilies(r, opt, fcls))
}

// viewFamilies runs the configured classifier-based inference (§3.2.3
// SrcClassInfer, §3.2.4 TgtClassInfer) and returns the well-clustered
// view families of r; nil under NaiveInfer, which has none. fcls is
// the prepared target's frozen classifier set, compiled once by
// PrepareTarget and shared across all per-table workers; only
// TgtClassInfer reads it. Every call derives its own RNG from opt.Seed,
// so concurrent per-table inference stays deterministic regardless of
// goroutine interleaving.
func viewFamilies(r *relational.Table, opt Options, fcls *frozenTargetClassifiers) []ViewFamily {
	cfg := clusterConfig{
		threshold:      opt.SignificanceT,
		trainFrac:      opt.TrainFrac,
		earlyDisjuncts: opt.EarlyDisjuncts,
	}
	switch opt.Inference {
	case SrcClassInfer:
		cfg.factory = srcClassifierFactory
	case TgtClassInfer:
		cfg.factory = newTagger(fcls).factory
	default:
		return nil
	}
	return clusteredViewGen(r, cfg, opt.rng())
}

// naiveInfer implements §3.2.1: a view per value of every categorical
// attribute. Under EarlyDisjuncts it additionally enumerates the
// disjunctive (subset) conditions, whose number grows exponentially in
// the cardinality of the categorical attribute — the cost the paper's
// Figure 15 charts.
func naiveInfer(r *relational.Table, opt Options) []Candidate {
	var out []Candidate
	for _, l := range r.CategoricalAttrs() {
		values := r.DistinctValues(l)
		if len(values) < 2 {
			continue
		}
		if opt.EarlyDisjuncts && len(values) <= naiveDisjunctCap {
			// All non-empty proper subsets of the value set.
			for mask := 1; mask < (1<<len(values))-1; mask++ {
				var g ValueGroup
				for i, v := range values {
					if mask&(1<<i) != 0 {
						g = append(g, v)
					}
				}
				out = append(out, Candidate{Cond: g.Condition(l)})
			}
			continue
		}
		for _, v := range values {
			out = append(out, Candidate{Cond: relational.Eq{Attr: l, Value: v}})
		}
	}
	return dedupCandidates(out)
}

// naiveDisjunctCap bounds NaiveInfer's exponential subset enumeration;
// beyond this cardinality it degrades to simple conditions only.
const naiveDisjunctCap = 12

// candidatesFromFamilies expands every view of every family into a
// candidate condition, deduplicated.
func candidatesFromFamilies(fams []ViewFamily) []Candidate {
	var out []Candidate
	for i := range fams {
		f := &fams[i]
		for _, g := range f.Groups {
			out = append(out, Candidate{Cond: g.Condition(f.Attr), Family: f})
		}
	}
	return dedupCandidates(out)
}

func dedupCandidates(cands []Candidate) []Candidate {
	seen := map[string]bool{}
	type keyed struct {
		key string
		c   Candidate
	}
	all := make([]keyed, 0, len(cands))
	for _, c := range cands {
		key := c.Cond.String() // rendered once per candidate, reused by the sort
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, keyed{key, c})
	}
	slices.SortStableFunc(all, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := cands[:0]
	for _, k := range all {
		out = append(out, k.c)
	}
	return out
}

// srcClassifierFactory implements SrcClassInfer's Ch (§3.2.3): a Naive
// Bayes 3-gram classifier for text attributes, a Gaussian classifier for
// numeric attributes, trained directly on the source values of h. Group
// indices are adapted to the classify package's string labels via
// groupLabel/parseGroupLabel.
func srcClassifierFactory(train, _ *relational.Table, h string, _ int) labelClassifier {
	a, _ := train.Attr(h)
	return &srcClassifier{cls: classify.ForType(a.Type)}
}

type srcClassifier struct {
	cls classify.Classifier
}

func (s *srcClassifier) Train(_ int, v relational.Value, g int) { s.cls.Train(v, groupLabel(g)) }
func (s *srcClassifier) Finish()                                {}
func (s *srcClassifier) Predict(_ int, v relational.Value) int {
	label, _ := s.cls.Classify(v)
	return parseGroupLabel(label)
}

// targetClassifiers is the C_D^T infrastructure of Figure 7
// (createTargetClassifier): one classifier per value domain D, trained on
// every compatible attribute of the target schema with the label
// "Table.attr". TgtClassInfer shares one instance across all (h, l)
// pairs because target training is independent of the source.
type targetClassifiers struct {
	byDomain map[relational.Domain]classify.Classifier

	// nbParts holds the per-table partial Naive Bayes classifiers the
	// merged DomainString classifier was assembled from, keyed by table
	// name (tables without a string attribute have no entry). A delta
	// update reuses untouched tables' partials verbatim and retrains
	// only the touched ones — the merge is exact (integer counts), so
	// the reassembled classifier equals a from-scratch one bit for bit.
	nbParts map[string]*classify.NaiveBayes
}

// targetClassifierTrainings counts newTargetClassifiers invocations
// process-wide, so tests can assert that prepared-target matching
// performs zero classifier training.
var targetClassifierTrainings atomic.Int64

// TargetClassifierTrainings returns how many times target classifiers
// have been trained in this process. Deltas of this counter verify the
// PreparedTarget contract: after PrepareTarget, matching must not train.
func TargetClassifierTrainings() int64 { return targetClassifierTrainings.Load() }

// classifierDomains lists the trainable domains in the canonical order
// every training and freezing loop walks, so the dictionary interning
// of frozen vocabularies is deterministic.
var classifierDomains = []relational.Domain{
	relational.DomainString, relational.DomainNumber, relational.DomainBool,
}

// newTargetClassifiers runs createTargetClassifier(D, RT) for every
// domain with at least one compatible target attribute. The string
// domain trains as one Naive Bayes partial per table, merged exactly in
// schema order (labels are table-qualified, so per-label state never
// crosses partials and the merge reproduces a one-pass training bit for
// bit); the numeric domains train whole, sequentially in schema order,
// because the Gaussian's global accumulator is order-sensitive. All
// trainings are independent of each other, so they fan across up to
// workers goroutines, and the assembled state is bit-identical at any
// worker count.
func newTargetClassifiers(tgt *relational.Schema, workers int) *targetClassifiers {
	targetClassifierTrainings.Add(1)
	tc := &targetClassifiers{
		byDomain: map[relational.Domain]classify.Classifier{},
		nbParts:  map[string]*classify.NaiveBayes{},
	}
	if tgt == nil {
		return tc
	}
	nTables := len(tgt.Tables)
	parts := make([]*classify.NaiveBayes, nTables)
	var numeric [2]classify.Classifier // DomainNumber, DomainBool
	match.ForEachIndex(nTables+len(numeric), workers, func(i int) {
		if i < nTables {
			parts[i] = trainTableNB(tgt.Tables[i])
		} else {
			numeric[i-nTables] = trainDomainClassifier(tgt, classifierDomains[i-nTables+1])
		}
	})
	tc.assemble(tgt, parts, numeric)
	return tc
}

// assemble publishes the fanned-out training results: string partials
// recorded by table name and merged in schema order, numeric domain
// classifiers stored when trained.
func (tc *targetClassifiers) assemble(tgt *relational.Schema, parts []*classify.NaiveBayes, numeric [2]classify.Classifier) {
	for i, t := range tgt.Tables {
		if parts[i] != nil {
			tc.nbParts[t.Name] = parts[i]
		}
	}
	if nb := classify.MergeNaiveBayes(parts...); nb != nil {
		tc.byDomain[relational.DomainString] = nb
	}
	for i, cls := range numeric {
		if cls != nil {
			tc.byDomain[classifierDomains[i+1]] = cls
		}
	}
}

// trainTableNB trains the string-domain Naive Bayes partial of one
// table — every string attribute, in attribute order, labeled
// "Table.attr" — or nil when the table has no string attribute.
func trainTableNB(rt *relational.Table) *classify.NaiveBayes {
	var nb *classify.NaiveBayes
	for _, a := range rt.Attrs {
		if !a.Type.Compatible(relational.DomainString) {
			continue
		}
		if nb == nil {
			nb = classify.NewNaiveBayes()
		}
		tag := rt.Name + "." + a.Name
		i := rt.AttrIndex(a.Name)
		for _, row := range rt.Rows {
			if !row[i].IsNull() {
				nb.Train(row[i], tag)
			}
		}
	}
	return nb
}

// update derives the classifier set of an updated schema from this one,
// retraining only what the delta touches: string partials of touched
// tables (untouched partials are reused and re-merged in updated-schema
// order — exact), and numeric domains only when some touched table (old
// or new side of the delta) has a compatible attribute, because the
// Gaussian's order-sensitive accumulator spans every table. Unaffected
// numeric classifiers are shared by reference; classifiers are
// immutable after training, so sharing is safe.
func (tc *targetClassifiers) update(updated *relational.Schema, touched func(*relational.Table) bool, affected func(relational.Domain) bool, workers int) *targetClassifiers {
	targetClassifierTrainings.Add(1)
	out := &targetClassifiers{
		byDomain: map[relational.Domain]classify.Classifier{},
		nbParts:  map[string]*classify.NaiveBayes{},
	}
	nTables := len(updated.Tables)
	parts := make([]*classify.NaiveBayes, nTables)
	var numeric [2]classify.Classifier
	match.ForEachIndex(nTables+len(numeric), workers, func(i int) {
		if i < nTables {
			if t := updated.Tables[i]; touched(t) {
				parts[i] = trainTableNB(t)
			} else {
				parts[i] = tc.nbParts[t.Name]
			}
		} else {
			dom := classifierDomains[i-nTables+1]
			if affected(dom) {
				numeric[i-nTables] = trainDomainClassifier(updated, dom)
			} else if cls, ok := tc.byDomain[dom]; ok {
				numeric[i-nTables] = cls
			}
		}
	})
	out.assemble(updated, parts, numeric)
	return out
}

// trainDomainClassifier trains the one-domain Gaussian classifier C_D^T
// of Figure 7 for a numeric domain over every compatible attribute of
// the target schema, in schema order; nil when no attribute is
// compatible. The string domain trains per table instead (trainTableNB).
func trainDomainClassifier(tgt *relational.Schema, domain relational.Domain) classify.Classifier {
	var cls classify.Classifier
	for _, rt := range tgt.Tables {
		for _, a := range rt.Attrs {
			if !a.Type.Compatible(domain) {
				continue
			}
			if cls == nil {
				cls = classify.NewGaussian()
			}
			tag := rt.Name + "." + a.Name
			i := rt.AttrIndex(a.Name)
			for _, row := range rt.Rows {
				if !row[i].IsNull() {
					cls.Train(row[i], tag)
				}
			}
		}
	}
	return cls
}

// domains returns how many per-domain classifiers were trained, for
// prepared-target introspection.
func (tc *targetClassifiers) domains() int {
	if tc == nil {
		return 0
	}
	return len(tc.byDomain)
}

// frozenTargetClassifiers is the compiled, immutable form of
// targetClassifiers: one frozen classifier per value domain, indexed by
// relational.Domain, safe to share across every per-table worker of
// every request against the prepared target. Tagging a value is a
// zero-allocation slice walk (classify.FrozenClassifier) returning a
// dense label index instead of a "Table.attr" string.
type frozenTargetClassifiers struct {
	byDomain [relational.DomainBool + 1]classify.FrozenClassifier
}

// freeze compiles every trained per-domain classifier, interning Naive
// Bayes vocabularies into d (which must still be building). Domains
// freeze in canonical order so vocabulary interning assigns the same
// IDs on every run.
func (tc *targetClassifiers) freeze(d *tokenize.Dict) *frozenTargetClassifiers {
	f := &frozenTargetClassifiers{}
	for _, dom := range classifierDomains {
		if cls, ok := tc.byDomain[dom]; ok {
			f.byDomain[dom] = classify.Freeze(cls, d)
		}
	}
	return f
}

// noTag marks a row whose domain has no target classifier (or an
// untrained one) — the live pipeline's "" tag.
const noTag = int32(-1)

// tgtTagger caches, per column, the target-attribute tag of every row —
// the C_D^T classification of Figure 7 — so each source column is
// classified exactly once per run instead of once per (h, l) attribute
// pair per merge-loop iteration. Not safe for concurrent use; every
// inference call owns one.
type tgtTagger struct {
	fcls *frozenTargetClassifiers
	tags map[tagKey][]int32
}

type tagKey struct {
	t    *relational.Table
	attr string
}

func newTagger(fcls *frozenTargetClassifiers) *tgtTagger {
	return &tgtTagger{fcls: fcls, tags: map[tagKey][]int32{}}
}

// tagsFor returns the per-row tag indices of column h of t, computing
// them on first use.
func (tg *tgtTagger) tagsFor(t *relational.Table, h string) []int32 {
	key := tagKey{t, h}
	if ts, ok := tg.tags[key]; ok {
		return ts
	}
	out := make([]int32, len(t.Rows))
	a, _ := t.Attr(h)
	fc := tg.fcls.byDomain[a.Type.Domain()]
	hi := t.AttrIndex(h)
	for ri, row := range t.Rows {
		out[ri] = noTag
		if fc != nil {
			if idx, ok := fc.ClassifyIndex(row[hi]); ok {
				out[ri] = int32(idx)
			}
		}
	}
	tg.tags[key] = out
	return out
}

// factory builds the TgtClassInfer labelClassifier for attribute h: it
// tags each training row with its most similar target attribute,
// accumulates TBag(R.h, R.l) in dense slices and derives bestCAT
// (§3.2.4). Row tags come precomputed from the tagger.
func (tg *tgtTagger) factory(train, test *relational.Table, h string, groups int) labelClassifier {
	nTags := 1 // slot 0 is the no-classifier tag
	a, _ := train.Attr(h)
	if fc := tg.fcls.byDomain[a.Type.Domain()]; fc != nil {
		nTags += len(fc.Labels())
	}
	return &tgtClassifier{
		trainTags: tg.tagsFor(train, h),
		testTags:  tg.tagsFor(test, h),
		nGroups:   groups,
		vFreq:     make([]int, groups),
		gFreq:     make([]int, nTags),
		tbag:      make([][]int, nTags),
	}
}

// tgtClassifier implements doTraining/doTesting for TgtClassInfer over
// dense tag and group indices: tbag[tag][group] counts co-occurrences,
// bestCAT[tag] is the §3.2.4 argmax of acc·prec, and prediction falls
// back to the majority group for tags unseen in training — exactly the
// live string-keyed pipeline, minus its map lookups and label parsing.
type tgtClassifier struct {
	trainTags, testTags []int32

	// tbag[tagIdx][group] counts pairs; tagIdx is the frozen label index
	// shifted by one so slot 0 holds the no-classifier tag. Rows are
	// allocated on a tag's first training pair, sized to the run's group
	// count; a nil row means the tag never appeared in training.
	nGroups int
	tbag    [][]int
	vFreq   []int
	gFreq   []int
	total   int

	bestCAT  []int
	majority int
}

// Train records the pair (tag(t.h), t.l) into TBag, addressing the tag
// by the training row index.
func (c *tgtClassifier) Train(row int, _ relational.Value, g int) {
	tag := int(c.trainTags[row]) + 1
	if c.tbag[tag] == nil {
		c.tbag[tag] = make([]int, c.nGroups)
	}
	c.tbag[tag][g]++
	c.vFreq[g]++
	c.gFreq[tag]++
	c.total++
}

// Finish computes bestCAT(g) = argmax_v acc(g,v)·prec(g,v) where
// acc(g,v)=P(g|v) and prec(g,v)=P(v|g), ties broken in favor of the more
// common v, then by smaller group index for determinism (group labels
// sort numerically).
func (c *tgtClassifier) Finish() {
	c.majority = -1
	if c.total > 0 {
		// total == 0 keeps majority at -1: vFreq is preallocated to the
		// group count, and an all-zero scan must not elect group 0 where
		// the grown-on-demand accumulator had nothing to scan.
		bestFreq := -1
		for v, n := range c.vFreq {
			if n > bestFreq {
				c.majority, bestFreq = v, n
			}
		}
	}
	c.bestCAT = make([]int, len(c.tbag))
	for tag, byV := range c.tbag {
		best, bestScore, bestN := -1, -1.0, -1
		for v, n := range byV {
			if n == 0 {
				continue
			}
			acc := float64(n) / float64(c.vFreq[v])    // P(g|v)
			prec := float64(n) / float64(c.gFreq[tag]) // P(v|g)
			score := acc * prec
			if score > bestScore || (score == bestScore && c.vFreq[v] > bestN) {
				best, bestScore, bestN = v, score, c.vFreq[v]
			}
		}
		c.bestCAT[tag] = best
	}
}

// Predict returns bestCAT(tag(t.h)) for the test row; a tag never seen
// in training falls back to the majority categorical value (the paper
// allows an arbitrary choice; majority is the deterministic one).
func (c *tgtClassifier) Predict(row int, _ relational.Value) int {
	tag := int(c.testTags[row]) + 1
	if c.gFreq[tag] > 0 {
		return c.bestCAT[tag]
	}
	return c.majority
}
