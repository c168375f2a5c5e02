package core

import (
	"sync"

	"ctxmatch/internal/match"
	"ctxmatch/internal/relational"
	"ctxmatch/internal/tokenize"
)

// targetArtifacts is everything PrepareTarget pins for one catalog: the
// shared frozen gram dictionary, the ID-keyed column feature layer, and
// (under TgtClassInfer) the trained per-domain target classifiers in
// both live and compiled-frozen form. All fields are immutable once the
// struct is published and therefore safe for concurrent readers.
type targetArtifacts struct {
	dict  *tokenize.Dict
	feats *match.TargetFeatures
	tcls  *targetClassifiers
	fcls  *frozenTargetClassifiers
}

// buildTargetArtifacts performs the full target-side precompute: column
// features interned into a fresh dictionary, classifier training and
// freezing into the same ID space, then the dictionary freeze that
// makes the whole set shareable. The two independent halves — column
// feature extraction and classifier training — run concurrently, and
// each fans internally across up to workers goroutines; the merge and
// freeze steps are sequential in canonical order, so the artifact set
// is bit-identical at any worker count.
func buildTargetArtifacts(eng *match.Engine, tgt *relational.Schema, needCls bool, workers int) *targetArtifacts {
	if workers < 1 {
		workers = 1
	}
	a := &targetArtifacts{dict: tokenize.NewDict()}
	var tcls *targetClassifiers
	var wg sync.WaitGroup
	if needCls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tcls = newTargetClassifiers(tgt, workers)
		}()
	}
	a.feats = eng.PrecomputeTarget(tgt, a.dict, workers)
	wg.Wait()
	if needCls {
		a.tcls = tcls
		a.fcls = tcls.freeze(a.dict)
	}
	a.dict.Freeze()
	return a
}

// classifierDomains counts the trained per-domain target classifiers:
// from the live set when the artifacts were built in-process, from the
// frozen set alone when they were restored from a snapshot (which
// carries no live classifiers).
func (a *targetArtifacts) classifierDomains() int {
	if a.tcls != nil {
		return a.tcls.domains()
	}
	if a.fcls == nil {
		return 0
	}
	n := 0
	for _, c := range a.fcls.byDomain {
		if c != nil {
			n++
		}
	}
	return n
}
