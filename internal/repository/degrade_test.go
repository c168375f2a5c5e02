package repository

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/fault"
)

// resultJSON canonicalizes a match result for bit-identity comparison:
// the wall-clock Elapsed is zeroed, everything the matcher decided is
// kept verbatim.
func resultJSON(t *testing.T, res *ctxmatch.Result) string {
	t.Helper()
	c := *res
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return string(b)
}

// TestDegradedBitIdentical is the acceptance property of degraded
// match-any: with a fault injected into one catalog's exact match, the
// response must carry exactly that catalog in Skipped (reason "error")
// and every completed catalog's Result must be bit-identical to the
// fault-free response restricted to those catalogs.
func TestDegradedBitIdentical(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source

	full, err := f.MatchAny(context.Background(), src, Query{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || len(full.Skipped) != 0 {
		t.Fatalf("fault-free report degraded: %+v", full.Skipped)
	}
	fullByName := map[string]string{}
	for _, cm := range full.Ranked {
		fullByName[cm.Name] = resultJSON(t, cm.Result)
	}

	reg := fault.NewRegistry()
	reg.Set("fleet.match", fault.Plan{FailNth: 2})
	f.InjectFaults(reg)
	defer f.InjectFaults(nil)

	rep, err := f.MatchAny(context.Background(), src, Query{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || len(rep.Skipped) != 1 {
		t.Fatalf("degraded=%v skipped=%+v, want exactly one skip", rep.Degraded, rep.Skipped)
	}
	sk := rep.Skipped[0]
	if sk.Reason != ReasonError || sk.Detail == "" {
		t.Fatalf("skip = %+v, want reason %q with detail", sk, ReasonError)
	}
	if len(rep.Ranked)+1 != len(full.Ranked) {
		t.Fatalf("degraded ranked %d + 1 skip != full ranked %d", len(rep.Ranked), len(full.Ranked))
	}
	for _, cm := range rep.Ranked {
		if cm.Name == sk.Name {
			t.Fatalf("catalog %s both ranked and skipped", cm.Name)
		}
		want, ok := fullByName[cm.Name]
		if !ok {
			t.Fatalf("degraded response ranked %s, absent from the full response", cm.Name)
		}
		if got := resultJSON(t, cm.Result); got != want {
			t.Errorf("catalog %s: degraded result diverged from the full response", cm.Name)
		}
	}
	if rep.Matched != len(rep.Ranked) {
		t.Errorf("Matched = %d, want %d", rep.Matched, len(rep.Ranked))
	}
}

// TestFaultScheduleDeterminism: the same seeded schedule produces the
// same skipped set, run after run.
func TestFaultScheduleDeterminism(t *testing.T) {
	src := sharedFleet(t).datasets["ryan-1"].Source
	run := func() []SkippedCatalog {
		f := newTestFleet(t, 1)
		reg := fault.NewRegistry()
		reg.Set("fleet.match", fault.Plan{FailNth: 2, Every: true})
		f.InjectFaults(reg)
		rep, err := f.MatchAny(context.Background(), src, Query{K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Skipped
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("skipped sets diverged across identical runs:\n%s\n%s", aj, bj)
	}
	if len(a) == 0 {
		t.Fatal("every-2nd schedule skipped nothing")
	}
}

// TestExpiredDeadlineDegrades: a request whose deadline already passed
// gets a degraded 200-style report — every catalog skipped with a
// budget reason — never an error.
func TestExpiredDeadlineDegrades(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	rep, err := f.MatchAny(ctx, src, Query{K: 4})
	if err != nil {
		t.Fatalf("expired deadline returned an error: %v", err)
	}
	if !rep.Degraded || len(rep.Ranked) != 0 {
		t.Fatalf("expired deadline: degraded=%v ranked=%d", rep.Degraded, len(rep.Ranked))
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("expired deadline skipped nothing")
	}
	for _, sk := range rep.Skipped {
		switch sk.Reason {
		case ReasonRetrieveBudget, ReasonDeadline, ReasonCanceled:
		default:
			t.Fatalf("unexpected skip reason %q: %+v", sk.Reason, sk)
		}
	}
}

// TestBreakerLifecycle drives one catalog's breaker through its whole
// arc: failures up to the threshold open it, while open the catalog is
// skipped without a match attempt, after the cooldown a half-open
// trial runs — and a successful trial closes the breaker.
func TestBreakerLifecycle(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond})
	src := sharedFleet(t).datasets["aaron-1"].Source
	reg := fault.NewRegistry()
	reg.Set("fleet.match", fault.Plan{FailNth: 1, Every: true})
	f.InjectFaults(reg)

	skippedReasons := func() map[string]string {
		rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, sk := range rep.Skipped {
			out[sk.Name] = sk.Reason
		}
		return out
	}

	// Two failing rounds reach the threshold for every survivor.
	first := skippedReasons()
	if len(first) == 0 {
		t.Fatal("failing round skipped nothing")
	}
	for name, reason := range first {
		if reason != ReasonError {
			t.Fatalf("round 1: %s skipped with %q, want %q", name, reason, ReasonError)
		}
	}
	second := skippedReasons()
	hitsAfterOpen := reg.Hits("fleet.match")

	// Breakers are open: the catalogs are skipped without consulting
	// the match point at all.
	third := skippedReasons()
	for name := range second {
		if third[name] != ReasonBreakerOpen {
			t.Fatalf("round 3: %s skipped with %q, want %q (%v)", name, third[name], ReasonBreakerOpen, third)
		}
	}
	if got := reg.Hits("fleet.match"); got != hitsAfterOpen {
		t.Fatalf("open breaker still attempted matches: hits %d -> %d", hitsAfterOpen, got)
	}
	if f.OpenBreakers() == 0 {
		t.Fatal("OpenBreakers = 0 with open breakers")
	}

	// Past the cooldown the trial runs; with the fault cleared it
	// succeeds and the breaker closes.
	time.Sleep(60 * time.Millisecond)
	reg.Clear("fleet.match")
	rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded || len(rep.Ranked) == 0 {
		t.Fatalf("post-cooldown trial: degraded=%v ranked=%d", rep.Degraded, len(rep.Ranked))
	}
	if f.OpenBreakers() != 0 {
		t.Fatalf("OpenBreakers = %d after successful trials, want 0", f.OpenBreakers())
	}
}

// TestBreakerReopensOnFailedTrial: a failing half-open trial re-opens
// the breaker for another cooldown.
func TestBreakerReopensOnFailedTrial(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 1, Cooldown: 30 * time.Millisecond})
	now := time.Now()
	f.breakerRecord("x", true, now)
	if f.breakerAllow("x", now) {
		t.Fatal("breaker still closed after threshold failures")
	}
	// Cooldown elapsed: the trial is allowed, its failure re-opens.
	later := now.Add(40 * time.Millisecond)
	if !f.breakerAllow("x", later) {
		t.Fatal("half-open trial refused after cooldown")
	}
	f.breakerRecord("x", true, later)
	if f.breakerAllow("x", later.Add(time.Millisecond)) {
		t.Fatal("breaker closed again right after a failed trial")
	}
	// Success closes it for good.
	trial2 := later.Add(40 * time.Millisecond)
	if !f.breakerAllow("x", trial2) {
		t.Fatal("second trial refused")
	}
	f.breakerRecord("x", false, trial2)
	if !f.breakerAllow("x", trial2.Add(time.Nanosecond)) {
		t.Fatal("breaker open after a successful trial")
	}
}

// TestDisabledBreakerNeverOpens: Threshold < 0 turns breakers off.
func TestDisabledBreakerNeverOpens(t *testing.T) {
	f := NewFleet()
	f.SetBreaker(BreakerConfig{Threshold: -1})
	now := time.Now()
	for i := 0; i < 100; i++ {
		f.breakerRecord("x", true, now)
	}
	if !f.breakerAllow("x", now) {
		t.Fatal("disabled breaker opened")
	}
	if f.OpenBreakers() != 0 {
		t.Fatalf("OpenBreakers = %d with breakers disabled", f.OpenBreakers())
	}
}

// TestRemovedClearsBreakerState: eviction drops a catalog's failure
// history, so a re-install starts with a closed breaker.
func TestRemovedClearsBreakerState(t *testing.T) {
	f := newTestFleet(t, 1)
	f.SetBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	now := time.Now()
	f.breakerRecord("aaron-1", true, now)
	if f.breakerAllow("aaron-1", now) {
		t.Fatal("breaker still closed")
	}
	f.Removed("aaron-1")
	if !f.breakerAllow("aaron-1", now) {
		t.Fatal("breaker state survived Removed")
	}
}

// reportJSON canonicalizes a whole match-any report — ranked results
// (with each Result's wall-clock Elapsed zeroed), retrieval scores
// including Pruned flags and partial evidence, counts and skips — for
// bit-identity comparison.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Ranked = make([]CatalogMatch, len(rep.Ranked))
	for i, cm := range rep.Ranked {
		res := *cm.Result
		res.Elapsed = 0
		cm.Result = &res
		c.Ranked[i] = cm
	}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	return string(b)
}

// TestMatchAnyWaitsForWriter: with a writer parked on the fleet lock
// (what a long fused-index compaction inside Installed looks like to
// readers), MatchAny waits for it instead of answering from some other
// path, and once the writer leaves returns a report identical — ranked
// results, retrieval scores, Pruned flags and evidence — to an
// uncontended MatchAny.
func TestMatchAnyWaitsForWriter(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["aaron-1"].Source

	want, err := f.MatchAny(context.Background(), src, Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}

	f.mu.Lock()
	done := make(chan *Report, 1)
	go func() {
		rep, err := f.MatchAny(context.Background(), src, Query{K: 3})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	// No event marks "the reader is blocked on the lock"; give it a
	// moment to (wrongly) answer while the writer holds the lock.
	select {
	case <-done:
		f.mu.Unlock()
		t.Fatal("MatchAny answered while a writer held the fleet lock")
	case <-time.After(50 * time.Millisecond):
	}
	f.mu.Unlock()

	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MatchAny did not finish after the writer released the lock")
	}
	if rep == nil {
		t.Fatal("no report")
	}
	if got, w := reportJSON(t, rep), reportJSON(t, want); got != w {
		t.Fatalf("contended report diverged from uncontended one:\n got %s\nwant %s", got, w)
	}
}

// TestMatchAnySeesPublishedStates races readers against a writer that
// loops Installed/Removed: every report's retrieval set of (name,
// generation) pairs must equal one state the writer published, never a
// mix of two, and every ranked catalog must come from that set.
func TestMatchAnySeesPublishedStates(t *testing.T) {
	fx := sharedFleet(t)
	f := newTestFleet(t, 1)
	src := fx.datasets["aaron-1"].Source

	gens := map[string]int{}
	for i, spec := range fleetSpecs {
		gens[spec.name] = i + 1
	}
	stateKey := func(pairs map[string]int) string {
		names := make([]string, 0, len(pairs))
		for name := range pairs {
			names = append(names, name)
		}
		slices.Sort(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s@%d;", name, pairs[name])
		}
		return b.String()
	}
	var pubMu sync.Mutex
	published := map[string]bool{stateKey(gens): true}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		gen := len(fleetSpecs)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			spec := fleetSpecs[i%len(fleetSpecs)]
			remove := i%3 == 0
			// Record the next state before publishing it, so a reader
			// can never observe a state the set does not yet hold.
			if remove {
				delete(gens, spec.name)
			} else {
				gen++
				gens[spec.name] = gen
			}
			pubMu.Lock()
			published[stateKey(gens)] = true
			pubMu.Unlock()
			if remove {
				f.Removed(spec.name)
			} else {
				f.Installed(spec.name, gen, fx.targets[spec.name])
			}
		}
	}()

	const nReaders, perReader = 2, 6
	var readers sync.WaitGroup
	seen := make(chan string, nReaders*perReader) // one key per report
	for w := 0; w < nReaders; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < perReader; i++ {
				rep, err := f.MatchAny(context.Background(), src, Query{K: 1})
				if err != nil {
					t.Error(err)
					return
				}
				pairs := map[string]int{}
				for _, cs := range rep.Retrieval {
					pairs[cs.Name] = cs.Generation
				}
				if len(pairs) != rep.Considered || len(rep.Retrieval) != rep.Considered {
					t.Errorf("retrieval lists %d catalogs (%d distinct), considered %d",
						len(rep.Retrieval), len(pairs), rep.Considered)
				}
				for _, cm := range rep.Ranked {
					if g, ok := pairs[cm.Name]; !ok || g != cm.Generation {
						t.Errorf("ranked %s@%d is not in the retrieval set", cm.Name, cm.Generation)
					}
				}
				seen <- stateKey(pairs)
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	close(seen)
	for key := range seen {
		if !published[key] {
			t.Errorf("report retrieval set %q matches no published state", key)
		}
	}
}

// TestErrorsDoNotAbortSiblings: an injected failure on one catalog
// leaves an errors.Is-able detail and the siblings matched — the old
// isolated-failure contract, now expressed through Skipped.
func TestErrorsDoNotAbortSiblings(t *testing.T) {
	f := newTestFleet(t, 1)
	src := sharedFleet(t).datasets["barrett-2"].Source
	sentinel := errors.New("backend lost")
	reg := fault.NewRegistry()
	reg.Set("fleet.match", fault.Plan{FailNth: 1, Err: sentinel})
	f.InjectFaults(reg)

	rep, err := f.MatchAny(context.Background(), src, Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0].Detail != sentinel.Error() {
		t.Fatalf("skipped = %+v, want one %q detail", rep.Skipped, sentinel)
	}
	if len(rep.Ranked) == 0 {
		t.Fatal("sibling catalogs did not survive an isolated failure")
	}
}
