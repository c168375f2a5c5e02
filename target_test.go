package ctxmatch_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/match"
)

func inventoryDS(seed int64) *datagen.Dataset {
	return datagen.Inventory(datagen.InventoryConfig{
		Rows: 240, TargetRows: 120, Gamma: 4, Target: datagen.Ryan, Seed: seed,
	})
}

// TestPreparedMatchZeroTraining: after Prepare, matching through the
// handle must perform zero target-classifier training and zero catalog
// feature scans — the artifacts are pinned.
func TestPreparedMatchZeroTraining(t *testing.T) {
	ds := inventoryDS(3)
	m := mustNew(t)
	prepared, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	trainings := core.TargetClassifierTrainings()
	scans := match.TargetPrecomputes()
	for i := 0; i < 3; i++ {
		res, err := prepared.Match(context.Background(), ds.Source)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatal("no matches")
		}
	}
	if got := core.TargetClassifierTrainings(); got != trainings {
		t.Errorf("prepared Match trained target classifiers %d times", got-trainings)
	}
	if got := match.TargetPrecomputes(); got != scans {
		t.Errorf("prepared Match rescanned catalog features %d times", got-scans)
	}
}

// TestPreparedMatchAgreesWithMatcher: the handle's results must be
// byte-identical to Matcher.Match, including for MatchTarget.
func TestPreparedMatchAgreesWithMatcher(t *testing.T) {
	ds := inventoryDS(5)
	m := mustNew(t, ctxmatch.WithSeed(5))
	direct, err := m.Match(context.Background(), ds.Source, ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	viaHandle, err := prepared.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	if renderMatches(viaHandle) != renderMatches(direct) {
		t.Error("Target.Match diverged from Matcher.Match")
	}
	if prepared.Schema() != ds.Target {
		t.Error("Schema() does not return the prepared catalog")
	}
	revDirect, err := m.MatchTarget(context.Background(), ds.Source, ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	revHandle, err := prepared.MatchTarget(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	if renderMatches(revHandle) != renderMatches(revDirect) {
		t.Error("Target.MatchTarget diverged from Matcher.MatchTarget")
	}
}

// TestPrepareValidation: empty catalogs and canceled contexts are
// structured errors before any training happens.
func TestPrepareValidation(t *testing.T) {
	ds := inventoryDS(1)
	m := mustNew(t)
	if _, err := m.Prepare(context.Background(), nil); !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Errorf("Prepare(nil): err = %v, want ErrEmptySchema", err)
	}
	if _, err := m.Prepare(context.Background(), ctxmatch.NewSchema("RT")); !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Errorf("Prepare(empty): err = %v, want ErrEmptySchema", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := core.TargetClassifierTrainings()
	if _, err := m.Prepare(ctx, ds.Target); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepare(canceled): err = %v, want context.Canceled", err)
	}
	if got := core.TargetClassifierTrainings(); got != before {
		t.Error("canceled Prepare paid for classifier training")
	}
}

// TestMatchAll: results come back in input order, each byte-identical
// to a lone Match, and a bad source fails alone without sinking the
// batch.
func TestMatchAll(t *testing.T) {
	ds1, ds2 := inventoryDS(1), inventoryDS(2)
	m := mustNew(t, ctxmatch.WithParallelism(2))
	prepared, err := m.Prepare(context.Background(), ds1.Target)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := prepared.Match(context.Background(), ds1.Source)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := prepared.Match(context.Background(), ds2.Source)
	if err != nil {
		t.Fatal(err)
	}

	sources := []*ctxmatch.Schema{ds1.Source, ctxmatch.NewSchema("broken"), ds2.Source}
	results, err := prepared.MatchAll(context.Background(), sources)
	if len(results) != 3 {
		t.Fatalf("len(results) = %d, want 3", len(results))
	}
	if err == nil {
		t.Fatal("MatchAll swallowed the broken source's error")
	}
	if !errors.Is(err, ctxmatch.ErrEmptySchema) {
		t.Errorf("batch error does not chain to ErrEmptySchema: %v", err)
	}
	var se *ctxmatch.SourceError
	if !errors.As(err, &se) || se.Index != 1 || se.Schema != "broken" {
		t.Errorf("SourceError = %+v, want Index=1 Schema=broken", se)
	}
	if results[1] != nil {
		t.Error("broken source produced a result")
	}
	if results[0] == nil || renderMatches(results[0]) != renderMatches(want1) {
		t.Error("results[0] diverged from a lone Match")
	}
	if results[2] == nil || renderMatches(results[2]) != renderMatches(want2) {
		t.Error("results[2] diverged from a lone Match")
	}

	// All-good batch: nil error.
	results, err = prepared.MatchAll(context.Background(), []*ctxmatch.Schema{ds1.Source, ds2.Source})
	if err != nil {
		t.Fatalf("clean batch returned %v", err)
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatal("clean batch lost results")
	}
	// Empty batch: trivially fine.
	if results, err = prepared.MatchAll(context.Background(), nil); err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %v", results, err)
	}
}

// TestMatchStream: outcomes arrive in input order with per-source
// errors isolated, and the output channel closes when the input does.
func TestMatchStream(t *testing.T) {
	ds1, ds2 := inventoryDS(1), inventoryDS(2)
	m := mustNew(t, ctxmatch.WithParallelism(2))
	prepared, err := m.Prepare(context.Background(), ds1.Target)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := prepared.Match(context.Background(), ds1.Source)
	if err != nil {
		t.Fatal(err)
	}

	in := make(chan *ctxmatch.Schema, 3)
	in <- ds1.Source
	in <- ctxmatch.NewSchema("broken")
	in <- ds2.Source
	close(in)

	var outs []ctxmatch.Outcome
	for o := range prepared.MatchStream(context.Background(), in) {
		outs = append(outs, o)
	}
	if len(outs) != 3 {
		t.Fatalf("stream delivered %d outcomes, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Index != i {
			t.Errorf("outcome %d has Index %d — not in arrival order", i, o.Index)
		}
	}
	if outs[0].Err != nil || renderMatches(outs[0].Result) != renderMatches(want1) {
		t.Error("outcome 0 diverged from a lone Match")
	}
	var se *ctxmatch.SourceError
	if !errors.As(outs[1].Err, &se) || se.Index != 1 {
		t.Errorf("outcome 1: err = %v, want *SourceError at index 1", outs[1].Err)
	}
	if outs[2].Err != nil || outs[2].Result == nil {
		t.Error("outcome 2 did not survive its broken predecessor")
	}
}

// TestMatchStreamCancellation: canceling mid-stream closes the output
// channel promptly even though the input channel never closes.
func TestMatchStreamCancellation(t *testing.T) {
	ds := inventoryDS(1)
	m := mustNew(t, ctxmatch.WithParallelism(2))
	prepared, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in := make(chan *ctxmatch.Schema)
	feederDone := make(chan struct{})
	go func() { // feed forever until the stream stops accepting
		defer close(feederDone)
		for {
			select {
			case in <- ds.Source:
			case <-ctx.Done():
				return
			}
		}
	}()

	out := prepared.MatchStream(ctx, in)
	select {
	case o, ok := <-out:
		if ok && o.Err == nil && o.Result == nil {
			t.Error("first outcome carries neither result nor error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no outcome within 30s")
	}
	cancel()

	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				<-feederDone
				return // closed promptly after cancellation
			}
		case <-deadline:
			t.Fatal("stream did not close after cancellation")
		}
	}
}

// TestPrepareAfterInPlaceMutation pins the aliasing rule: after a
// prepared catalog's rows are replaced in place, a new Prepare of the
// same schema object retrains and answers exactly like a Prepare of an
// independent schema holding the new rows, while the handle prepared
// before the mutation keeps answering from the artifacts it pinned.
func TestPrepareAfterInPlaceMutation(t *testing.T) {
	ds, other := inventoryDS(7), inventoryDS(8)
	m := mustNew(t)
	old, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	oldBefore, err := old.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the catalog in place: same schema and table objects, the
	// other dataset's rows.
	for i, tbl := range ds.Target.Tables {
		tbl.Rows = other.Target.Tables[i].Rows
	}
	before := core.TargetClassifierTrainings()
	fresh, err := m.Prepare(context.Background(), ds.Target)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.TargetClassifierTrainings(); got == before {
		t.Error("Prepare after an in-place mutation did not retrain")
	}
	ref, err := mustNew(t).Prepare(context.Background(), other.Target)
	if err != nil {
		t.Fatal(err)
	}
	freshRes, err := fresh.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	if renderMatches(freshRes) != renderMatches(refRes) {
		t.Error("re-Prepare of the mutated catalog does not reflect its new rows")
	}

	oldAfter, err := old.Match(context.Background(), ds.Source)
	if err != nil {
		t.Fatal(err)
	}
	if renderMatches(oldAfter) != renderMatches(oldBefore) {
		t.Error("the handle prepared before the mutation changed its answers")
	}
	if renderMatches(oldAfter) == renderMatches(freshRes) {
		t.Error("old and new rows give the same answers; the check above proves nothing")
	}
}
