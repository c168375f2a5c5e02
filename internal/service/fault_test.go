package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctxmatch"
	"ctxmatch/internal/fault"
)

// scrapeMetric reads one un-labeled metric family's value from
// GET /metrics.
func scrapeMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestTornWritePreservesOldSnapshot is the crash-safety satellite: a
// torn write (and separately a failed fsync) during an eager persist
// must leave the previous snapshot bytes on disk intact and the entry
// dirty for the drain-time flush — never a torn or zero-length file
// under the final name.
func TestTornWritePreservesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	reg := fault.NewRegistry()
	ts, svc := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.Faults = reg
	})
	cat1, _ := fixtureDocs(t, 1)
	cat2, _ := fixtureDocs(t, 2)
	if status, _ := putCatalog(t, ts, "inv", cat1); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	path := snapshotPath(dir, "inv")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot not persisted: %v", err)
	}

	// Tear the very next file write: the re-prepare succeeds (persist
	// failures never fail an upload) but the persist is deferred.
	reg.Set("fs.write", fault.Plan{FailNth: 1, TornAfter: 32})
	if status, _ := putCatalog(t, ts, "inv", cat2); status != http.StatusOK {
		t.Fatal("re-PUT failed")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot vanished after torn write: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("torn write reached the published snapshot")
	}
	if _, err := ctxmatch.LoadTarget(bytes.NewReader(got)); err != nil {
		t.Fatalf("surviving snapshot does not load: %v", err)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, ".snap-*")); len(stale) != 0 {
		t.Fatalf("torn write left temp litter: %v", stale)
	}
	if d := svc.Registry().Dirty(); len(d) != 1 {
		t.Fatalf("dirty = %v, want the torn catalog", d)
	}

	// The drain-time flush lands the new generation once the disk heals.
	reg.Clear("fs.write")
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatalf("FlushSnapshots: %v", err)
	}
	flushed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(flushed, old) {
		t.Fatal("flush did not replace the stale snapshot")
	}
	if _, err := ctxmatch.LoadTarget(bytes.NewReader(flushed)); err != nil {
		t.Fatalf("flushed snapshot does not load: %v", err)
	}

	// A failed fsync is handled exactly like a torn write: the rename
	// never runs, the published bytes stay whole.
	reg.Set("fs.sync", fault.Plan{FailNth: 1})
	if status, _ := putCatalog(t, ts, "inv", cat1); status != http.StatusOK {
		t.Fatal("third PUT failed")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, flushed) {
		t.Fatal("failed fsync still replaced the published snapshot")
	}
}

// TestWarmRestartMatrix is the restore matrix satellite: over
// {truncated, bit-flipped, zero-length, valid} snapshot files the
// daemon must come up serving every valid catalog, answer 503 only
// while loading, quarantine every invalid file, clean temp litter, and
// never panic or load corrupt bytes.
func TestWarmRestartMatrix(t *testing.T) {
	dir := t.TempDir()
	seedTS, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	catA, srcDoc := fixtureDocs(t, 1)
	catB, _ := fixtureDocs(t, 5)
	if status, _ := putCatalog(t, seedTS, "alpha", catA); status != http.StatusCreated {
		t.Fatal("PUT alpha failed")
	}
	if status, _ := putCatalog(t, seedTS, "beta", catB); status != http.StatusCreated {
		t.Fatal("PUT beta failed")
	}
	valid, err := os.ReadFile(snapshotPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}

	// The invalid corner of the matrix, all derived from real bytes.
	trunc := valid[:len(valid)*3/5]
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)/2] ^= 0x40
	matrix := map[string][]byte{
		"trunc":   trunc,
		"bitflip": bitflip,
		"zero":    {},
	}
	for name, data := range matrix {
		if err := os.WriteFile(snapshotPath(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Temp litter from a write a crash interrupted.
	litter := filepath.Join(dir, ".snap-12345")
	if err := os.WriteFile(litter, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	ts, svc := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	svc.BeginWarmRestart()
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while loading = %d, want 503", resp.StatusCode)
	}
	n, err := svc.RestoreSnapshots()
	if err != nil {
		t.Fatalf("RestoreSnapshots: %v", err)
	}
	svc.FinishWarmRestart()
	if n != 2 {
		t.Fatalf("restored %d catalogs, want the 2 valid ones", n)
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after restore = %d, want 200", resp.StatusCode)
	}

	for name := range matrix {
		if _, err := os.Stat(snapshotPath(dir, name)); !os.IsNotExist(err) {
			t.Errorf("invalid snapshot %q still in the restore set: %v", name, err)
		}
		if _, err := os.Stat(snapshotPath(dir, name) + corruptSuffix); err != nil {
			t.Errorf("invalid snapshot %q not quarantined: %v", name, err)
		}
	}
	if _, err := os.Stat(litter); !os.IsNotExist(err) {
		t.Errorf("temp litter survived the restart: %v", err)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_snapshot_quarantined_total"); got != 3 {
		t.Errorf("quarantined_total = %v, want 3", got)
	}
	if infos := svc.Registry().List(); len(infos) != 2 {
		t.Fatalf("registry holds %d catalogs, want 2: %+v", len(infos), infos)
	}

	// The restored fleet serves: a match-any touches both catalogs, no
	// 5xx, no degradation.
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: srcDoc, K: 2})
	if status != http.StatusOK {
		t.Fatalf("match-any after matrix restore = %d: %s", status, body)
	}
	if out.Degraded || out.Considered != 2 {
		t.Fatalf("match-any after restore: degraded=%v considered=%d", out.Degraded, out.Considered)
	}

	// A second restart over the already-quarantined directory is clean:
	// nothing new to quarantine, both catalogs again.
	_, svc2 := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	if n, err := svc2.RestoreSnapshots(); err != nil || n != 2 {
		t.Fatalf("second restore = %d, %v; want 2, nil", n, err)
	}
}

// TestDeleteRemovesQuarantinedSibling: DELETE must clear the *.corrupt
// sibling along with the snapshot, and LRU eviction must clear the
// sibling while keeping the healthy snapshot for a cheap re-restore.
func TestDeleteRemovesQuarantinedSibling(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, func(c *Config) { c.SnapshotDir = dir })
	cat, _ := fixtureDocs(t, 1)
	if status, _ := putCatalog(t, ts, "inv", cat); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	corrupt := snapshotPath(dir, "inv") + corruptSuffix
	if err := os.WriteFile(corrupt, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/catalogs/inv", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d: %s", resp.StatusCode, body)
	}
	if _, err := os.Stat(snapshotPath(dir, "inv")); !os.IsNotExist(err) {
		t.Errorf("snapshot survived DELETE: %v", err)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Errorf("quarantined sibling survived DELETE: %v", err)
	}
}

func TestEvictionRemovesQuarantinedSibling(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestServer(t, func(c *Config) {
		c.SnapshotDir = dir
		c.MaxCatalogs = 1
	})
	catA, _ := fixtureDocs(t, 1)
	catB, _ := fixtureDocs(t, 2)
	if status, _ := putCatalog(t, ts, "old", catA); status != http.StatusCreated {
		t.Fatal("PUT old failed")
	}
	corrupt := snapshotPath(dir, "old") + corruptSuffix
	if err := os.WriteFile(corrupt, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: this PUT evicts "old".
	if status, _ := putCatalog(t, ts, "new", catB); status != http.StatusCreated {
		t.Fatal("PUT new failed")
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Errorf("quarantined sibling survived eviction: %v", err)
	}
	// The healthy snapshot is kept: eviction is capacity management,
	// not deletion, and the file warm-restores the catalog cheaply.
	if _, err := os.Stat(snapshotPath(dir, "old")); err != nil {
		t.Errorf("healthy snapshot of evicted catalog removed: %v", err)
	}
}

// wireResultJSON canonicalizes a decoded wire Result for bit-identity
// comparison (the wall-clock elapsed_ns is zeroed).
func wireResultJSON(t *testing.T, res *ctxmatch.Result) string {
	t.Helper()
	c := *res
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMatchAnyDegradedOverHTTP is the serving half of the acceptance
// property: with a fault injected into one catalog's match, POST
// /v1/match-any answers 200 with degraded:true, the skipped catalog
// listed with a reason, and every completed catalog's result
// bit-identical to the fault-free response — never a 5xx.
func TestMatchAnyDegradedOverHTTP(t *testing.T) {
	reg := fault.NewRegistry()
	ts, _ := newTestServer(t, func(c *Config) { c.Faults = reg })
	src := putFleet(t, ts, 3)

	status, full, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 3})
	if status != http.StatusOK {
		t.Fatalf("clean match-any = %d: %s", status, body)
	}
	if full.Degraded || len(full.Skipped) != 0 {
		t.Fatalf("clean response degraded: %+v", full.Skipped)
	}
	fullByName := map[string]string{}
	for _, mc := range full.Catalogs {
		fullByName[mc.Name] = wireResultJSON(t, mc.Result)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 0 {
		t.Fatalf("degraded_total = %v before any fault", got)
	}

	reg.Set("fleet.match", fault.Plan{FailNth: 2})
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 3})
	if status != http.StatusOK {
		t.Fatalf("degraded match-any = %d, want 200: %s", status, body)
	}
	if !out.Degraded || len(out.Skipped) != 1 {
		t.Fatalf("degraded=%v skipped=%+v, want one skip", out.Degraded, out.Skipped)
	}
	if out.Skipped[0].Reason != "error" || out.Skipped[0].Detail == "" {
		t.Fatalf("skip = %+v, want reason \"error\" with detail", out.Skipped[0])
	}
	if len(out.Catalogs)+1 != len(full.Catalogs) {
		t.Fatalf("degraded completed %d + 1 skip != clean %d", len(out.Catalogs), len(full.Catalogs))
	}
	for _, mc := range out.Catalogs {
		if mc.Name == out.Skipped[0].Name {
			t.Fatalf("catalog %s both completed and skipped", mc.Name)
		}
		if wireResultJSON(t, mc.Result) != fullByName[mc.Name] {
			t.Errorf("catalog %s: degraded result diverged from the clean response", mc.Name)
		}
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 1 {
		t.Errorf("degraded_total = %v, want 1", got)
	}
}

// TestBreakerOverHTTP: repeated per-catalog failures open the circuit
// breaker; further requests skip the catalog without attempting the
// match, the skip reason says so, and the ctxmatchd_breaker_open gauge
// reports it.
func TestBreakerOverHTTP(t *testing.T) {
	reg := fault.NewRegistry()
	ts, _ := newTestServer(t, func(c *Config) {
		c.Faults = reg
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Hour
	})
	src := putFleet(t, ts, 1)
	reg.Set("fleet.match", fault.Plan{FailNth: 1, Every: true})

	for i := 0; i < 2; i++ {
		status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 1})
		if status != http.StatusOK {
			t.Fatalf("failing round %d = %d: %s", i, status, body)
		}
		if len(out.Skipped) != 1 || out.Skipped[0].Reason != "error" {
			t.Fatalf("failing round %d skipped = %+v", i, out.Skipped)
		}
	}
	hits := reg.Hits("fleet.match")
	status, out, body := postMatchAny(t, ts, MatchAnyRequest{Source: src, K: 1})
	if status != http.StatusOK {
		t.Fatalf("breaker round = %d: %s", status, body)
	}
	if len(out.Skipped) != 1 || out.Skipped[0].Reason != "breaker_open" {
		t.Fatalf("breaker round skipped = %+v, want breaker_open", out.Skipped)
	}
	if got := reg.Hits("fleet.match"); got != hits {
		t.Fatalf("open breaker still attempted the match: hits %d -> %d", hits, got)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_breaker_open"); got != 1 {
		t.Errorf("breaker_open gauge = %v, want 1", got)
	}
	if got := scrapeMetric(t, ts, "ctxmatchd_degraded_total"); got != 3 {
		t.Errorf("degraded_total = %v, want 3", got)
	}
}

// TestNoGoroutineLeakAfterDrain: a served-and-drained daemon must
// return to its goroutine baseline — handlers, timeouts and the
// in-flight semaphore own no goroutines once the listener closes.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	runtime.GC()
	base := runtime.NumGoroutine()

	catDoc, srcDoc := fixtureDocs(t, 1)
	ts, svc := newTestServer(t, nil)
	if status, _ := putCatalog(t, ts, "inv", catDoc); status != http.StatusCreated {
		t.Fatal("PUT failed")
	}
	for i := 0; i < 3; i++ {
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/catalogs/inv/match",
			map[string]any{"source": srcDoc})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("match %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if status, _, body := postMatchAny(t, ts, MatchAnyRequest{Source: srcDoc}); status != http.StatusOK {
		t.Fatalf("match-any = %d: %s", status, body)
	}
	if err := svc.FlushSnapshots(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		// +2 tolerates runtime-internal goroutines (GC workers, netpoll)
		// that come and go; a real handler leak holds well above that.
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d above baseline %d after drain:\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
