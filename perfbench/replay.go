package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ctxmatch"
	"ctxmatch/internal/core"
	"ctxmatch/internal/match"
	"ctxmatch/internal/repository"
	"ctxmatch/internal/service"
)

// Replay sample sizes per operation kind.
const (
	replayReads   = 24
	replayPatches = 24
)

// runTraced is the traced run. It repeats the untraced run's phases
// with the handler wrapped in a timer, which the closed-loop phase
// switches off in every other span of time so that the tracing
// overhead is the traced spans' read throughput against the untraced
// spans'. It then replays a seeded sample of the workload's requests
// in process: for each one the layers' public functions are called in
// handler order with a span around each call.
func runTraced(w workload, seed int64, seconds, nproc int, work string) (result, details, error) {
	timer := newHandlerTimer()
	r, err := newRun(w, seed, seconds, nproc, work, timer.wrap, nil)
	if err != nil {
		return result{}, details{}, err
	}
	defer r.close()
	r.timer = timer
	r.measure()
	if err := r.finish(); err != nil {
		return result{}, details{}, err
	}
	m := r.layerMetrics(timer)

	rp := &replayer{in: r.in, ref: r.checker.ref, rec: newRecorder()}
	if err := rp.prepareAll(); err != nil {
		return result{}, details{}, err
	}
	sample := r.replaySample(seed)
	for k, q := range sample {
		if err := rp.replay(q, k); err != nil {
			return result{}, details{}, err
		}
		if err := rp.countStages(); err != nil {
			return result{}, details{}, err
		}
	}
	computeSelf(rp.rec.spans)
	for k, v := range rp.metrics() {
		m[k] = v
	}
	if err := rp.writeSpans(w.name, seed); err != nil {
		return result{}, details{}, err
	}
	r.samples["replayed"] = len(sample)
	return r.result(m), r.details(), nil
}

// layerMetrics derives the per-layer figures of the HTTP phases: the
// handler timer's server time and the client's wait beyond it per
// operation, PATCH latency, restore time, generator lateness, fleet
// bypasses and the collector's share.
func (r *run) layerMetrics(timer *handlerTimer) map[string]metric {
	m := map[string]metric{}
	handler := map[string][]float64{}
	wait := map[string][]float64{}
	var patches []float64
	reads := 0
	for _, o := range r.outs {
		if o.phase == phaseProbe {
			continue
		}
		if o.req.Op == opMatchAny {
			reads++
		}
		if o.req.Op == opPatch {
			patches = append(patches, latencyMS(o))
		}
		if d, ok := timer.get(o.id); ok && o.ok {
			handler[o.req.Op] = append(handler[o.req.Op], ms(d))
			wait[o.req.Op] = append(wait[o.req.Op], ms(o.lat-d))
		}
	}
	for _, op := range []string{opMatchAny, opMatch, opPatch} {
		m["service.handler_ms."+op] = metric{mean(handler[op]), "ms"}
		m["service.wait_ms."+op] = metric{mean(wait[op]), "ms"}
	}
	p50, _ := percentile(patches, 0.5)
	p90, _ := percentile(patches, 0.9)
	m["service.read_p50_ms"] = metric{finite(r.readP50), "ms"}
	m["service.read_p95_ms"] = metric{finite(r.readP95), "ms"}
	m["service.patch_p50_ms"] = metric{finite(p50), "ms"}
	m["service.patch_p90_ms"] = metric{finite(p90), "ms"}
	m["snapshot.restore_s"] = metric{median(r.restoreS), "s"}
	lags := make([]float64, len(r.lags))
	for i, d := range r.lags {
		lags[i] = ms(d)
	}
	lag, beyond := percentile(lags, 0.95)
	r.samples["gen_lag_p95_beyond"] = beyond
	m["gen.lag_p95_ms"] = metric{lag, "ms"}
	frac := 0.0
	if reads > 0 {
		frac = float64(r.bypass) / float64(reads)
	}
	m["repository.bypass_frac"] = metric{frac, "ratio"}
	gcFrac := 0.0
	if cpu := r.rt1.totalCPU - r.rt0.totalCPU; cpu > 0 {
		gcFrac = (r.rt1.gcCPU - r.rt0.gcCPU) / cpu
	}
	m["gc.cpu_frac"] = metric{gcFrac, "ratio"}
	m["gc.cycles"] = metric{float64(r.rt1.gcCycles - r.rt0.gcCycles), "count"}
	on, off := r.tracedRPS()
	overhead := 0.0
	if on > 0 {
		overhead = off/on - 1
	}
	m["trace.read_rps"] = metric{on, "1/s"}
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	return m
}

// tracedRPS is the closed-loop phase's correct reads per second in the
// spans of time with the handler timer on and in those with it off,
// each the median over its spans. A span's rate is its clients divided
// by the mean latency of the reads it completed: the closed loop's
// throughput by Little's law, which unlike a count per span is not
// rounded to whole requests.
func (r *run) tracedRPS() (on, off float64) {
	counts := make([]float64, timerSpans)
	busy := make([]float64, timerSpans)
	for _, o := range r.outs {
		if o.phase == phaseClosed && o.ok && o.doneAt <= r.p.ClosedDur {
			k := min(int(int64(o.doneAt)*timerSpans/int64(r.p.ClosedDur)), timerSpans-1)
			counts[k]++
			busy[k] += o.lat.Seconds()
		}
	}
	var ons, offs []float64
	for k, n := range counts {
		rps := 0.0
		if busy[k] > 0 {
			rps = float64(r.nproc) * n / busy[k]
		}
		if timerOn(k) {
			ons = append(ons, rps)
		} else {
			offs = append(offs, rps)
		}
	}
	r.samples["trace_spans_on"], r.samples["trace_spans_off"] = len(ons), len(offs)
	return median(ons), median(offs)
}

// replaySample draws the replayed requests from the open-loop schedule:
// up to replayReads reads and, for catalog-churn, replayPatches PATCHes.
func (r *run) replaySample(seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var reads, patches []request
	for _, i := range rng.Perm(len(r.p.Open)) {
		q := r.p.Open[i]
		switch {
		case q.Op == opPatch && len(patches) < replayPatches:
			patches = append(patches, q)
		case q.Op != opPatch && len(reads) < replayReads:
			reads = append(reads, q)
		}
	}
	return append(reads, patches...)
}

// replayer calls the layers' public functions the way the handlers do,
// on the reference server's catalogs.
type replayer struct {
	in  *inputs
	ref *service.Server
	rec *recorder
	// figures, one entry per replayed call
	prepare                                     time.Duration
	matchAny, retrieveSelf                      []float64
	pruned, matched, probes, skips              []float64
	matchMS, allocs, allocMB, bindMS, stdMS     []float64
	candidates, families, standard, selected    []float64
	decode, encode, respBytes                   []float64
	update, install, snapWrite, snapBytes, load []float64
	counts                                      []countJob
}

// prepareAll times Matcher.Prepare of every roster catalog on a fresh
// matcher: the preparation share of setup_s.
func (rp *replayer) prepareAll() error {
	m, err := ctxmatch.New()
	if err != nil {
		return err
	}
	root := rp.rec.begin("setup", -1, -1)
	for i := range rp.in.catalogDocs {
		var doc service.SchemaDoc
		if err := json.Unmarshal(rp.in.catalogDocs[i], &doc); err != nil {
			return err
		}
		schema, err := doc.Build(rp.in.plan.Roster[i].Name)
		if err != nil {
			return err
		}
		sp := rp.rec.begin("ctxmatch.prepare", -1, root)
		if _, err := m.Prepare(context.Background(), schema); err != nil {
			return err
		}
		rp.prepare += rp.rec.end(sp)
	}
	rp.rec.end(root)
	return nil
}

// span opens a span; the returned func closes it and reports its
// duration.
func (rp *replayer) span(name string, id, parent int) (int, func() time.Duration) {
	i := rp.rec.begin(name, id, parent)
	return i, func() time.Duration { return rp.rec.end(i) }
}

// replay runs request q as replayed request id.
func (rp *replayer) replay(q request, id int) error {
	root, endRoot := rp.span("request."+q.Op, id, -1)
	defer endRoot()
	switch q.Op {
	case opMatchAny:
		return rp.replayMatchAny(q, id, root)
	case opMatch:
		return rp.replayMatch(q, id, root)
	case opPatch:
		return rp.replayPatch(q, id, root)
	}
	return nil
}

func (rp *replayer) replayMatchAny(q request, id, root int) error {
	_, endDecode := rp.span("service.decode", id, root)
	var req service.MatchAnyRequest
	if err := json.Unmarshal(rp.in.matchAnyBodies[q.Source], &req); err != nil {
		return err
	}
	src, err := req.Source.Build("source")
	if err != nil {
		return err
	}
	dDecode := endDecode()

	fleet := rp.ref.Fleet()
	before := fleet.FusedStats()
	_, endAny := rp.span("repository.match_any", id, root)
	rep, err := fleet.MatchAny(context.Background(), src, repository.Query{})
	if err != nil {
		return err
	}
	dAny := endAny()
	after := fleet.FusedStats()

	var survivors time.Duration
	for _, cm := range rep.Ranked {
		t, ok := rp.ref.Registry().Get(cm.Name)
		if !ok {
			return fmt.Errorf("replay: no catalog %s", cm.Name)
		}
		_, d, err := rp.replayCatalog(t, src, id, root)
		if err != nil {
			return err
		}
		survivors += d
	}

	_, endEncode := rp.span("service.encode", id, root)
	body, err := json.Marshal(responseOf(rep))
	if err != nil {
		return err
	}
	dEncode := endEncode()
	rp.decode = append(rp.decode, ms(dDecode))
	rp.encode = append(rp.encode, ms(dEncode))
	rp.respBytes = append(rp.respBytes, float64(len(body)))
	rp.matchAny = append(rp.matchAny, ms(dAny))
	rp.retrieveSelf = append(rp.retrieveSelf, ms(dAny-survivors))
	if rep.Considered > 0 {
		rp.pruned = append(rp.pruned, float64(rep.Pruned)/float64(rep.Considered))
	}
	rp.matched = append(rp.matched, float64(rep.Matched))
	rp.probes = append(rp.probes, float64(after.Probes-before.Probes))
	rp.skips = append(rp.skips, float64(after.BoundSkips-before.BoundSkips))
	return nil
}

func (rp *replayer) replayMatch(q request, id, root int) error {
	_, endDecode := rp.span("service.decode", id, root)
	var req struct {
		Source service.SchemaDoc `json:"source"`
	}
	if err := json.Unmarshal(rp.in.matchBodies[q.Source], &req); err != nil {
		return err
	}
	src, err := req.Source.Build("source")
	if err != nil {
		return err
	}
	dDecode := endDecode()
	t, ok := rp.ref.Registry().Get(rp.in.plan.Roster[q.Catalog].Name)
	if !ok {
		return fmt.Errorf("replay: no catalog %d", q.Catalog)
	}
	res, _, err := rp.replayCatalog(t, src, id, root)
	if err != nil {
		return err
	}
	_, endEncode := rp.span("service.encode", id, root)
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	dEncode := endEncode()
	rp.decode = append(rp.decode, ms(dDecode))
	rp.encode = append(rp.encode, ms(dEncode))
	rp.respBytes = append(rp.respBytes, float64(len(body)))
	return nil
}

// replayCatalog times Target.Match of src on t (with its allocations),
// then the standard-match stages the match starts with: Engine.BindParallel
// on the prepared feature layer and Bound.StandardMatches(τ), per
// source table. It returns the result and the Target.Match duration.
func (rp *replayer) replayCatalog(t *ctxmatch.Target, src *ctxmatch.Schema, id, parent int) (*ctxmatch.Result, time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, endMatch := rp.span("ctxmatch.match", id, parent)
	res, err := t.Match(context.Background(), src)
	if err != nil {
		return nil, 0, err
	}
	dMatch := endMatch()
	runtime.ReadMemStats(&m1)

	pt := t.Prepared()
	opt := pt.Options()
	eng := opt.Engine
	if eng == nil {
		eng = match.NewEngine()
	}
	budget := max(opt.Parallelism, 1)
	cols := max(budget/min(budget, len(src.Tables)), 1)
	var dBind, dStd time.Duration
	for _, tbl := range src.Tables {
		_, endBind := rp.span("match.bind", id, parent)
		b := eng.BindParallel(tbl, pt.Target(), pt.Features(), cols)
		dBind += endBind()
		_, endStd := rp.span("match.standard", id, parent)
		b.StandardMatches(opt.Tau)
		dStd += endStd()
		b.Release()
	}
	rp.matchMS = append(rp.matchMS, ms(dMatch))
	rp.allocs = append(rp.allocs, float64(m1.Mallocs-m0.Mallocs))
	rp.allocMB = append(rp.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	rp.bindMS = append(rp.bindMS, ms(dBind))
	rp.stdMS = append(rp.stdMS, ms(dStd))

	rp.counts = append(rp.counts, countJob{pt, src})
	return res, dMatch, nil
}

// countJob is a replayed catalog match whose stage counts are taken
// after its request's root span has closed.
type countJob struct {
	pt  *core.PreparedTarget
	src *ctxmatch.Schema
}

// countStages reruns the pending matches through core.ContextMatchPrepared
// for the counts the public Result does not carry: candidates scored,
// view families, standard matches and the selected share.
func (rp *replayer) countStages() error {
	for _, j := range rp.counts {
		cr, err := core.ContextMatchPrepared(context.Background(), j.src, j.pt)
		if err != nil {
			return err
		}
		rp.candidates = append(rp.candidates, float64(len(cr.Candidates)))
		rp.families = append(rp.families, float64(len(cr.Families)))
		rp.standard = append(rp.standard, float64(len(cr.Standard)))
		if len(cr.Candidates) > 0 {
			rp.selected = append(rp.selected, float64(len(cr.ContextualMatches()))/float64(len(cr.Candidates)))
		}
	}
	rp.counts = rp.counts[:0]
	return nil
}

// replayPatch runs a PATCH the way handlePatch does — decode,
// Target.Update, Registry.Install (which runs the fleet observer) —
// then the snapshot codec the eager persist and a warm restart use.
func (rp *replayer) replayPatch(q request, id, root int) error {
	name := rp.in.plan.Roster[q.Catalog].Name
	_, endDecode := rp.span("service.decode", id, root)
	_, _, body := rp.in.body(q)
	var doc service.CatalogDeltaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return err
	}
	delta, err := doc.Build()
	if err != nil {
		return err
	}
	dDecode := endDecode()
	t, ok := rp.ref.Registry().Get(name)
	if !ok {
		return fmt.Errorf("replay: no catalog %s", name)
	}
	_, endUpdate := rp.span("ctxmatch.update", id, root)
	nt, err := t.Update(context.Background(), delta)
	if err != nil {
		return err
	}
	dUpdate := endUpdate()
	_, endInstall := rp.span("service.install", id, root)
	info, _, _ := rp.ref.Registry().Install(name, nt)
	dInstall := endInstall()
	_, endWrite := rp.span("snapshot.write", id, root)
	var snap bytes.Buffer
	if _, err := nt.WriteSnapshot(&snap); err != nil {
		return err
	}
	dWrite := endWrite()
	_, endLoad := rp.span("snapshot.load", id, root)
	if _, err := ctxmatch.LoadTarget(bytes.NewReader(snap.Bytes())); err != nil {
		return err
	}
	dLoad := endLoad()
	_, endEncode := rp.span("service.encode", id, root)
	out, err := json.Marshal(info)
	if err != nil {
		return err
	}
	dEncode := endEncode()
	rp.decode = append(rp.decode, ms(dDecode))
	rp.encode = append(rp.encode, ms(dEncode))
	rp.respBytes = append(rp.respBytes, float64(len(out)))
	rp.update = append(rp.update, ms(dUpdate))
	rp.install = append(rp.install, ms(dInstall))
	rp.snapWrite = append(rp.snapWrite, ms(dWrite))
	rp.snapBytes = append(rp.snapBytes, float64(snap.Len()))
	rp.load = append(rp.load, ms(dLoad))
	return nil
}

// metrics reduces the replay to per-layer means. Figures of layers a
// workload does not reach are 0.
func (rp *replayer) metrics() map[string]metric {
	matchMS, bindMS, stdMS := mean(rp.matchMS), mean(rp.bindMS), mean(rp.stdMS)
	return map[string]metric{
		"service.decode_ms":           {mean(rp.decode), "ms"},
		"service.encode_ms":           {mean(rp.encode), "ms"},
		"service.response_bytes":      {mean(rp.respBytes), "bytes"},
		"service.install_ms":          {mean(rp.install), "ms"},
		"repository.match_any_ms":     {mean(rp.matchAny), "ms"},
		"repository.retrieve_self_ms": {mean(rp.retrieveSelf), "ms"},
		"repository.pruned_frac":      {mean(rp.pruned), "ratio"},
		"repository.matched":          {mean(rp.matched), "count"},
		"repository.probes":           {mean(rp.probes), "count"},
		"repository.bound_skips":      {mean(rp.skips), "count"},
		"ctxmatch.match_ms":           {matchMS, "ms"},
		"ctxmatch.match_allocs":       {mean(rp.allocs), "count"},
		"ctxmatch.match_mb":           {mean(rp.allocMB), "MB"},
		"match.bind_ms":               {bindMS, "ms"},
		"match.standard_ms":           {stdMS, "ms"},
		"core.rest_self_ms":           {matchMS - bindMS - stdMS, "ms"},
		"core.candidates":             {mean(rp.candidates), "count"},
		"core.families":               {mean(rp.families), "count"},
		"core.standard":               {mean(rp.standard), "count"},
		"core.selected_frac":          {mean(rp.selected), "ratio"},
		"ctxmatch.prepare_ms":         {ms(rp.prepare), "ms"},
		"ctxmatch.update_ms":          {mean(rp.update), "ms"},
		"snapshot.write_ms":           {mean(rp.snapWrite), "ms"},
		"snapshot.bytes":              {mean(rp.snapBytes), "bytes"},
		"snapshot.load_ms":            {mean(rp.load), "ms"},
	}
}

// writeSpans writes the recorded spans, self times included, as JSON
// lines under .bench_build/.
func (rp *replayer) writeSpans(workload string, seed int64) error {
	f, err := os.Create(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	if err := rp.rec.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
