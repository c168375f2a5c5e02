package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"ctxmatch"
	"ctxmatch/internal/service"
)

// run holds one benchmark run's state.
type run struct {
	w      workload
	p      *plan
	in     *inputs
	nproc  int
	work   string
	client *http.Client
	store  *bodyStore
	live   *served
	// timer is the traced run's handler timer, nil in untraced runs.
	timer *handlerTimer
	// cal measures the host's speed in the untraced run; nil in the
	// traced run, whose figures stay at the host's speed.
	cal *calibrator
	// setupS holds each set-up's time at the reference host speed,
	// setupRaw as measured.
	setupS, setupRaw []float64
	// closedCal holds the calibration bursts around the closed-loop
	// slices: slice k ran between bursts k and k+1.
	closedCal []float64
	// sliceRPS holds the closed-loop slices' read rates as measured.
	sliceRPS []float64
	// heapBaseMB is the live heap before the first set-up: the
	// generator's inputs, which heap_mb leaves out.
	heapBaseMB float64

	outs     []outcome // every checked request
	lags     []time.Duration
	rt0, rt1 runtimeSample // around the measured phases
	bypass   int64         // fleet bypasses during the measured phases
	restoreS []float64
	final    []bool // catalog-churn: whether each catalog ends with replacement rows
	sizes    []catalogSize

	checker *checker

	// Results.
	readP50, readP95, readRPS, readRawRPS, fMeasure float64
	samples                                         map[string]int
	// phaseS records how long each stage of the run took, for sizing
	// the run against the benchmark's time budget.
	phaseS map[string]float64
}

// newRun generates the inputs and sets up the serving server (the
// first of the set-ups whose median is setup_s). wrap, when non-nil,
// wraps its handler; cal, when non-nil, calibrates the set-ups and the
// closed loop.
func newRun(w workload, seed int64, seconds, nproc int, work string, wrap func(http.Handler) http.Handler, cal *calibrator) (*run, error) {
	p := newPlan(w, seed, seconds)
	in, err := newInputs(p, w.patchRate > 0)
	if err != nil {
		return nil, err
	}
	r := &run{w: w, p: p, in: in, nproc: nproc, work: work, client: newClient(nproc), cal: cal,
		store: newBodyStore(), samples: map[string]int{}, phaseS: map[string]float64{}}
	r.heapBaseMB = liveHeapMB()
	s, _, err := r.setup(0, wrap, r.cal.rate())
	if err != nil {
		return nil, err
	}
	r.live = s
	return r, nil
}

// setup runs set-up k after a calibration burst that measured before
// and ahead of another, and records its time as measured and at the
// reference host speed. It returns the second burst's rate, which can
// serve as the next set-up's before.
func (r *run) setup(k int, wrap func(http.Handler) http.Handler, before float64) (*served, float64, error) {
	s, d, err := setup(r.in, r.client, r.storeDir(k), wrap)
	if err != nil {
		return nil, 0, err
	}
	after := r.cal.rate()
	r.setupRaw = append(r.setupRaw, d.Seconds())
	r.setupS = append(r.setupS, d.Seconds()*speed(before, after))
	return s, after, nil
}

func (r *run) storeDir(k int) string {
	if !r.w.persist {
		return ""
	}
	return filepath.Join(r.work, fmt.Sprintf("store-%d", k))
}

func (r *run) close() {
	if r.live != nil {
		r.live.close()
		r.live = nil
	}
	r.client.CloseIdleConnections()
}

// measure runs the measured phases against the live server.
func (r *run) measure() {
	g := &generator{client: r.client, base: r.live.url, in: r.in, conns: r.nproc, store: r.store}
	b0 := r.live.srv.Fleet().Bypasses()
	r.rt0 = readRuntime()
	open, lags := g.runOpen(r.p.Open)
	r.outs = append(r.outs, open...)
	r.lags = lags
	wait := func() {}
	slices, between := 1, func() {}
	if r.timer != nil {
		wait = r.timer.alternate(r.p.ClosedDur)
	}
	if r.cal != nil {
		slices, between = closedSlices, func() { r.closedCal = append(r.closedCal, r.cal.rate()) }
	}
	r.outs = append(r.outs, g.runClosed(r.p.Closed, r.p.ClosedDur, slices, between)...)
	wait()
	r.rt1 = readRuntime()
	r.bypass = r.live.srv.Fleet().Bypasses() - b0
}

// finish completes the run after the measured phases: for
// catalog-churn the flush, the warm restarts and the probe of the
// restored server; then the reference set-ups and the output checks.
func (r *run) finish() error {
	if err := r.checkRoster(r.live.srv); err != nil {
		return err
	}
	for _, ci := range r.live.srv.Registry().List() {
		r.sizes = append(r.sizes, catalogSize{Name: ci.Name, Tables: ci.Tables, Rows: ci.Rows,
			FeatureColumns: ci.FeatureColumns, DictBytes: ci.DictBytes, IndexBytes: ci.IndexBytes})
	}
	if r.w.persist {
		if err := r.live.srv.FlushSnapshots(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
	}
	r.live.close()
	r.live = nil
	t0 := time.Now()
	if r.w.persist {
		if err := r.restart(); err != nil {
			return err
		}
	}
	t1 := time.Now()

	// The remaining set-ups: the second becomes the reference.
	var ref *service.Server
	cal := r.cal.rate()
	for k := 1; k < setupRepeats; k++ {
		s, after, err := r.setup(k, nil, cal)
		if err != nil {
			return err
		}
		s.close()
		cal = after
		if k == 1 {
			ref = s.srv
		}
	}
	t2 := time.Now()
	c, err := newChecker(r.in, r.store, ref, r.final)
	if err != nil {
		return err
	}
	r.checker = c
	if err := c.checkAll(r.outs, r.nproc); err != nil {
		return err
	}
	r.phaseS["restart"], r.phaseS["ref_setup"], r.phaseS["check"] = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()
	r.samples["retrieval_path_diffs"] = c.retrievalDiffs
	r.summarize()
	return nil
}

// checkRoster asserts that srv still holds every roster catalog: no
// eviction happened.
func (r *run) checkRoster(srv *service.Server) error {
	if n := srv.Registry().Len(); n != len(r.p.Roster) {
		return fmt.Errorf("registry holds %d catalogs, want the full roster of %d", n, len(r.p.Roster))
	}
	for _, c := range r.p.Roster {
		if _, ok := srv.Registry().Get(c.Name); !ok {
			return fmt.Errorf("catalog %s was evicted", c.Name)
		}
	}
	return nil
}

// restart warm-restarts fresh Servers from the flushed store: restore_s
// runs from the new Server to the point where /healthz reports every
// catalog. The first restored server then answers one match-any per
// pool source — the probe that checks the restored state and feeds
// f_measure.
func (r *run) restart() error {
	r.final = make([]bool, len(r.p.Roster))
	for _, q := range r.p.Open {
		if q.Op == opPatch {
			r.final[q.Catalog] = q.Alt
		}
	}
	var first *service.Server
	for k := 0; k < restoreRepeats; k++ {
		start := time.Now()
		srv, err := newServer(len(r.p.Roster), r.storeDir(0))
		if err != nil {
			return err
		}
		n, err := srv.RestoreSnapshots()
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		d := time.Since(start)
		if n != len(r.p.Roster) || rec.Code != http.StatusOK {
			return fmt.Errorf("restore brought back %d of %d catalogs (healthz %d)", n, len(r.p.Roster), rec.Code)
		}
		if err := r.checkRoster(srv); err != nil {
			return err
		}
		r.restoreS = append(r.restoreS, d.Seconds())
		if first == nil {
			first = srv
		}
	}
	s, err := listen(first, first.Handler())
	if err != nil {
		return err
	}
	defer s.close()
	g := &generator{client: r.client, base: s.url, in: r.in, conns: r.nproc, store: r.store}
	probe := make([]request, len(r.p.Pool))
	for i := range probe {
		probe[i] = request{Op: opMatchAny, Source: i, Catalog: -1}
	}
	outs, _ := g.runOpen(probe)
	for i := range outs {
		outs[i].phase = phaseProbe
	}
	r.outs = append(r.outs, outs...)
	return nil
}

// summarize computes the end-to-end figures from the checked outcomes.
//
// The host's speed swings by tens of percent from second to second, so
// read_p50_ms is a median over segments: the open-loop phase is cut
// into equal spans of time, the figure is taken per span, and the
// median span is reported. A burst of host slowness then moves one
// span, not the result. read_rps pools the closed loop's slices, whose
// requests differ in cost, with each slice's time scaled to the
// reference host speed by the calibration bursts on either side of it.
func (r *run) summarize() {
	var open []float64
	openSeg := make([][]float64, segments)
	for _, o := range r.outs {
		if o.phase == phaseOpen && o.req.Op == r.w.read {
			open = append(open, latencyMS(o))
			k := min(int(int64(o.req.Due)*segments/int64(r.p.OpenDur)), segments-1)
			openSeg[k] = append(openSeg[k], latencyMS(o))
		}
	}
	p50s := make([]float64, segments)
	for k, seg := range openSeg {
		p50s[k], _ = percentile(seg, 0.5)
	}
	r.readP50 = median(p50s)
	var beyond int
	r.readP95, beyond = percentile(open, 0.95)
	r.samples["read_open"] = len(open)
	r.samples["read_p95_beyond"] = beyond
	var closedOK int
	r.readRawRPS, r.readRPS, r.sliceRPS, closedOK = closedRate(r.outs, r.nproc, r.closedCal)
	r.samples["read_closed_ok"] = closedOK
	r.fMeasure = r.fmeasure()
}

// closedRate is the closed loop's correct reads per second by Little's
// law, clients over the mean latency, pooled over its slices: raw as
// measured, and ref with each slice's busy time scaled to the
// reference host speed by the calibration bursts cal around it (none in
// the traced run). perSlice holds each slice's raw rate and ok the
// reads counted; reads completed after their slice's end are not.
func closedRate(outs []outcome, nproc int, cal []float64) (raw, ref float64, perSlice []float64, ok int) {
	slices := max(len(cal)-1, 1)
	count, busy := make([]float64, slices), make([]float64, slices)
	for _, o := range outs {
		if o.phase == phaseClosed && o.ok && !o.late {
			ok++
			count[o.slice]++
			busy[o.slice] += o.lat.Seconds()
		}
	}
	var n, busyRaw, busyRef float64
	perSlice = make([]float64, slices)
	for k := range count {
		if busy[k] > 0 {
			perSlice[k] = float64(nproc) * count[k] / busy[k]
		}
		s := 1.0
		if len(cal) > 0 {
			s = speed(cal[k], cal[k+1])
		}
		n, busyRaw, busyRef = n+count[k], busyRaw+busy[k], busyRef+busy[k]*s
	}
	if n == 0 {
		return 0, 0, perSlice, ok
	}
	return float64(nproc) * n / busyRaw, float64(nproc) * n / busyRef, perSlice, ok
}

// segments is how many equal spans of time the open-loop phase is cut
// into for the segment medians; closedSlices how many slices the
// untraced run's closed loop is cut into, with a calibration burst
// between each two.
const (
	segments     = 5
	closedSlices = 10
)

// latencyMS is an outcome's latency, +Inf when it failed.
func latencyMS(o outcome) float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return ms(o.lat)
}

// fmeasure is the mean F-measure against the datagen gold of served
// results whose catalog shares the source's layout, over a fixed set
// of responses: the first response to each distinct request of the
// open-loop schedule, or for catalog-churn the probe of the restored
// server (whose catalog states the PATCH schedule fixes).
func (r *run) fmeasure() float64 {
	var fs []float64
	seen := map[[2]int]bool{}
	for _, o := range r.outs {
		if !o.ok || o.req.Op == opPatch {
			continue
		}
		if (r.w.persist && o.phase != phaseProbe) || (!r.w.persist && o.phase != phaseOpen) {
			continue
		}
		key := [2]int{o.req.Source, o.req.Catalog}
		if seen[key] {
			continue
		}
		seen[key] = true
		ds := r.in.sources[o.req.Source]
		for _, res := range r.checker.results(o) {
			if r.in.sameLayout(o.req.Source, res.catalog) {
				fs = append(fs, ds.FMeasureEdges(res.result.Matches))
			}
		}
	}
	r.samples["f_measure_results"] = len(fs)
	return mean(fs)
}

// catalogResult is one catalog's served result inside a response.
type catalogResult struct {
	catalog int
	result  *ctxmatch.Result
}

func (r *run) result(m map[string]metric) result {
	res := result{Correct: true, Metrics: m}
	for _, o := range r.outs {
		res.Attempted++
		if !o.ok {
			res.Failed++
			res.Correct = false
		}
	}
	return res
}

func (r *run) details() details {
	d := details{PlanDigest: r.p.digest(), HeapBaseMB: r.heapBaseMB, Catalogs: r.sizes, Samples: r.samples, PhaseS: r.phaseS}
	if r.w.persist {
		d.StoreFS = storeFS(r.work)
	}
	if r.checker != nil {
		d.Mismatches = r.checker.mismatches
	}
	return d
}
