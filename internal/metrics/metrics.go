// Package metrics is a dependency-free instrumentation core rendering
// the Prometheus text exposition format (version 0.0.4): counters,
// gauges and cumulative histograms, with optional label dimensions.
//
// It deliberately implements only what the serving layer scrapes —
// monotonic counters, gauges, histograms with fixed buckets — with the
// standard exposition conventions (HELP/TYPE comment lines, `_total`
// counter suffix left to the caller, `+Inf` bucket, `_sum`/`_count`
// series) so any Prometheus-compatible scraper ingests the output
// unchanged. All types are safe for concurrent use; Collect snapshots
// under the registry lock, so a scrape observes each series atomically.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns a set of named metric families and renders them in
// name order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]family
}

// family is one named metric with its metadata and series.
type family interface {
	meta() (name, help, typ string)
	series() []sample
}

// sample is one rendered line body: the label suffix (possibly empty,
// including the braces when present) and the value text.
type sample struct {
	suffix string // e.g. `{route="/v1/match"}` or `_sum`
	value  string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]family{}}
}

func (r *Registry) register(name string, f family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate family %q", name))
	}
	r.fams[name] = f
}

// Collect renders every registered family to w in the Prometheus text
// exposition format, families in name order, series in creation order.
func (r *Registry) Collect(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		name, help, typ := f.meta()
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, s := range f.series() {
			b.WriteString(name)
			b.WriteString(s.suffix)
			b.WriteByte(' ')
			b.WriteString(s.value)
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders v the way Prometheus expects: shortest exact
// decimal, `+Inf`/`-Inf` for infinities.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition
// format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value (backslash, quote, newline).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelSuffix renders `{k1="v1",k2="v2"}` for the given keys/values.
func labelSuffix(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// NewCounter registers an unlabelled counter. By convention name ends
// in `_total`.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, &counterFam{name: name, help: help, c: c})
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

type counterFam struct {
	name, help string
	c          *Counter
}

func (f *counterFam) meta() (string, string, string) { return f.name, f.help, "counter" }
func (f *counterFam) series() []sample {
	return []sample{{value: strconv.FormatInt(f.c.Value(), 10)}}
}

// CounterVec is a counter family keyed by one or more label values.
// Children are created on first use and live for the registry's
// lifetime, so label values must be low-cardinality (routes, catalog
// names, status classes — not user input).
type CounterVec struct {
	keys []string
	mu   sync.Mutex
	kids map[string]*Counter
	ord  []string // creation order of child label-suffix keys
	sufs map[string]string
}

// NewCounterVec registers a labelled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{keys: labels, kids: map[string]*Counter{}, sufs: map[string]string{}}
	r.register(name, &counterVecFam{name: name, help: help, v: v})
	return v
}

// With returns (creating if needed) the child counter for the given
// label values, which must match the family's label count.
func (v *CounterVec) With(vals ...string) *Counter {
	if len(vals) != len(v.keys) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(vals), len(v.keys)))
	}
	suf := labelSuffix(v.keys, vals)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[suf]
	if !ok {
		c = &Counter{}
		v.kids[suf] = c
		v.sufs[suf] = suf
		v.ord = append(v.ord, suf)
	}
	return c
}

type counterVecFam struct {
	name, help string
	v          *CounterVec
}

func (f *counterVecFam) meta() (string, string, string) { return f.name, f.help, "counter" }
func (f *counterVecFam) series() []sample {
	f.v.mu.Lock()
	defer f.v.mu.Unlock()
	out := make([]sample, 0, len(f.v.ord))
	for _, suf := range f.v.ord {
		out = append(out, sample{suffix: suf, value: strconv.FormatInt(f.v.kids[suf].Value(), 10)})
	}
	return out
}

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge registers an unlabelled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, &gaugeFam{name: name, help: help, typ: "gauge", read: g.Value})
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at scrape
// time — for values another subsystem already tracks (registry size,
// index hit rate).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFam{name: name, help: help, typ: "gauge", read: fn})
}

// NewCounterFunc registers a counter whose value is read from fn at
// scrape time — for monotonic totals another subsystem already tracks.
// fn must never decrease. By convention name ends in `_total`.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name, &gaugeFam{name: name, help: help, typ: "counter", read: fn})
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFam is a single-series family read through a function: a gauge,
// or a counter whose total another subsystem keeps (typ says which).
type gaugeFam struct {
	name, help, typ string
	read            func() float64
}

func (f *gaugeFam) meta() (string, string, string) { return f.name, f.help, f.typ }
func (f *gaugeFam) series() []sample {
	return []sample{{value: formatFloat(f.read())}}
}

// Histogram is a cumulative, fixed-bucket histogram. Observations and
// scrapes may race; each bucket counter is atomic, and the rendered
// `+Inf` bucket always equals `_count` because both read the same
// counter.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	count  atomic.Int64
	sumMu  sync.Mutex
	sum    float64
}

// DefBuckets is a latency spread (seconds) fitting sub-millisecond
// index probes through multi-second cold matches.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// NewHistogram registers an unlabelled histogram with the given
// ascending bucket upper bounds (nil = DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{bounds: buckets, counts: make([]atomic.Int64, len(buckets))}
	r.register(name, &histogramFam{name: name, help: help, h: h})
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

type histogramFam struct {
	name, help string
	h          *Histogram
}

func (f *histogramFam) meta() (string, string, string) { return f.name, f.help, "histogram" }
func (f *histogramFam) series() []sample {
	h := f.h
	out := make([]sample, 0, len(h.bounds)+3)
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, sample{
			suffix: fmt.Sprintf(`_bucket{le="%s"}`, formatFloat(ub)),
			value:  strconv.FormatInt(cum, 10),
		})
	}
	total := h.count.Load()
	h.sumMu.Lock()
	sum := h.sum
	h.sumMu.Unlock()
	out = append(out,
		sample{suffix: `_bucket{le="+Inf"}`, value: strconv.FormatInt(total, 10)},
		sample{suffix: "_sum", value: formatFloat(sum)},
		sample{suffix: "_count", value: strconv.FormatInt(total, 10)},
	)
	return out
}

// HistogramVec is a histogram family keyed by label values, sharing one
// bucket layout.
type HistogramVec struct {
	keys    []string
	buckets []float64
	mu      sync.Mutex
	kids    map[string]*Histogram
	ord     []string
}

// NewHistogramVec registers a labelled histogram family (nil buckets =
// DefBuckets).
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	v := &HistogramVec{keys: labels, buckets: buckets, kids: map[string]*Histogram{}}
	r.register(name, &histogramVecFam{name: name, help: help, v: v})
	return v
}

// With returns (creating if needed) the child histogram for the given
// label values.
func (v *HistogramVec) With(vals ...string) *Histogram {
	if len(vals) != len(v.keys) {
		panic(fmt.Sprintf("metrics: %d label values for %d labels", len(vals), len(v.keys)))
	}
	suf := labelSuffix(v.keys, vals)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[suf]
	if !ok {
		h = &Histogram{bounds: v.buckets, counts: make([]atomic.Int64, len(v.buckets))}
		v.kids[suf] = h
		v.ord = append(v.ord, suf)
	}
	return h
}

type histogramVecFam struct {
	name, help string
	v          *HistogramVec
}

func (f *histogramVecFam) meta() (string, string, string) { return f.name, f.help, "histogram" }
func (f *histogramVecFam) series() []sample {
	f.v.mu.Lock()
	ord := append([]string(nil), f.v.ord...)
	kids := make([]*Histogram, len(ord))
	for i, suf := range ord {
		kids[i] = f.v.kids[suf]
	}
	f.v.mu.Unlock()
	var out []sample
	for i, suf := range ord {
		// Splice the child's labels into each series suffix: the child
		// renders `_bucket{le="x"}`; labelled children need
		// `_bucket{route="r",le="x"}`.
		inner := strings.TrimSuffix(strings.TrimPrefix(suf, "{"), "}")
		for _, s := range (&histogramFam{h: kids[i]}).series() {
			out = append(out, sample{suffix: spliceLabels(s.suffix, inner), value: s.value})
		}
	}
	return out
}

// spliceLabels inserts the label pair list `inner` into a series suffix
// that may already carry labels (`_bucket{le="1"}`) or none (`_sum`).
func spliceLabels(suffix, inner string) string {
	if inner == "" {
		return suffix
	}
	if i := strings.IndexByte(suffix, '{'); i >= 0 {
		return suffix[:i+1] + inner + "," + suffix[i+1:]
	}
	return suffix + "{" + inner + "}"
}
