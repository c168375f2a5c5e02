package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Collect(&b); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return b.String()
}

func wantLines(t *testing.T, got string, lines ...string) {
	t.Helper()
	for _, ln := range lines {
		if !strings.Contains(got, ln+"\n") {
			t.Errorf("exposition missing line %q in:\n%s", ln, got)
		}
	}
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
	wantLines(t, render(t, r),
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		"requests_total 3",
	)
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("http_requests_total", "Requests by route and code.", "route", "code")
	v.With("/v1/match", "200").Add(5)
	v.With("/v1/match", "429").Inc()
	v.With(`/weird"route`, "200").Inc()
	// Same labels → same child.
	v.With("/v1/match", "200").Inc()
	wantLines(t, render(t, r),
		`http_requests_total{route="/v1/match",code="200"} 6`,
		`http_requests_total{route="/v1/match",code="429"} 1`,
		`http_requests_total{route="/weird\"route",code="200"} 1`,
	)
}

func TestGaugeAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("inflight", "In-flight requests.")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %v, want 2", g.Value())
	}
	g.Set(7.5)
	x := 0.25
	r.NewGaugeFunc("hit_rate", "Index hit rate.", func() float64 { return x })
	got := render(t, r)
	wantLines(t, got,
		"# TYPE inflight gauge",
		"inflight 7.5",
		"# TYPE hit_rate gauge",
		"hit_rate 0.25",
	)
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.NewCounterFunc("probes_total", "Probes served.", func() float64 { return n })
	n++
	got := render(t, r)
	wantLines(t, got,
		"# HELP probes_total Probes served.",
		"# TYPE probes_total counter",
		"probes_total 42",
	)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 20} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	wantLines(t, render(t, r),
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary value 0.1 (le is inclusive)
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 20.65",
		"latency_seconds_count 4",
	)
}

func TestHistogramVecSplicesLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("req_seconds", "Request latency by route.", []float64{1}, "route")
	v.With("/healthz").Observe(0.5)
	v.With("/healthz").Observe(2)
	wantLines(t, render(t, r),
		`req_seconds_bucket{route="/healthz",le="1"} 1`,
		`req_seconds_bucket{route="/healthz",le="+Inf"} 2`,
		`req_seconds_sum{route="/healthz"} 2.5`,
		`req_seconds_count{route="/healthz"} 2`,
	)
}

func TestFamiliesRenderInNameOrder(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zz_total", "Last.")
	r.NewCounter("aa_total", "First.")
	got := render(t, r)
	if strings.Index(got, "aa_total") > strings.Index(got, "zz_total") {
		t.Fatalf("families out of order:\n%s", got)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "One.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("dup_total", "Two.")
}

func TestFormatFloatInf(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Fatalf("formatFloat(-Inf) = %q", got)
	}
}

// TestConcurrentUse hammers every metric type from many goroutines
// while scraping — meaningful under -race.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("ops_total", "Ops.")
	v := r.NewCounterVec("ops_by_kind_total", "Ops by kind.", "kind")
	g := r.NewGauge("inflight", "In-flight.")
	h := r.NewHistogram("lat_seconds", "Latency.", nil)
	hv := r.NewHistogramVec("lat_by_kind_seconds", "Latency by kind.", nil, "kind")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"a", "b"}[w%2]
			for i := 0; i < 200; i++ {
				c.Inc()
				v.With(kind).Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i) / 100)
				hv.With(kind).Observe(float64(i) / 100)
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < 50; i++ {
				b.Reset()
				if err := r.Collect(&b); err != nil {
					t.Errorf("Collect: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Fatalf("counter = %d, want 1600", c.Value())
	}
	if h.Count() != 1600 {
		t.Fatalf("histogram count = %d, want 1600", h.Count())
	}
}
