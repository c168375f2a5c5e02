package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of xs by the
// nearest-rank rule, and how many samples lie strictly beyond that
// rank; 0 for no samples (a layer the workload does not reach). Failed
// operations enter as +Inf, so they exceed every limit.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s) - 1 - rank
}

// finite reports a percentile that failed operations pushed to +Inf
// as 1e9 ms, beyond any latency limit, since JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e9
	}
	return v
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeSample reads the runtime/metrics this benchmark reports.
type runtimeSample struct {
	heapBytes       uint64
	gcCPU, totalCPU float64
	gcCycles        uint64
}

var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	u := func(i int) uint64 {
		if ss[i].Value.Kind() == metrics.KindUint64 {
			return ss[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if ss[i].Value.Kind() == metrics.KindFloat64 {
			return ss[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{heapBytes: u(0), gcCPU: f(1), totalCPU: f(2), gcCycles: u(3)}
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(readRuntime().heapBytes) / (1 << 20)
}
