package main

import (
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is a few vCPUs of a shared machine
// whose speed drifts: for minutes at a time everything runs up to
// twice as slow, with no steal time reported. A wall-clock figure then
// follows the host, not the program. The calibrator measures the
// host's speed with a fixed kernel that calls nothing of the program
// under test, in short bursts interleaved with the measured work, so
// that read_rps and setup_s can be stated at a reference host speed:
// a figure taken while the kernel runs at half its reference rate is
// scaled by two.

// calRef is the kernel's reference rate in units per second: its
// median on the 2-vCPU host the benchmark was tuned on, in a phase in
// which that host served fleet-match-any at about 40 closed-loop reads
// per second. It only fixes the scale of the normalized figures; a
// change to it moves every run alike.
const calRef = 44000.0

// Kernel sizes: each goroutine chases pointers through a 2 MB table,
// beyond the L2 cache, and probes a string-keyed map, so the kernel
// meets the cache, memory and hashing costs the matcher meets, without
// allocating (its rate is independent of the program's heap and GC).
const (
	calTable   = 1 << 19 // uint32 entries per goroutine: 2 MB
	calKeys    = 1 << 12
	calSteps   = 1024 // pointer-chase steps per unit
	calUnits   = 6600 // units per goroutine per burst: about 0.3 s
	calWarmups = 2    // discarded bursts when the calibrator is built
)

// calibrator runs the kernel on nproc goroutines.
type calibrator struct {
	tables [][]uint32
	keys   []string
	m      map[string]uint32
	sink   []uint32
}

// newCalibrator builds the kernel's read-only data from a fixed seed
// and warms it up.
func newCalibrator(nproc int) *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{m: make(map[string]uint32, calKeys), sink: make([]uint32, nproc)}
	for i := 0; i < calKeys; i++ {
		k := "calibration-key-" + strconv.Itoa(rng.Int())
		c.keys = append(c.keys, k)
		c.m[k] = rng.Uint32()
	}
	for g := 0; g < nproc; g++ {
		// A single cycle through every entry (Sattolo's shuffle), so
		// the chase never falls into a short, cached loop.
		t := make([]uint32, calTable)
		for i := range t {
			t[i] = uint32(i)
		}
		for i := len(t) - 1; i > 0; i-- {
			j := rng.Intn(i)
			t[i], t[j] = t[j], t[i]
		}
		c.tables = append(c.tables, t)
	}
	for i := 0; i < calWarmups; i++ {
		c.rate()
	}
	return c
}

// unit is one unit of kernel work on table t from position idx.
func (c *calibrator) unit(t []uint32, idx uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < calSteps; i++ {
		idx = t[idx]
		h ^= c.m[c.keys[idx&(calKeys-1)]]
		h *= 16777619
	}
	return h ^ idx
}

// rate runs one burst, calUnits units on each goroutine at once, and
// returns the units completed per second of wall time. A nil
// calibrator (the traced run, whose figures are not normalized)
// reports the reference rate.
func (c *calibrator) rate() float64 {
	if c == nil {
		return calRef
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g, t := range c.tables {
		wg.Add(1)
		go func(g int, t []uint32) {
			defer wg.Done()
			idx := uint32(g)
			for u := 0; u < calUnits; u++ {
				idx = c.unit(t, idx) & (calTable - 1)
			}
			c.sink[g] = idx
		}(g, t)
	}
	wg.Wait()
	return float64(calUnits*len(c.tables)) / time.Since(start).Seconds()
}

// speed is a measured interval's host speed relative to the reference:
// the mean rate of the bursts taken just before and just after it,
// over calRef. Eight runs of one seed of fleet-match-any on the tuning
// host, whose raw read rates spread 0.177 (IQR over median), gave a
// least-squares slope of 1.17 between the logarithms of their read
// rate and of their mean kernel rate, with correlation 0.99; divided
// by speed, their read rates spread 0.056.
func speed(before, after float64) float64 {
	return (before + after) / 2 / calRef
}
