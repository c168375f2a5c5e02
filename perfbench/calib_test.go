package main

import (
	"math"
	"testing"
	"time"
)

// TestClosedRate checks the closed-loop rate: Little's law pooled over
// slices, each slice's busy time scaled by the calibration bursts
// around it, and reads that failed or ended after their slice left
// out.
func TestClosedRate(t *testing.T) {
	read := func(slice int, lat time.Duration) outcome {
		return outcome{phase: phaseClosed, ok: true, slice: slice, lat: lat}
	}
	var outs []outcome
	for i := 0; i < 10; i++ {
		outs = append(outs, read(0, 100*time.Millisecond)) // 20/s with 2 clients
		outs = append(outs, read(1, 200*time.Millisecond)) // 10/s, on a host at half speed
	}
	late := read(1, time.Second)
	late.late = true
	failed := read(0, time.Second)
	failed.ok = false
	outs = append(outs, late, failed, outcome{phase: phaseOpen, ok: true, lat: time.Second})

	cal := []float64{calRef, calRef, calRef / 2}
	raw, ref, perSlice, ok := closedRate(outs, 2, cal)
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if ok != 20 || len(perSlice) != 2 {
		t.Fatalf("counted %d reads in %d slices, want 20 in 2", ok, len(perSlice))
	}
	near("slice 0", perSlice[0], 20)
	near("slice 1", perSlice[1], 10)
	near("raw", raw, 2*20/3.0) // 20 reads over 3 s of client time
	// Slice 1 ran between bursts at 1 and 1/2 of the reference rate:
	// its 2 s count as 1.5 s at the reference speed.
	near("ref", ref, 2*20/2.5)

	// Without calibration (the traced run: one slice) both rates agree.
	for i := range outs {
		outs[i].slice = 0
	}
	raw, ref, _, _ = closedRate(outs, 2, nil)
	near("uncalibrated raw", raw, 2*20/3.0)
	near("uncalibrated ref", ref, raw)
}
