// Command perfbench is the repository benchmark. It serves the
// ctxmatchd handler stack (service.Server) in process on a loopback
// listener, drives it over HTTP with at most nproc connections, checks
// every response against an in-process reference, and prints one JSON
// result line.
//
//	go run . --workload fleet-match-any --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports per-layer metrics from a traced run that times the handler
// and replays a sample of the workload's requests through the layers'
// public functions (see replay.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// details is printed on the line before the result: how the run was
// made and what the percentiles rest on.
type details struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	PlanDigest string             `json:"plan_digest"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	StoreFS    string             `json:"store_fs,omitempty"`
	HeapBaseMB float64            `json:"heap_base_mb"`
	Catalogs   []catalogSize      `json:"catalogs"`
	Samples    map[string]int     `json:"samples"`
	PhaseS     map[string]float64 `json:"phase_s,omitempty"`
	Mismatches []string           `json:"mismatches,omitempty"`
	// Host holds the untraced run's figures at the host's own speed
	// and the calibration rates they were scaled by.
	Host map[string]float64 `json:"host,omitempty"`
	// Slices holds the closed loop's per-slice read rates as measured
	// and the calibration bursts around them.
	Slices map[string][]float64 `json:"slices,omitempty"`
}

// catalogSize is one catalog's Target.Stats sizes as the registry lists
// them.
type catalogSize struct {
	Name           string `json:"name"`
	Tables         int    `json:"tables"`
	Rows           int    `json:"rows"`
	FeatureColumns int    `json:"feature_columns"`
	DictBytes      int    `json:"dict_bytes"`
	IndexBytes     int    `json:"index_bytes"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-match-any, catalog-match or catalog-churn")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := bench(w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// bench makes one run and prints its details and result lines. Scratch
// files (the snapshot store) live in a run directory under
// .bench_build that is removed at the end.
func bench(w workload, seed int64, seconds int, traced bool) error {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	do := runMeasured
	if traced {
		do = runTraced
	}
	res, det, err := do(w, seed, seconds, nproc, work)
	if err != nil {
		return err
	}
	det.Workload, det.Seed, det.Trace = w.name, seed, traced
	det.NProc, det.GOMAXPROCS, det.GoVersion = nproc, runtime.GOMAXPROCS(0), runtime.Version()
	detLine, err := json.Marshal(det)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(detLine))
	fmt.Println(string(resLine))
	return nil
}

// runMeasured is the untraced run: set-up, the open-loop phase, the
// closed-loop phase, and for catalog-churn the flush and warm restart,
// then the output checks.
func runMeasured(w workload, seed int64, seconds, nproc int, work string) (result, details, error) {
	cal := newCalibrator(nproc)
	r, err := newRun(w, seed, seconds, nproc, work, nil, cal)
	if err != nil {
		return result{}, details{}, err
	}
	defer r.close()
	// The server's share of the live heap: what set-up added to the
	// generator's inputs.
	heap := liveHeapMB() - r.heapBaseMB
	t0 := time.Now()
	r.measure()
	t1 := time.Now()
	if err := r.finish(); err != nil {
		return result{}, details{}, err
	}
	r.phaseS["measure"] = t1.Sub(t0).Seconds()
	r.phaseS["finish"] = time.Since(t1).Seconds()
	det := r.details()
	det.Host = map[string]float64{
		"read_rps":   r.readRawRPS,
		"setup_s":    median(r.setupRaw),
		"cal_closed": median(r.closedCal),
		"cal_ref":    calRef,
	}
	det.Slices = map[string][]float64{"read_rps": r.sliceRPS, "cal": r.closedCal}
	m := map[string]metric{
		"setup_s":   {median(r.setupS), "s"},
		"heap_mb":   {heap, "MB"},
		"read_rps":  {r.readRPS, "1/s"},
		"f_measure": {r.fMeasure, "%"},
	}
	return r.result(m), det, nil
}

// storeFS names the filesystem holding dir.
func storeFS(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
