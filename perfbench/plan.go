package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ctxmatch/internal/datagen"
)

// Operation kinds the generator sends.
const (
	opMatchAny = "match_any"
	opMatch    = "match"
	opPatch    = "patch"
)

// workload fixes one traffic mix. Rates are constants of the workload,
// chosen at roughly a third of the closed-loop capacity of a 2-vCPU
// host in its slow phases (fleet-match-any ≈ 40 req/s, catalog-match
// ≈ 200 req/s; about twice that when the host runs fast), and never
// adapted per run, so a slower program shows as queueing rather than
// as less load.
type workload struct {
	name string
	// read is the read operation: opMatchAny or opMatch.
	read string
	// rate is the open-loop read rate in requests per second.
	rate float64
	// patchRate is the open-loop PATCH rate (catalog-churn only).
	patchRate float64
	// openShare is the open loop's share of --seconds; a closed-loop
	// phase with nproc clients takes the rest.
	openShare float64
	// persist turns on snapshot persistence, a flush and a warm restart.
	persist bool
}

// catalog-match, the workload on which the repository layer does no
// work, runs by hand; BENCHMARK.json leaves it out so that its two
// workloads fit 30 s runs in the benchmark's time budget.
var workloads = map[string]workload{
	"fleet-match-any": {name: "fleet-match-any", read: opMatchAny, rate: 14, openShare: 0.5},
	"catalog-match":   {name: "catalog-match", read: opMatch, rate: 70, openShare: 0.3},
	"catalog-churn":   {name: "catalog-churn", read: opMatchAny, rate: 14, patchRate: 5, openShare: 0.5, persist: true},
}

// Sizing rules. minTailSamples is how many samples must lie beyond a
// reported percentile; the open-loop phase is lengthened to reach it
// when --seconds is too short.
const (
	minTailSamples = 10
	minPatches     = 110 // ≥ 100 PATCHes so that p90 has 10 samples beyond it
	enterpriseName = "ryan-10k"
	enterpriseMix  = 0.125 // share of PATCHes sent to the 10k catalog
	poolSize       = 96
	pairCount      = 192 // distinct (source, catalog) pairs of named matches
	pairEnterprise = 24  // of which at the 10k catalog: a 1/8 share
	setupRepeats   = 5
	restoreRepeats = 3
)

// catalogSpec is one roster entry: a registry name and the datagen
// configuration its catalog comes from. patchTable names the table the
// churn workload replaces; altSeed seeds the replacement rows.
type catalogSpec struct {
	Name       string                  `json:"name"`
	Cfg        datagen.InventoryConfig `json:"cfg"`
	PatchTable int                     `json:"patch_table"`
	AltSeed    int64                   `json:"alt_seed"`
}

// sourceSpec is one source of the request pool.
type sourceSpec struct {
	Cfg datagen.InventoryConfig `json:"cfg"`
}

// request is one scheduled operation. Source and Catalog index the
// pool and the roster; Due is the open-loop send offset (zero for
// closed-loop requests, which are sent as soon as a client is free).
// For a PATCH, Alt selects the replacement rows (true) or the original
// rows (false), and Seq is the PATCH's position among the PATCHes to
// its catalog, so the expected generation is Seq+2.
type request struct {
	Op      string        `json:"op"`
	Source  int           `json:"source"`
	Catalog int           `json:"catalog"`
	Due     time.Duration `json:"due"`
	Alt     bool          `json:"alt,omitempty"`
	Seq     int           `json:"seq,omitempty"`
}

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Roster   []catalogSpec `json:"roster"`
	Pool     []sourceSpec  `json:"pool"`
	// Pairs is the (source, catalog) pool named matches draw from: the
	// first pairEnterprise at the 10k catalog, the rest at others.
	Pairs   [][2]int      `json:"pairs,omitempty"`
	Open    []request     `json:"open"`
	OpenDur time.Duration `json:"open_dur"`
	// Closed is the closed-loop request stream; clients take from it in
	// order and wrap around when a fast program exhausts it.
	Closed    []request     `json:"closed"`
	ClosedDur time.Duration `json:"closed_dur"`
}

// benchjsonFleet is the eight-catalog fleet of cmd/benchjson, including
// the Scale-4 catalog and the Scale-10 enterprise catalog (10k rows).
var benchjsonFleet = []catalogSpec{
	{Name: "aaron-1", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 11}},
	{Name: "aaron-2", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Aaron, Seed: 12, ExtraAttrs: 2}},
	{Name: "aaron-scaled", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 40, Gamma: 4, Target: datagen.Aaron, Seed: 2, Scale: 4}},
	{Name: "barrett-1", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Barrett, Seed: 21}},
	{Name: "barrett-2", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 6, Target: datagen.Barrett, Seed: 22}},
	{Name: "ryan-1", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 31}},
	{Name: "ryan-2", Cfg: datagen.InventoryConfig{Rows: 80, TargetRows: 60, Gamma: 4, Target: datagen.Ryan, Seed: 32, NoDistractors: true}},
	{Name: enterpriseName, Cfg: datagen.InventoryConfig{Rows: 120, TargetRows: 500, Gamma: 4, Target: datagen.Ryan, Seed: 1, Scale: 10, ExtraAttrs: 4, NoDistractors: true}},
}

var layouts = []datagen.TargetSchema{datagen.Aaron, datagen.Barrett, datagen.Ryan}

// newPlan generates the roster, the source pool, the request order and
// the PATCH schedule of one run from the seed. seconds sizes the
// phases.
func newPlan(w workload, seed int64, seconds int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{Workload: w.name, Seed: seed}

	// Roster: the fixed benchjson fleet plus 24 small distinct
	// catalogs over the three layouts. Every seed gets the same
	// multiset of sizes, γ, extra attributes and distractor settings;
	// the seed shuffles their assignment and seeds the data, so cost
	// stays comparable across seeds.
	p.Roster = append(p.Roster, benchjsonFleet...)
	tr, gam, ext, nod := spread(rng, 24, 50, 70), cycle(rng, 24, 2, 4, 6), cycle(rng, 24, 0, 2), cycle(rng, 24, 0, 1)
	for i := 0; i < 24; i++ {
		p.Roster = append(p.Roster, catalogSpec{
			Name: fmt.Sprintf("extra-%02d", i),
			Cfg: datagen.InventoryConfig{
				Rows: 80, TargetRows: tr[i], Gamma: gam[i], Target: layouts[i%len(layouts)],
				Seed: 100 + rng.Int63n(1<<20), ExtraAttrs: ext[i], NoDistractors: nod[i] == 1,
			},
		})
	}
	tables := cycle(rng, len(p.Roster), 0, 1) // the base book or music table
	for i := range p.Roster {
		p.Roster[i].AltSeed = 1<<21 + rng.Int63n(1<<20)
		p.Roster[i].PatchTable = tables[i]
	}

	// Source pool: distinct sources spanning the layouts and varying
	// rows, γ, extra attributes and distractors, again a fixed multiset.
	rows, gam, ext, nod := spread(rng, poolSize, 60, 140), cycle(rng, poolSize, 2, 4, 6), cycle(rng, poolSize, 0, 0, 0, 2), cycle(rng, poolSize, 0, 1)
	for i := 0; i < poolSize; i++ {
		p.Pool = append(p.Pool, sourceSpec{Cfg: datagen.InventoryConfig{
			Rows: rows[i], TargetRows: 40, Gamma: gam[i], Target: layouts[i%len(layouts)],
			Seed: 1<<22 + rng.Int63n(1<<20), ExtraAttrs: ext[i], NoDistractors: nod[i] == 1,
		}})
	}

	if w.read == opMatch {
		// Half the small pairs match a source to a catalog of its own
		// layout, where the gold standard applies; the 10k catalog is
		// Ryan-layout and gets Ryan sources.
		enterprise := p.catalogIndex(enterpriseName)
		byLayout := map[datagen.TargetSchema][]int{}
		for i, c := range p.Roster {
			if i != enterprise {
				byLayout[c.Cfg.Target] = append(byLayout[c.Cfg.Target], i)
			}
		}
		srcs := deck(rng, pairCount, len(p.Pool))
		for i, s := range srcs {
			c := enterprise
			layout := p.Pool[s].Cfg.Target
			switch {
			case i < pairEnterprise:
				for layout != datagen.Ryan {
					s = rng.Intn(len(p.Pool))
					layout = p.Pool[s].Cfg.Target
				}
			case i%2 == 0:
				same := byLayout[layout]
				c = same[rng.Intn(len(same))]
			default:
				for c == enterprise {
					c = rng.Intn(len(p.Roster))
				}
			}
			p.Pairs = append(p.Pairs, [2]int{s, c})
		}
	}

	total := time.Duration(seconds) * time.Second
	p.OpenDur = time.Duration(float64(total) * w.openShare)
	p.ClosedDur = total - p.OpenDur
	// A p95 needs 200 samples, so at least that many reads are sent.
	reads := int(math.Ceil(w.rate * p.OpenDur.Seconds()))
	if need := minTailSamples * 20; reads < need {
		reads = need
		p.OpenDur = time.Duration(float64(reads) / w.rate * float64(time.Second))
	}
	for i, r := range p.reads(w, rng, reads) {
		r.Due = time.Duration(float64(i) / w.rate * float64(time.Second))
		p.Open = append(p.Open, r)
	}
	if w.patchRate > 0 {
		patches := int(math.Ceil(w.patchRate * p.OpenDur.Seconds()))
		if patches < minPatches {
			patches = minPatches
		}
		step := p.OpenDur / time.Duration(patches)
		// An exact share at the 10k catalog, the rest spread evenly
		// over the others, in seeded order.
		enterprise := p.catalogIndex(enterpriseName)
		big := int(math.Round(enterpriseMix * float64(patches)))
		cats := deck(rng, patches-big, len(p.Roster)-1)
		for i, c := range cats {
			if c >= enterprise {
				cats[i] = c + 1
			}
		}
		for i := 0; i < big; i++ {
			cats = append(cats, enterprise)
		}
		rng.Shuffle(len(cats), func(i, j int) { cats[i], cats[j] = cats[j], cats[i] })
		seq := make([]int, len(p.Roster))
		var ps []request
		for i, c := range cats {
			ps = append(ps, request{Op: opPatch, Catalog: c, Due: step/2 + time.Duration(i)*step,
				Alt: seq[c]%2 == 0, Seq: seq[c]})
			seq[c]++
		}
		p.Open = mergeByDue(p.Open, ps)
	}
	// Enough for a program several times faster than today's.
	p.Closed = p.reads(w, rng, 4*reads)
	return p
}

// reads draws n reads: pool sources for opMatchAny, pooled (source,
// catalog) pairs for opMatch, each dealt evenly in seeded order, so the
// pairs' fixed share at the 10k catalog is also the requests' share.
func (p *plan) reads(w workload, rng *rand.Rand, n int) []request {
	out := make([]request, n)
	if w.read == opMatchAny {
		for i, s := range deck(rng, n, len(p.Pool)) {
			out[i] = request{Op: w.read, Source: s, Catalog: -1}
		}
		return out
	}
	for i, k := range deck(rng, n, len(p.Pairs)) {
		out[i] = request{Op: w.read, Source: p.Pairs[k][0], Catalog: p.Pairs[k][1]}
	}
	return out
}

// deck deals n values from 0..k-1, each value once per round of k, in
// seeded order.
func deck(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// cycle deals n values from vals, evenly, in seeded order.
func cycle(rng *rand.Rand, n int, vals ...int) []int {
	out := make([]int, n)
	for i, j := range rng.Perm(n) {
		out[i] = vals[j%len(vals)]
	}
	return out
}

// spread deals n values evenly spaced over [lo, hi], in seeded order.
func spread(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i, j := range rng.Perm(n) {
		out[i] = lo + j*(hi-lo)/(n-1)
	}
	return out
}

// catalogIndex returns the roster position of name, -1 if absent.
func (p *plan) catalogIndex(name string) int {
	for i, c := range p.Roster {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// mergeByDue merges two due-ordered request lists.
func mergeByDue(a, b []request) []request {
	out := make([]request, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && a[0].Due <= b[0].Due) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// encode renders the plan canonically; equal seeds give equal bytes.
func (p *plan) encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(p); err != nil {
		panic(err) // plain data: cannot fail
	}
	return buf.Bytes()
}

func (p *plan) digest() string {
	sum := sha256.Sum256(p.encode())
	return fmt.Sprintf("%x", sum[:8])
}
