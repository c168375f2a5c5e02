package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ctxmatch"
	"ctxmatch/internal/repository"
	"ctxmatch/internal/service"
)

// checker compares served responses with in-process references. The
// references come from a second server set up from the same wire
// bodies: a direct Target.Match per (source, catalog), and
// Fleet.MatchAny on a reference fleet holding the same catalogs under
// the same generations as the fleet that answered.
type checker struct {
	in    *inputs
	store *bodyStore
	ref   *service.Server
	// sources are the pool sources parsed from their wire bodies, as
	// the server parses them.
	sources []*ctxmatch.Schema
	// final holds, per roster catalog, whether it ends the PATCH
	// schedule with its replacement rows: the state the probe of the
	// restored server sees.
	final []bool
	// alt holds reference catalogs with their replacement rows.
	alt map[int]*ctxmatch.Target
	// maxGen is, per roster catalog, the highest generation the
	// measured phases can report: the upload plus one per PATCH the
	// schedule sends it.
	maxGen []int

	canon map[int]string    // canonical form per stored body
	want  map[string]string // canonical reference per request key
	// retrievalDiffs counts match-any responses equal to their
	// reference only up to non-survivor retrieval diagnostics.
	retrievalDiffs int
	// mismatches keeps a few failure descriptions for the log.
	mismatches []string
}

func newChecker(in *inputs, store *bodyStore, ref *service.Server, final []bool) (*checker, error) {
	c := &checker{in: in, store: store, ref: ref, final: final, alt: map[int]*ctxmatch.Target{},
		canon: map[int]string{}, want: map[string]string{}, maxGen: make([]int, len(in.plan.Roster))}
	for i := range c.maxGen {
		c.maxGen[i] = 1
	}
	for _, q := range in.plan.Open {
		if q.Op == opPatch {
			c.maxGen[q.Catalog]++
		}
	}
	for i, b := range in.matchAnyBodies {
		var req service.MatchAnyRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		s, err := req.Source.Build("source")
		if err != nil {
			return nil, fmt.Errorf("source %d: %w", i, err)
		}
		c.sources = append(c.sources, s)
	}
	return c, nil
}

// target returns the reference catalog i with its original or its
// replacement rows. Replacement catalogs are built by prepareAlt before
// any concurrent use.
func (c *checker) target(i int, alt bool) (*ctxmatch.Target, error) {
	if alt {
		return c.alt[i], nil
	}
	name := c.in.plan.Roster[i].Name
	t, ok := c.ref.Registry().Get(name)
	if !ok {
		return nil, fmt.Errorf("reference registry lacks %s", name)
	}
	return t, nil
}

// prepareAlt builds reference catalog i with its replacement rows by
// applying the PATCH body to the original reference catalog.
func (c *checker) prepareAlt(i int) error {
	if c.alt[i] != nil {
		return nil
	}
	orig, err := c.target(i, false)
	if err != nil {
		return err
	}
	var doc service.CatalogDeltaDoc
	if err := json.Unmarshal(c.in.patchBodies[i][1], &doc); err != nil {
		return err
	}
	delta, err := doc.Build()
	if err != nil {
		return err
	}
	t, err := orig.Update(context.Background(), delta)
	if err != nil {
		return fmt.Errorf("reference update of %s: %w", c.in.plan.Roster[i].Name, err)
	}
	c.alt[i] = t
	return nil
}

// altAt reports whether generation gen of a catalog carries the
// replacement rows: generation 1 is the upload, and PATCH k (from 0)
// creates generation k+2 with the replacement rows when k is even.
// The restored server numbers generations afresh, so for the probe the
// final state decides.
func (c *checker) altAt(phase, cat, gen int) bool {
	if phase == phaseProbe {
		return c.final != nil && c.final[cat]
	}
	return gen%2 == 0
}

// fleetState is the catalog state a match-any response was computed
// on: a generation and a variant per roster catalog.
type fleetState struct {
	source int
	gens   []int
	alts   []bool
	key    string
}

// stateOf reads the fleet state from a match-any response's retrieval
// list, which names every considered catalog with its generation. No
// workload removes a catalog, so a response must consider the whole
// roster, each catalog once, at a generation the PATCH schedule can
// have reached; any other response fails.
func (c *checker) stateOf(o outcome) (fleetState, error) {
	var resp struct {
		Retrieval []struct {
			Name       string `json:"name"`
			Generation int    `json:"generation"`
		} `json:"retrieval"`
		Considered int `json:"considered"`
	}
	if err := json.Unmarshal(c.store.get(o.body), &resp); err != nil {
		return fleetState{}, err
	}
	n := len(c.in.plan.Roster)
	if resp.Considered != n || len(resp.Retrieval) != n {
		return fleetState{}, fmt.Errorf("considered %d catalogs and listed %d, want the roster of %d", resp.Considered, len(resp.Retrieval), n)
	}
	st := fleetState{source: o.req.Source, gens: make([]int, n), alts: make([]bool, n)}
	for _, cs := range resp.Retrieval {
		i := c.in.plan.catalogIndex(cs.Name)
		switch {
		case i < 0:
			return fleetState{}, fmt.Errorf("unknown catalog %q", cs.Name)
		case st.gens[i] != 0:
			return fleetState{}, fmt.Errorf("catalog %s listed twice", cs.Name)
		case cs.Generation < 1 || (o.phase != phaseProbe && cs.Generation > c.maxGen[i]):
			return fleetState{}, fmt.Errorf("catalog %s at generation %d, want 1..%d", cs.Name, cs.Generation, c.maxGen[i])
		}
		st.gens[i] = cs.Generation
		st.alts[i] = c.altAt(o.phase, i, cs.Generation)
	}
	// Generation numbers do not enter the key: states that hold the
	// same content share a reference, and the comparison ignores them
	// (the content check above ties each generation to its rows).
	var key strings.Builder
	key.WriteString("a/" + strconv.Itoa(st.source))
	for _, alt := range st.alts {
		fmt.Fprintf(&key, "/%v", alt)
	}
	st.key = key.String()
	return st, nil
}

// checkAll checks every outcome. The match-any references are
// computed first, split across workers that each own a reference fleet
// and move it from state to state in response order.
func (c *checker) checkAll(outs []outcome, workers int) error {
	var states []fleetState
	seen := map[string]bool{}
	for _, o := range outs {
		if o.req.Op != opMatchAny || o.err != nil || o.status != 200 {
			continue
		}
		st, err := c.stateOf(o)
		if err != nil || seen[st.key] {
			continue // an undecodable response fails in check
		}
		seen[st.key] = true
		states = append(states, st)
		for i, alt := range st.alts {
			if alt {
				if err := c.prepareAlt(i); err != nil {
					return err
				}
			}
		}
	}
	wants := make([]string, len(states))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(states)/workers, (w+1)*len(states)/workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.wantMatchAny(states[lo:hi], wants[lo:hi])
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, st := range states {
		c.want[st.key] = wants[i]
	}
	for i := range outs {
		if err := c.check(&outs[i]); err != nil {
			return err
		}
	}
	return nil
}

// check marks o.ok when o is a 200 whose body equals its reference.
// Any other status, a transport error, a degraded match-any or a
// mismatch leaves it false.
func (c *checker) check(o *outcome) error {
	o.ok = false
	if o.err != nil || o.status != 200 {
		c.note(o, fmt.Sprintf("status %d err %v", o.status, o.err))
		return nil
	}
	var want string
	switch o.req.Op {
	case opPatch:
		var info struct {
			Name       string `json:"name"`
			Generation int    `json:"generation"`
		}
		if err := json.Unmarshal(c.store.get(o.body), &info); err != nil {
			c.note(o, err.Error())
			return nil
		}
		if info.Name != c.in.plan.Roster[o.req.Catalog].Name || info.Generation != o.req.Seq+2 {
			c.note(o, fmt.Sprintf("patch answered %s generation %d, want generation %d", info.Name, info.Generation, o.req.Seq+2))
			return nil
		}
		o.ok = true
		return nil
	case opMatch:
		w, err := c.wantMatch(o.req.Source, o.req.Catalog)
		if err != nil {
			return err // the reference itself failed: the run is broken
		}
		want = w
	case opMatchAny:
		st, err := c.stateOf(*o)
		if err != nil {
			c.note(o, err.Error())
			return nil
		}
		want = c.want[st.key]
	}
	var drop []string
	if o.req.Op == opMatchAny {
		drop = []string{"generation"}
	}
	got, err := c.canonical(o.body, drop...)
	if err != nil {
		c.note(o, err.Error())
		return nil
	}
	if got != want && (o.req.Op != opMatchAny || !c.sameAnswer(got, want)) {
		c.note(o, "response differs from reference")
		return nil
	}
	o.ok = true
	return nil
}

// sameAnswer compares two match-any responses without the retrieval
// diagnostics of the catalogs that did not survive: their pruned flags
// and partial evidence, and the pruned count, differ between the fused
// retrieval path and the per-catalog path a request takes while a
// writer holds the fleet lock. Everything else — the ranked results,
// the survivors' evidence, which catalogs were considered at which
// generation — must agree. Responses that agree only this way are
// counted in retrievalDiffs.
func (c *checker) sameAnswer(got, want string) bool {
	a, errA := answerOf(got)
	b, errB := answerOf(want)
	if errA != nil || errB != nil || a != b {
		return false
	}
	c.retrievalDiffs++
	return true
}

func answerOf(canon string) (string, error) {
	var resp service.MatchAnyResponse
	if err := json.Unmarshal([]byte(canon), &resp); err != nil {
		return "", err
	}
	survivor := map[string]bool{}
	for _, mc := range resp.Catalogs {
		survivor[mc.Name] = true
	}
	for _, sk := range resp.Skipped {
		survivor[sk.Name] = true
	}
	var head, rest []repository.CatalogScore
	for _, cs := range resp.Retrieval {
		if survivor[cs.Name] {
			head = append(head, cs)
		} else {
			rest = append(rest, repository.CatalogScore{Name: cs.Name, Generation: cs.Generation})
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].Name < rest[j].Name })
	resp.Retrieval = append(head, rest...)
	resp.Pruned = 0
	return canonicalJSON(mustJSON(resp))
}

func (c *checker) note(o *outcome, why string) {
	if len(c.mismatches) < 5 {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s source %d catalog %d: %s", o.req.Op, o.req.Source, o.req.Catalog, why))
	}
}

func (c *checker) wantMatch(source, catalog int) (string, error) {
	key := fmt.Sprintf("m/%d/%d", source, catalog)
	if w, ok := c.want[key]; ok {
		return w, nil
	}
	t, err := c.target(catalog, false)
	if err != nil {
		return "", err
	}
	res, err := t.Match(context.Background(), c.sources[source])
	if err != nil {
		return "", fmt.Errorf("reference match: %w", err)
	}
	w, err := canonicalJSON(mustJSON(res))
	c.want[key] = w
	return w, err
}

// wantMatchAny fills wants with the reference response for each state,
// on a reference fleet of its own that it re-installs catalogs into as
// the states change.
func (c *checker) wantMatchAny(states []fleetState, wants []string) error {
	fleet := repository.NewFleet()
	n := len(c.in.plan.Roster)
	gens, alts := make([]int, n), make([]bool, n)
	for k, st := range states {
		for i, g := range st.gens {
			if g == gens[i] && st.alts[i] == alts[i] {
				continue
			}
			t, err := c.target(i, st.alts[i])
			if err != nil {
				return err
			}
			fleet.Installed(c.in.plan.Roster[i].Name, g, t)
			gens[i], alts[i] = g, st.alts[i]
		}
		rep, err := fleet.MatchAny(context.Background(), c.sources[st.source], repository.Query{})
		if err != nil {
			return fmt.Errorf("reference match-any: %w", err)
		}
		if wants[k], err = canonicalJSON(mustJSON(responseOf(rep)), "generation"); err != nil {
			return err
		}
	}
	return nil
}

// responseOf renders a report as the match-any handler does.
func responseOf(rep *repository.Report) service.MatchAnyResponse {
	resp := service.MatchAnyResponse{
		Catalogs:   make([]service.MatchAnyCatalog, 0, len(rep.Ranked)),
		Retrieval:  rep.Retrieval,
		Considered: rep.Considered,
		Pruned:     rep.Pruned,
		Matched:    rep.Matched,
		Degraded:   rep.Degraded,
		Skipped:    rep.Skipped,
	}
	for _, cm := range rep.Ranked {
		resp.Catalogs = append(resp.Catalogs, service.MatchAnyCatalog{
			Name: cm.Name, Generation: cm.Generation, Evidence: cm.Evidence, Score: cm.Score, Result: cm.Result,
		})
	}
	return resp
}

func (c *checker) canonical(body int, drop ...string) (string, error) {
	if s, ok := c.canon[body]; ok {
		return s, nil
	}
	s, err := canonicalJSON(c.store.get(body), drop...)
	c.canon[body] = s
	return s, err
}

// canonicalJSON renders b with run-time fields zeroed, the drop keys
// removed at every depth, object keys sorted and numbers kept as
// written.
func canonicalJSON(b []byte, drop ...string) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(zeroVolatile(b)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("decoding response: %w", err)
	}
	out, err := json.Marshal(dropKeys(v, drop))
	return string(out), err
}

func dropKeys(v any, drop []string) any {
	switch t := v.(type) {
	case map[string]any:
		for _, k := range drop {
			delete(t, k)
		}
		for k, x := range t {
			t[k] = dropKeys(x, drop)
		}
	case []any:
		for i, x := range t {
			t[i] = dropKeys(x, drop)
		}
	}
	return v
}

// results decodes the per-catalog results of a checked response.
func (c *checker) results(o outcome) []catalogResult {
	body := c.store.get(o.body)
	if o.req.Op == opMatch {
		var res ctxmatch.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return nil
		}
		return []catalogResult{{o.req.Catalog, &res}}
	}
	var resp service.MatchAnyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	var out []catalogResult
	for _, mc := range resp.Catalogs {
		if i := c.in.plan.catalogIndex(mc.Name); i >= 0 && mc.Result != nil {
			out = append(out, catalogResult{i, mc.Result})
		}
	}
	return out
}
