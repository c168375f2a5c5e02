package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"ctxmatch"
	"ctxmatch/internal/datagen"
	"ctxmatch/internal/service"
)

// inputs are the generated wire bodies of a plan: everything the
// server receives, encoded once before any timing starts.
type inputs struct {
	plan *plan
	// catalogDocs are the roster catalogs' PUT /v1/catalogs/{name}
	// bodies.
	catalogDocs [][]byte
	// sources holds the pool datasets; matchAnyBodies and matchBodies
	// their POST bodies for /v1/match-any and …/match.
	sources        []*datagen.Dataset
	matchAnyBodies [][]byte
	matchBodies    [][]byte
	// patchBodies[c][alt] is the PATCH body that replaces catalog c's
	// patch table with its original (alt=0) or replacement (alt=1)
	// rows; nil unless the workload patches.
	patchBodies [][2][]byte
}

func newInputs(p *plan, patches bool) (*inputs, error) {
	in := &inputs{plan: p}
	for _, c := range p.Roster {
		ds := datagen.Inventory(c.Cfg)
		doc, err := service.DocFromSchema(ds.Target)
		if err != nil {
			return nil, fmt.Errorf("encoding catalog %s: %w", c.Name, err)
		}
		in.catalogDocs = append(in.catalogDocs, mustJSON(doc))
		if !patches {
			continue
		}
		altCfg := c.Cfg
		altCfg.Seed = c.AltSeed
		alt := datagen.Inventory(altCfg).Target.Tables[c.PatchTable]
		var bodies [2][]byte
		for i, tbl := range []*ctxmatch.Table{ds.Target.Tables[c.PatchTable], alt} {
			var csv strings.Builder
			if err := tbl.WriteCSV(&csv); err != nil {
				return nil, fmt.Errorf("encoding patch table of %s: %w", c.Name, err)
			}
			bodies[i] = mustJSON(service.CatalogDeltaDoc{
				Replace: []service.TableDoc{{Name: tbl.Name, CSV: csv.String()}},
			})
		}
		in.patchBodies = append(in.patchBodies, bodies)
	}
	for i, s := range p.Pool {
		ds := datagen.Inventory(s.Cfg)
		doc, err := service.DocFromSchema(ds.Source)
		if err != nil {
			return nil, fmt.Errorf("encoding source %d: %w", i, err)
		}
		in.sources = append(in.sources, ds)
		in.matchAnyBodies = append(in.matchAnyBodies, mustJSON(service.MatchAnyRequest{Source: doc}))
		in.matchBodies = append(in.matchBodies, mustJSON(struct {
			Source service.SchemaDoc `json:"source"`
		}{doc}))
	}
	return in, nil
}

// body returns the request body and HTTP method and path of r.
func (in *inputs) body(r request) (method, path string, body []byte) {
	switch r.Op {
	case opMatchAny:
		return "POST", "/v1/match-any", in.matchAnyBodies[r.Source]
	case opMatch:
		return "POST", "/v1/catalogs/" + in.plan.Roster[r.Catalog].Name + "/match", in.matchBodies[r.Source]
	default:
		alt := 0
		if r.Alt {
			alt = 1
		}
		return "PATCH", "/v1/catalogs/" + in.plan.Roster[r.Catalog].Name, in.patchBodies[r.Catalog][alt]
	}
}

// sameLayout reports whether the pool source and the catalog were
// generated for the same target layout, so the source's gold standard
// applies to the catalog's results.
func (in *inputs) sameLayout(source, catalog int) bool {
	return in.plan.Pool[source].Cfg.Target == in.plan.Roster[catalog].Cfg.Target
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire documents of plain strings: cannot fail
	}
	return b
}
