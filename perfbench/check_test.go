package main

import (
	"testing"

	"ctxmatch/internal/datagen"
)

// tinyPlan is a three-catalog, two-source plan small enough for unit
// tests.
func tinyPlan() *plan {
	p := &plan{Workload: "test", Seed: 1}
	for i, l := range layouts {
		p.Roster = append(p.Roster, catalogSpec{
			Name: string(l),
			Cfg:  datagen.InventoryConfig{Rows: 40, TargetRows: 30, Gamma: 4, Target: l, Seed: int64(10 + i)},
		})
	}
	for i := 0; i < 2; i++ {
		p.Pool = append(p.Pool, sourceSpec{Cfg: datagen.InventoryConfig{
			Rows: 40, TargetRows: 30, Gamma: 4, Target: layouts[i], Seed: int64(20 + i), NoDistractors: true,
		}})
	}
	return p
}

// TestCheckerCatchesCorruptedReference serves real responses, checks
// that they pass against a faithful reference, then corrupts the
// reference — one catalog swapped for another — and checks that the
// same responses now fail. A match-any served after a catalog has
// left the live registry must fail too, although it is consistent
// with the catalogs it lists.
func TestCheckerCatchesCorruptedReference(t *testing.T) {
	in, err := newInputs(tinyPlan(), false)
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(2)
	defer client.CloseIdleConnections()
	live, _, err := setup(in, client, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	ref, _, err := setup(in, client, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.close()

	g := &generator{client: client, base: live.url, in: in, conns: 1, store: newBodyStore()}
	outs := []outcome{
		g.do(request{Op: opMatch, Source: 0, Catalog: 0}, phaseOpen),
		g.do(request{Op: opMatchAny, Source: 1, Catalog: -1}, phaseOpen),
	}
	check := func(outs []outcome) []bool {
		c, err := newChecker(in, g.store, ref.srv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.checkAll(outs, 2); err != nil {
			t.Fatal(err)
		}
		ok := make([]bool, len(outs))
		for i, o := range outs {
			ok[i] = o.ok
		}
		return ok
	}
	if got := check(outs); !got[0] || !got[1] {
		t.Fatalf("faithful reference: ok = %v, want both true", got)
	}

	// Drop a catalog from the live registry: the next match-any
	// considers two catalogs of the three.
	if status, body, err := send(client, "DELETE", live.url+"/v1/catalogs/"+in.plan.Roster[2].Name, nil); err != nil || status != 204 {
		t.Fatalf("DELETE: status %d, err %v, body %s", status, err, body)
	}
	short := []outcome{g.do(request{Op: opMatchAny, Source: 1, Catalog: -1}, phaseOpen)}
	if short[0].status != 200 {
		t.Fatalf("match-any after DELETE: status %d", short[0].status)
	}
	if got := check(short); got[0] {
		t.Fatal("match-any that leaves out a roster catalog passed the check")
	}

	// Corrupt the reference: catalog 0 now holds catalog 2's content.
	other, _ := ref.srv.Registry().Get(in.plan.Roster[2].Name)
	ref.srv.Registry().Install(in.plan.Roster[0].Name, other)
	if got := check(outs); got[0] || got[1] {
		t.Fatalf("corrupted reference: ok = %v, want both false", got)
	}
}

// TestZeroVolatile checks that run-time fields are zeroed and nothing
// else changes.
func TestZeroVolatile(t *testing.T) {
	in := `{"elapsed_ns":123,"x":1,"prepared_at":"2026-01-01T00:00:00Z","prepared_ns":-5,"y":"elapsed_ns"}`
	want := `{"elapsed_ns":0,"x":1,"prepared_at":0,"prepared_ns":0,"y":"elapsed_ns"}`
	if got := string(zeroVolatile([]byte(in))); got != want {
		t.Fatalf("zeroVolatile = %s, want %s", got, want)
	}
}
