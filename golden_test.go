package ctxmatch_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"ctxmatch"
	"ctxmatch/internal/datagen"
)

// goldenStandardDigest is the SHA-256 of every StandardMatch(…, 0) edge
// and every Explain row over goldenFixtures (see digestStandard). It
// pins the standard matcher's scores across commits: a refactor that
// moves both StandardMatch and the prepared path in step still fails
// here. Changing it on purpose needs a CHANGES.md entry saying why.
const goldenStandardDigest = "0feed5f5fb4901c1b286e45a457f949131635e835746d21bb16c8ae11b8b8107"

// goldenFixture is one (source table, target schema) pair the standard
// matcher golden runs over.
type goldenFixture struct {
	name string
	src  *ctxmatch.Table
	tgt  *ctxmatch.Schema
}

// goldenFixtures covers the three inventory target layouts at two seeds
// plus the grades pair, one fixture per source table.
func goldenFixtures() []goldenFixture {
	var sets []*datagen.Dataset
	for _, layout := range datagen.AllTargets {
		for _, seed := range []int64{1, 5} {
			sets = append(sets, datagen.Inventory(datagen.InventoryConfig{
				Rows: 120, TargetRows: 60, Gamma: 4, Target: layout, Seed: seed,
			}))
		}
	}
	sets = append(sets, datagen.Grades(datagen.GradesConfig{Students: 60, Exams: 3, Sigma: 6, Seed: 6}))
	var out []goldenFixture
	for i, ds := range sets {
		for _, src := range ds.Source.Tables {
			out = append(out, goldenFixture{
				name: fmt.Sprintf("%d/%s", i, src.Name),
				src:  src,
				tgt:  ds.Target,
			})
		}
	}
	return out
}

// TestStandardMatchAgreesWithPrepared: the one-shot StandardMatch must
// return exactly the Standard edges a prepared catalog reports for the
// same single-table source.
func TestStandardMatchAgreesWithPrepared(t *testing.T) {
	m := mustNew(t)
	total := 0
	for _, fx := range goldenFixtures() {
		want := ctxmatch.StandardMatch(fx.src, fx.tgt, m.Options().Tau)
		prep, err := m.Prepare(context.Background(), fx.tgt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Match(context.Background(), ctxmatch.NewSchema("src", fx.src))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Standard, want) {
			t.Errorf("%s: prepared Standard edges diverge from StandardMatch:\n got %v\nwant %v",
				fx.name, res.Standard, want)
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("golden fixtures produced no standard matches")
	}
	t.Logf("%d standard edges agree", total)
}

// TestStandardMatchGoldenDigest pins StandardMatch and Explain over the
// golden fixtures bit for bit.
func TestStandardMatchGoldenDigest(t *testing.T) {
	if got := digestStandard(goldenFixtures()); got != goldenStandardDigest {
		t.Errorf("standard-matcher digest = %s, want %s", got, goldenStandardDigest)
	}
}

// digestStandard hashes, per fixture, every StandardMatch edge at τ = 0
// and the Explain rows of every (source attribute, target attribute)
// pair. Floats enter through math.Float64bits, so any bit of drift in a
// score or confidence changes the digest.
func digestStandard(fixtures []goldenFixture) string {
	h := sha256.New()
	for _, fx := range fixtures {
		writeString(h, fx.name)
		for _, e := range ctxmatch.StandardMatch(fx.src, fx.tgt, 0) {
			writeString(h, e.SourceAttr)
			writeString(h, e.Target.Name)
			writeString(h, e.TargetAttr)
			writeFloat(h, e.Score)
			writeFloat(h, e.Confidence)
		}
		for _, sa := range fx.src.Attrs {
			for _, tt := range fx.tgt.Tables {
				for _, ta := range tt.Attrs {
					exps := ctxmatch.Explain(fx.src, sa.Name, fx.tgt, tt.Name, ta.Name)
					writeString(h, fmt.Sprintf("%s|%s.%s|%d", sa.Name, tt.Name, ta.Name, len(exps)))
					for _, x := range exps {
						writeString(h, x.Matcher)
						writeFloat(h, x.Weight)
						writeFloat(h, x.Raw)
						writeFloat(h, x.Confidence)
					}
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeString(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

func writeFloat(h hash.Hash, f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	h.Write(b[:])
}
