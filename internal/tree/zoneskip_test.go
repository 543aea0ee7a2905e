package tree

import (
	"math/bits"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// TestZoneSkipMatchesFullSearch pins the zone-map feature skip: over a
// relation carrying constant columns, the batched split search must fit a
// bit-identical tree to the row-at-a-time oracle, which tallies every
// feature at every node — a constant feature can never win a split, so
// proving it constant from statistics and never gathering it changes cost,
// not output. Both segmented layouts keep running column bounds (the
// single-segment "col" one through its open tail), so they take the skip;
// the row case pins the no-skip path on the same cells.
func TestZoneSkipMatchesFullSearch(t *testing.T) {
	r := rng.New(77)
	keyDom := relational.NewDomain("RID", 60)
	schema := relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
		relational.Column{Name: "const1", Kind: relational.KindFeature, Domain: relational.NewDomain("c1", 16)},
		relational.Column{Name: "a", Kind: relational.KindFeature, Domain: relational.NewDomain("a", 5)},
		relational.Column{Name: "const2", Kind: relational.KindFeature, Domain: relational.NewDomain("c2", 300)},
	)
	tab := relational.NewTable("S", schema, 0)
	n := 2 * parallelSplitThreshold
	for i := 0; i < n; i++ {
		fk := relational.Value(r.Intn(60))
		a := relational.Value(r.Intn(5))
		y := relational.Value((int(fk)/10 + int(a)) % 2)
		if r.Intn(12) == 0 {
			y = 1 - y
		}
		tab.MustAppendRow([]relational.Value{y, fk, 7, a, 250})
	}
	st, err := relational.MaterializeSegmented(tab, "seg", relational.SegmentOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	slab, err := relational.MaterializeSegmented(tab, "col", relational.SegmentOptions{SegmentSize: 1 << bits.Len(uint(n))})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Criterion: Gini, MinSplit: 20, CP: 1e-4}
	for name, rel := range map[string]relational.Relation{
		"row": tab,
		"col": slab,
		"seg": st,
	} {
		ds, err := ml.FromRelation(rel, []int{1, 2, 3, 4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi, ok := ds.FeatureRange(1); name != "row" && (!ok || lo != 7 || hi != 7) {
			t.Fatalf("const1 FeatureRange = [%d,%d] ok=%v, want constant 7", lo, hi, ok)
		}
		skip := New(cfg)
		if err := skip.Fit(ds); err != nil {
			t.Fatal(err)
		}
		requireSameTree(t, name, skip, rowFit(cfg, ds))
		// The constant features (dataset positions 1 and 3) must split nowhere.
		for f := range skip.FeatureUsage() {
			if f == 1 || f == 3 {
				t.Fatalf("%s: constant feature %d used for a split", name, f)
			}
		}
		if skip.NumLeaves() < 2 {
			t.Fatalf("%s: tree learned nothing; the equivalence check is vacuous", name)
		}
	}
}
