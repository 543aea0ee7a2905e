package ml

import (
	"testing"

	"repro/internal/relational"
)

// requireValidCuts checks the ScanSpans contract: monotonic cut points
// covering exactly [0, n].
func requireValidCuts(t *testing.T, cuts []int, n int) {
	t.Helper()
	if len(cuts) < 2 || cuts[0] != 0 || cuts[len(cuts)-1] != n {
		t.Fatalf("cuts %v do not cover [0, %d]", cuts, n)
	}
	for s := 1; s < len(cuts); s++ {
		if cuts[s] < cuts[s-1] {
			t.Fatalf("cuts %v not monotonic at %d", cuts, s)
		}
	}
}

// TestScanSpansSegmentAligned checks ScanSpans' documented contract over an
// unremapped segmented relation, across table sizes above and below the
// worker pool's appetite and at every worker count up to four. When segments
// outnumber the wanted spans they are grouped, so every interior cut falls on
// a segment boundary; otherwise segments are subdivided, so every span lies
// inside one segment.
func TestScanSpansSegmentAligned(t *testing.T) {
	defer func(p int) { MaxParallelism = p }(MaxParallelism)
	_, jv := viewStar(t, 600, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	for _, segSize := range []int{32, 100, 1 << 20} {
		st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := FromRelation(st, cols, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := ds.NumExamples()
		numSegs := (n + segSize - 1) / segSize
		for _, p := range []int{1, 2, 3, 4} {
			MaxParallelism = p
			cuts := ScanSpans(ds)
			requireValidCuts(t, cuts, n)
			if numSegs >= columnSpans(n, ds.NumFeatures()) {
				for _, c := range cuts[1 : len(cuts)-1] {
					if c%segSize != 0 {
						t.Fatalf("segSize %d, p %d: grouping cut %d is not on a segment boundary (cuts %v)", segSize, p, c, cuts)
					}
				}
				continue
			}
			for s := 1; s < len(cuts); s++ {
				lo, hi := cuts[s-1], cuts[s]-1
				if hi >= lo && lo/segSize != hi/segSize {
					t.Fatalf("segSize %d, p %d: span [%d,%d] straddles a segment boundary (cuts %v)", segSize, p, lo, hi, cuts)
				}
			}
		}
	}
}

// TestScanSpansFallbacks checks the arithmetic spans on non-segmented and
// row-remapped datasets, and the empty edge.
func TestScanSpansFallbacks(t *testing.T) {
	_, jv := viewStar(t, 300, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	ds, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireValidCuts(t, ScanSpans(ds), ds.NumExamples())

	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	segDS, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := segDS.Subset([]int{5, 1, 200, 9})
	requireValidCuts(t, ScanSpans(sub), 4)

	requireValidCuts(t, ScanSpans(segDS.Subset([]int{})), 0)
}

// TestScanRowMajorSpilledSegmented runs the (feature, span) fan-out against
// an out-of-core segmented table whose cache budget holds only a fraction of
// the segments: concurrent scan tasks fault, pin, and evict segments under
// each other. Under -race this is the fan-out half of the concurrency
// satellite; the assertion pins bit-identical output vs the dense dataset.
func TestScanRowMajorSpilledSegmented(t *testing.T) {
	_, jv := viewStar(t, 800, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{
		SegmentSize: 64,
		SpillDir:    t.TempDir(),
		CacheBytes:  2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBlock, wantLabels := ScanRowMajor(ref.Materialize())
	gotBlock, gotLabels := ScanRowMajor(ds)
	if len(wantBlock) != len(gotBlock) {
		t.Fatalf("block sizes diverged: %d vs %d", len(wantBlock), len(gotBlock))
	}
	for i := range wantBlock {
		if wantBlock[i] != gotBlock[i] {
			t.Fatalf("block[%d]: want %d got %d", i, wantBlock[i], gotBlock[i])
		}
	}
	for i := range wantLabels {
		if wantLabels[i] != gotLabels[i] {
			t.Fatalf("labels[%d]: want %d got %d", i, wantLabels[i], gotLabels[i])
		}
	}
}

// TestFeatureRangeRouting checks FeatureRange resolves through column remaps
// to the segmented source's zone-map fold, and reports no range for dense or
// statistics-free backings.
func TestFeatureRangeRouting(t *testing.T) {
	_, jv := viewStar(t, 400, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ds.NumFeatures(); j++ {
		lo, hi, ok := ds.FeatureRange(j)
		if !ok {
			t.Fatalf("feature %d: no range over segmented backing", j)
		}
		// The bound must cover every visible value (sound over-approximation).
		n := ds.NumExamples()
		for i := 0; i < n; i++ {
			if v := ds.At(i, j); v < lo || v > hi {
				t.Fatalf("feature %d: value %d outside reported range [%d,%d]", j, v, lo, hi)
			}
		}
	}
	// A feature remap must consult the right source column.
	remap := ds.SelectFeatures([]int{ds.NumFeatures() - 1})
	lo, hi, ok := remap.FeatureRange(0)
	wlo, whi, wok := ds.FeatureRange(ds.NumFeatures() - 1)
	if ok != wok || lo != wlo || hi != whi {
		t.Fatalf("remapped FeatureRange = [%d,%d] %v, want [%d,%d] %v", lo, hi, ok, wlo, whi, wok)
	}
	if _, _, ok := ds.Materialize().FeatureRange(0); ok {
		t.Fatal("dense dataset must report no feature range")
	}
	refDS, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := refDS.FeatureRange(0); ok {
		t.Fatal("join view has no statistics; FeatureRange must report none")
	}
}
