package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relational"
	"repro/internal/rng"
)

// tinyDataset builds a 2-feature XOR-ish dataset for interface tests.
func tinyDataset() *Dataset {
	return &Dataset{
		Features: []Feature{
			{Name: "a", Cardinality: 2},
			{Name: "b", Cardinality: 3},
		},
		X: []relational.Value{
			0, 0,
			0, 1,
			1, 0,
			1, 2,
		},
		Y: []int8{0, 0, 1, 1},
	}
}

func TestDatasetAccessors(t *testing.T) {
	d := tinyDataset()
	if d.NumExamples() != 4 || d.NumFeatures() != 2 {
		t.Fatalf("shape (%d,%d)", d.NumExamples(), d.NumFeatures())
	}
	if got := d.Row(3); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Row(3) = %v", got)
	}
	if d.Label(2) != 1 {
		t.Fatal("Label(2) wrong")
	}
	if d.PositiveFraction() != 0.5 {
		t.Fatalf("PositiveFraction = %v", d.PositiveFraction())
	}
	if d.MajorityClass() != 1 {
		t.Fatal("tie must resolve to class 1")
	}
}

func TestSubsetAndSelectFeatures(t *testing.T) {
	d := tinyDataset()
	s := d.Subset([]int{3, 0})
	if s.NumExamples() != 2 || s.Label(0) != 1 || s.Row(1)[1] != 0 {
		t.Fatalf("Subset wrong: %+v", s)
	}
	f := d.SelectFeatures([]int{1})
	if f.NumFeatures() != 1 || f.Features[0].Name != "b" {
		t.Fatalf("SelectFeatures wrong: %+v", f.Features)
	}
	if f.Row(3)[0] != 2 {
		t.Fatal("SelectFeatures did not reindex columns")
	}
	g := d.DropFeatures(map[int]bool{0: true})
	if g.NumFeatures() != 1 || g.Features[0].Name != "b" {
		t.Fatalf("DropFeatures wrong: %+v", g.Features)
	}
}

func TestEncoderOffsets(t *testing.T) {
	d := tinyDataset()
	e := NewEncoder(d.Features)
	if e.Dims != 5 {
		t.Fatalf("Dims = %d, want 5", e.Dims)
	}
	if e.Index(0, 1) != 1 || e.Index(1, 0) != 2 || e.Index(1, 2) != 4 {
		t.Fatal("Index mapping wrong")
	}
	dst := make([]int, 2)
	got := e.ActiveIndices([]relational.Value{1, 2}, dst)
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("ActiveIndices = %v", got)
	}
}

func TestMatchCountEqualsOneHotDot(t *testing.T) {
	// Property: MatchCount(a,b) equals the dot product of explicit one-hot
	// encodings, and 2*(d - MatchCount) equals squared euclidean distance.
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw%8) + 1
		r := rng.New(seed)
		feats := make([]Feature, d)
		for j := range feats {
			feats[j] = Feature{Name: "f", Cardinality: r.Intn(5) + 2}
		}
		e := NewEncoder(feats)
		a := make([]relational.Value, d)
		b := make([]relational.Value, d)
		for j := range a {
			a[j] = relational.Value(r.Intn(feats[j].Cardinality))
			b[j] = relational.Value(r.Intn(feats[j].Cardinality))
		}
		oneHot := func(row []relational.Value) []float64 {
			v := make([]float64, e.Dims)
			for j, val := range row {
				v[e.Index(j, val)] = 1
			}
			return v
		}
		va, vb := oneHot(a), oneHot(b)
		dot, sq := 0.0, 0.0
		for i := range va {
			dot += va[i] * vb[i]
			diff := va[i] - vb[i]
			sq += diff * diff
		}
		m := MatchCount(a, b)
		return float64(m) == dot && math.Abs(sq-2*float64(d-m)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyAndConfusion(t *testing.T) {
	d := tinyDataset()
	c := &ConstantClassifier{Class: 1}
	if got := Accuracy(c, d); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Error(c, d); got != 0.5 {
		t.Fatalf("Error = %v", got)
	}
	m := Confuse(c, d)
	if m.TP != 2 || m.FP != 2 || m.TN != 0 || m.FN != 0 {
		t.Fatalf("confusion = %+v", m)
	}
	if m.Accuracy() != 0.5 {
		t.Fatalf("confusion accuracy = %v", m.Accuracy())
	}
}

// batchOnly classifies through PredictBatch alone; its Predict panics, so
// any evaluation path that falls back to per-row scoring fails the test.
type batchOnly struct{ classes []int8 }

func (b batchOnly) Fit(*Dataset) error              { return nil }
func (b batchOnly) Predict([]relational.Value) int8 { panic("per-row Predict on a batch predictor") }
func (b batchOnly) PredictBatch(ds *Dataset) []int8 { return b.classes[:ds.NumExamples()] }

// TestEvaluationTakesBatchPath checks that Accuracy, Confuse and
// CompareClassifiers all score a BatchPredictor through PredictBatch.
func TestEvaluationTakesBatchPath(t *testing.T) {
	d := tinyDataset() // labels 0, 0, 1, 1
	c := batchOnly{classes: []int8{0, 1, 1, 0}}
	if got := Accuracy(c, d); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if m := Confuse(c, d); m != (Confusion{TP: 1, FP: 1, TN: 1, FN: 1}) {
		t.Fatalf("confusion = %+v", m)
	}
	if delta := CompareClassifiers(c, &ConstantClassifier{Class: 1}, d); delta.RefAcc != 0.5 || delta.Disagreement != 0.5 {
		t.Fatalf("compare = %+v", delta)
	}
}

func TestConstantClassifierFit(t *testing.T) {
	d := tinyDataset()
	d.Y = []int8{0, 0, 0, 1}
	c := &ConstantClassifier{}
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c.Class != 0 {
		t.Fatal("majority fit wrong")
	}
	if c.Name() == "" {
		t.Fatal("Name empty")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := NewGrid().Axis("a", 1, 2).Axis("b", 10, 20, 30)
	pts := g.Points()
	if len(pts) != 6 {
		t.Fatalf("grid size %d, want 6", len(pts))
	}
	// First point pairs the first value of every axis; order is
	// deterministic.
	if pts[0]["a"] != 1 || pts[0]["b"] != 10 {
		t.Fatalf("first point %v", pts[0])
	}
	if pts[5]["a"] != 2 || pts[5]["b"] != 30 {
		t.Fatalf("last point %v", pts[5])
	}
	if NewGrid().Points()[0].String() != "{}" {
		t.Fatal("empty grid must contain a single empty point")
	}
	if pts[0].String() != "{a=1 b=10}" {
		t.Fatalf("String = %q", pts[0].String())
	}
}

// thresholdClassifier predicts 1 iff feature 0 >= its threshold parameter;
// used to validate grid search picks the best validation point.
type thresholdClassifier struct{ thresh float64 }

func (c *thresholdClassifier) Fit(*Dataset) error { return nil }
func (c *thresholdClassifier) Predict(row []relational.Value) int8 {
	if float64(row[0]) >= c.thresh {
		return 1
	}
	return 0
}

func TestGridSearchPicksBestValidation(t *testing.T) {
	train := tinyDataset()
	val := tinyDataset()
	grid := NewGrid().Axis("thresh", 0, 1, 2)
	res, err := GridSearch(grid, func(p GridPoint) (Classifier, error) {
		return &thresholdClassifier{thresh: p["thresh"]}, nil
	}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	// thresh=1 perfectly separates the tiny dataset (feature0==1 → class 1).
	if res.BestPoint["thresh"] != 1 {
		t.Fatalf("best point %v", res.BestPoint)
	}
	if res.BestValAcc != 1.0 {
		t.Fatalf("best val acc %v", res.BestValAcc)
	}
	if res.PointsTried != 3 {
		t.Fatalf("points tried %d", res.PointsTried)
	}
}

func TestGridSearchTieKeepsEarlier(t *testing.T) {
	train := tinyDataset()
	val := tinyDataset()
	grid := NewGrid().Axis("thresh", 5, 6) // both always predict 0: tie
	res, err := GridSearch(grid, func(p GridPoint) (Classifier, error) {
		return &thresholdClassifier{thresh: p["thresh"]}, nil
	}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint["thresh"] != 5 {
		t.Fatalf("tie should keep first point, got %v", res.BestPoint)
	}
}

func TestViewColumns(t *testing.T) {
	// Build a tiny star and join it, then check each view's column set.
	keyDom := relational.NewDomain("RID", 2)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 2)},
	), 2)
	dim.MustAppendRow([]relational.Value{0, 0})
	dim.MustAppendRow([]relational.Value{1, 1})
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "xs", Kind: relational.KindFeature, Domain: relational.NewDomain("xs", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
	), 4)
	for i := 0; i < 4; i++ {
		fact.MustAppendRow([]relational.Value{relational.Value(i % 2), relational.Value(i % 2), relational.Value(i % 2)})
	}
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := relational.Join(ss)
	if err != nil {
		t.Fatal(err)
	}

	name := func(cols []int) []string {
		var out []string
		for _, c := range cols {
			out = append(out, joined.Schema().Cols[c].Name)
		}
		return out
	}
	checkNames := func(got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("got %v want %v", got, want)
			}
		}
	}
	checkNames(name(ViewColumns(joined, JoinAll, nil)), []string{"xs", "FK", "R.xr"})
	checkNames(name(ViewColumns(joined, NoJoin, nil)), []string{"xs", "FK"})
	checkNames(name(ViewColumns(joined, NoFK, nil)), []string{"xs", "R.xr"})
	checkNames(name(ViewColumns(joined, JoinAll, map[string]bool{"R": true})), []string{"xs", "FK"})

	ds, err := ViewDataset(joined, ss.TargetCol, NoJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != 2 || !ds.Features[1].IsFK {
		t.Fatalf("NoJoin dataset features %+v", ds.Features)
	}
}

func TestViewOpenFKExcluded(t *testing.T) {
	keyDom := relational.NewDomain("RID", 2)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 2)},
	), 2)
	dim.MustAppendRow([]relational.Value{0, 1})
	dim.MustAppendRow([]relational.Value{1, 0})
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R", Open: true},
	), 2)
	fact.MustAppendRow([]relational.Value{0, 0})
	fact.MustAppendRow([]relational.Value{1, 1})
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := relational.Join(ss)
	if err != nil {
		t.Fatal(err)
	}
	cols := ViewColumns(joined, JoinAll, nil)
	for _, c := range cols {
		if joined.Schema().Cols[c].Kind == relational.KindForeignKey {
			t.Fatal("open FK must never be a feature")
		}
	}
	// NoJoin on an open-FK-only fact table selects nothing → error.
	if _, err := ViewDataset(joined, ss.TargetCol, NoJoin, nil); err == nil {
		t.Fatal("expected empty-view error")
	}
}

func TestFromTableValidation(t *testing.T) {
	d3 := relational.NewDomain("Y3", 3)
	tab := relational.NewTable("t", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: d3},
		relational.Column{Name: "x", Kind: relational.KindFeature, Domain: relational.NewDomain("x", 2)},
	), 1)
	tab.MustAppendRow([]relational.Value{2, 1})
	if _, err := FromTable(tab, []int{1}, 0); err == nil {
		t.Fatal("non-binary target must be rejected")
	}
	if _, err := FromTable(tab, []int{0}, 0); err == nil {
		t.Fatal("target as feature must be rejected")
	}
}

func TestViewStringer(t *testing.T) {
	if JoinAll.String() != "JoinAll" || NoJoin.String() != "NoJoin" || NoFK.String() != "NoFK" {
		t.Fatal("View names wrong")
	}
	if View(9).String() == "" {
		t.Fatal("unknown view must still render")
	}
}
