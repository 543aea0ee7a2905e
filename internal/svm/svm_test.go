package svm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/mltest"
	"repro/internal/relational"
	"repro/internal/rng"
)

func feats(cards ...int) []ml.Feature {
	out := make([]ml.Feature, len(cards))
	for i, c := range cards {
		out[i] = ml.Feature{Name: "f", Cardinality: c}
	}
	return out
}

func TestKernelsMatchExplicitOneHot(t *testing.T) {
	// Property: match-count kernels equal kernels computed on explicit
	// one-hot encodings.
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw%6) + 1
		r := rng.New(seed)
		fs := make([]ml.Feature, d)
		for j := range fs {
			fs[j] = ml.Feature{Name: "f", Cardinality: r.Intn(4) + 2}
		}
		enc := ml.NewEncoder(fs)
		a := make([]relational.Value, d)
		b := make([]relational.Value, d)
		for j := range a {
			a[j] = relational.Value(r.Intn(fs[j].Cardinality))
			b[j] = relational.Value(r.Intn(fs[j].Cardinality))
		}
		oneHot := func(row []relational.Value) []float64 {
			v := make([]float64, enc.Dims)
			for j, val := range row {
				v[enc.Index(j, val)] = 1
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
		gamma := 0.3
		lin, _ := NewKernel(Linear, 0, d)
		quad, _ := NewKernel(Quadratic, gamma, d)
		rbf, _ := NewKernel(RBF, gamma, d)
		ok := math.Abs(lin.Eval(a, b)-dot) < 1e-12 &&
			math.Abs(quad.Eval(a, b)-(gamma*dot)*(gamma*dot)) < 1e-12 &&
			math.Abs(rbf.Eval(a, b)-math.Exp(-gamma*sq)) < 1e-12
		// Self-consistency.
		ok = ok && math.Abs(lin.Self()-lin.Eval(a, a)) < 1e-12 &&
			math.Abs(quad.Self()-quad.Eval(a, a)) < 1e-12 &&
			math.Abs(rbf.Self()-rbf.Eval(a, a)) < 1e-12
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(RBF, 0, 3); err == nil {
		t.Fatal("RBF needs gamma > 0")
	}
	if _, err := NewKernel(Linear, 0, 0); err == nil {
		t.Fatal("d must be positive")
	}
	if _, err := New(Config{Kernel: Linear, C: 0}); err == nil {
		t.Fatal("C must be positive")
	}
}

func TestLinearlySeparable(t *testing.T) {
	// y = (x0 == 1): separable by a linear kernel on one-hot features.
	ds := &ml.Dataset{Features: feats(2, 3)}
	r := rng.New(1)
	for i := 0; i < 60; i++ {
		x0 := relational.Value(i % 2)
		ds.X = append(ds.X, x0, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, int8(x0))
	}
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		cfg := Config{Kernel: kind, C: 10, Gamma: 0.5, Seed: 7}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if acc := ml.Accuracy(s, ds); acc != 1.0 {
			t.Fatalf("%v: separable accuracy %v, want 1.0", kind, acc)
		}
	}
}

func TestRBFLearnsXOR(t *testing.T) {
	// XOR: not linearly separable on one-hot features of 2 binary features
	// (one-hot makes it 4 dims where it IS separable... so use matching
	// parity over two trinary features to require a nonlinear boundary on
	// match counts). Simpler: verify RBF gets XOR right with enough C.
	ds := &ml.Dataset{Features: feats(2, 2)}
	pts := [][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []int8{0, 1, 1, 0}
	for rep := 0; rep < 10; rep++ {
		for i, p := range pts {
			ds.X = append(ds.X, p...)
			ds.Y = append(ds.Y, ys[i])
		}
	}
	s, err := New(Config{Kernel: RBF, C: 100, Gamma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(s, ds); acc != 1.0 {
		t.Fatalf("RBF XOR accuracy %v, want 1.0", acc)
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 1, 0},
		Y:        []int8{1, 1, 1},
	}
	s, err := New(Config{Kernel: RBF, C: 1, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if s.Predict([]relational.Value{1}) != 1 {
		t.Fatal("single-class fit must predict that class")
	}
}

func TestEmptyTrainRejected(t *testing.T) {
	s, err := New(Config{Kernel: Linear, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(&ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected empty-train error")
	}
}

func TestSubsampleCap(t *testing.T) {
	r := rng.New(5)
	ds := &ml.Dataset{Features: feats(2, 4)}
	for i := 0; i < 500; i++ {
		x0 := relational.Value(i % 2)
		ds.X = append(ds.X, x0, relational.Value(r.Intn(4)))
		ds.Y = append(ds.Y, int8(x0))
	}
	s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, SubsampleCap: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if s.NumSupportVectors() > 100 {
		t.Fatalf("cap violated: %d support vectors", s.NumSupportVectors())
	}
	if acc := ml.Accuracy(s, ds); acc < 0.99 {
		t.Fatalf("capped fit should still separate: accuracy %v", acc)
	}
}

func TestFKMemorization(t *testing.T) {
	// The §5 mechanism: FK functionally determines the label (via hidden
	// Xr); with several training examples per FK value, the RBF-SVM on
	// [FK] alone classifies seen FK values correctly.
	r := rng.New(13)
	const nR = 20
	labelOf := make([]int8, nR)
	for i := range labelOf {
		labelOf[i] = int8(r.Intn(2))
	}
	// ensure both classes exist
	labelOf[0], labelOf[1] = 0, 1
	ds := &ml.Dataset{Features: []ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}}
	for i := 0; i < nR*8; i++ {
		fk := relational.Value(i % nR)
		ds.X = append(ds.X, fk)
		ds.Y = append(ds.Y, labelOf[fk])
	}
	s, err := New(Config{Kernel: RBF, C: 100, Gamma: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for v := 0; v < nR; v++ {
		if s.Predict([]relational.Value{relational.Value(v)}) != labelOf[v] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("FK memorization failed on %d/%d values", wrong, nR)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r := rng.New(19)
	ds := &ml.Dataset{Features: feats(3, 3)}
	for i := 0; i < 80; i++ {
		a, b := r.Intn(3), r.Intn(3)
		ds.X = append(ds.X, relational.Value(a), relational.Value(b))
		ds.Y = append(ds.Y, int8((a+b)%2))
	}
	fit := func() []int8 {
		s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		var preds []int8
		for i := 0; i < ds.NumExamples(); i++ {
			preds = append(preds, s.Predict(ds.Row(i)))
		}
		return preds
	}
	a, b := fit(), fit()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce predictions")
		}
	}
}

// rowFit is the historical Fit, kept as the oracle the columnar pinning and
// the blocked Gram build are pinned against: every training row is copied
// out one RowInto at a time, labels are read per example, and the kernel
// cache is built pair by pair (GramRows). The SMO loop itself never forked,
// so the oracle hands its inputs to optimize. Its datasets hold both classes.
func rowFit(t *testing.T, cfg Config, train *ml.Dataset) *SVM {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(s.cfg.Seed)
	ds := train
	if s.cfg.SubsampleCap > 0 && train.NumExamples() > s.cfg.SubsampleCap {
		perm := r.Perm(train.NumExamples())
		ds = train.Subset(perm[:s.cfg.SubsampleCap])
	}
	n, d := ds.NumExamples(), ds.NumFeatures()
	rows := make([][]relational.Value, n)
	y := make([]float64, n)
	for i := range rows {
		rows[i] = ds.RowInto(make([]relational.Value, d), i)
		y[i] = -1
		if ds.Label(i) == 1 {
			y[i] = 1
		}
	}
	if s.kernel, err = NewKernel(s.cfg.Kernel, s.cfg.Gamma, d); err != nil {
		t.Fatal(err)
	}
	var kcache []float32
	if n <= gramCacheCap {
		kcache = make([]float32, n*n)
		s.kernel.GramRows(kcache, rows)
	}
	s.optimize(r, rows, y, kcache)
	return s
}

// requireSameModel fails unless want and got hold bit-identical support
// sets: the same bias, multipliers and support rows in retention order.
func requireSameModel(t *testing.T, label string, want, got *SVM) {
	t.Helper()
	if want.b != got.b {
		t.Fatalf("%s: bias diverged: %v vs %v", label, want.b, got.b)
	}
	if len(want.svAlphaY) != len(got.svAlphaY) {
		t.Fatalf("%s: support set sizes diverged: %d vs %d", label, len(want.svAlphaY), len(got.svAlphaY))
	}
	for i := range want.svAlphaY {
		if want.svAlphaY[i] != got.svAlphaY[i] {
			t.Fatalf("%s: alpha[%d] diverged: %v vs %v", label, i, want.svAlphaY[i], got.svAlphaY[i])
		}
		for j := range want.svRows[i] {
			if want.svRows[i][j] != got.svRows[i][j] {
				t.Fatalf("%s: support row %d diverged", label, i)
			}
		}
	}
}

func TestColumnarMatchesRowPath(t *testing.T) {
	// The columnar path (batched column scans + the morsel-parallel
	// match-count cache build) must produce a bit-identical model to the
	// historical row-pair path (rowFit): identical pinned rows, identical
	// kernel cache floats, so an identical SMO trajectory — on dense and
	// subset-view datasets and on the row, columnar and segmented engines.
	r := rng.New(31)
	base := &ml.Dataset{Features: feats(3, 4, 2)}
	for i := 0; i < 500; i++ {
		a, b, c := r.Intn(3), r.Intn(4), r.Intn(2)
		base.X = append(base.X, relational.Value(a), relational.Value(b), relational.Value(c))
		base.Y = append(base.Y, int8((a+b)%2))
	}
	sub := make([]int, 300)
	for i := range sub {
		sub[i] = r.Intn(500)
	}
	cases := mltest.Engines(t, base, 128)
	cases["dense"], cases["view"] = base, base.Subset(sub)
	for name, ds := range cases {
		for _, kind := range []KernelKind{Linear, RBF} {
			cfg := Config{Kernel: kind, C: 10, Gamma: 0.5, SubsampleCap: 200, Seed: 33}
			row := rowFit(t, cfg, ds)
			col, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := col.Fit(ds); err != nil {
				t.Fatal(err)
			}
			requireSameModel(t, name+"/"+kind.String(), row, col)
			buf := make([]relational.Value, ds.NumFeatures())
			for i := 0; i < ds.NumExamples(); i++ {
				rowi := ds.RowInto(buf, i)
				if row.Decision(rowi) != col.Decision(rowi) {
					t.Fatalf("%s/%v: decision diverged on example %d", name, kind, i)
				}
			}
		}
	}
}

// TestCachelessMatchesCached covers SMO's fallback beyond gramCacheCap,
// where kij evaluates the kernel per pair and f folds over every nonzero α
// in ascending j. Linear and quadratic (γ = 1) kernel values are small
// integers, exact in the float32 Gram cache, so the cacheless fit must
// equal the cached one bit for bit: same multipliers, support set and bias.
func TestCachelessMatchesCached(t *testing.T) {
	r := rng.New(41)
	ds := &ml.Dataset{Features: feats(3, 4, 2)}
	for i := 0; i < 240; i++ {
		a, b, c := r.Intn(3), r.Intn(4), r.Intn(2)
		ds.X = append(ds.X, relational.Value(a), relational.Value(b), relational.Value(c))
		y := int8((a + b) % 2)
		if r.Float64() < 0.1 {
			y = 1 - y
		}
		ds.Y = append(ds.Y, y)
	}
	fit := func(cfg Config) *SVM {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, kind := range []KernelKind{Linear, Quadratic} {
		cfg := Config{Kernel: kind, C: 10, Gamma: 1, Seed: 43}
		cached := fit(cfg)
		old := gramCacheCap
		gramCacheCap = 8
		cacheless := fit(cfg)
		gramCacheCap = old
		if cached.NumSupportVectors() == 0 {
			t.Fatalf("%v: fit retained no support vectors", kind)
		}
		requireSameModel(t, kind.String(), cached, cacheless)
	}
}

func TestNameAndKindString(t *testing.T) {
	s, _ := New(Config{Kernel: Quadratic, C: 1, Gamma: 1})
	if s.Name() != "SVM(quadratic)" {
		t.Fatalf("Name = %q", s.Name())
	}
	if Linear.String() != "linear" || RBF.String() != "rbf" || KernelKind(9).String() == "" {
		t.Fatal("kind names wrong")
	}
}

func TestGramBlockedMatchesGramRows(t *testing.T) {
	// The blocked match-count Gram build (mat.MatchCounts + lookup table,
	// parallel i-blocks) must reproduce the per-pair Eval build bit for bit
	// for every kernel kind, across sizes that exercise partial blocks.
	r := rng.New(97)
	for _, n := range []int{1, 5, 31, 70} {
		const d = 6
		block := make([]relational.Value, n*d)
		for i := range block {
			block[i] = relational.Value(r.Intn(4))
		}
		rows := make([][]relational.Value, n)
		for i := range rows {
			rows[i] = block[i*d : (i+1)*d]
		}
		for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
			k, err := NewKernel(kind, 0.3, d)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float32, n*n)
			k.GramRows(want, rows)
			got := make([]float32, n*n)
			k.GramBlocked(got, block, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v n=%d: entry (%d,%d) diverged: blocked %v vs rows %v",
						kind, n, i/n, i%n, got[i], want[i])
				}
			}
		}
	}
}

// requireBatchMatchesPredict checks PredictBatch against Predict example by
// example.
func requireBatchMatchesPredict(t *testing.T, name string, s *SVM, ds *ml.Dataset) {
	t.Helper()
	got := s.PredictBatch(ds)
	if len(got) != ds.NumExamples() {
		t.Fatalf("%s: %d batch classes for %d examples", name, len(got), ds.NumExamples())
	}
	buf := make([]relational.Value, ds.NumFeatures())
	for i := range got {
		if want := s.Predict(ds.RowInto(buf, i)); got[i] != want {
			t.Fatalf("%s: example %d batch %d, Predict %d", name, i, got[i], want)
		}
	}
}

// TestPredictBatchMatchesPredict pins the blocked batch scorer to the
// per-row Decision sign for every kernel, on the packed (16-bit codes) and
// the int32 match-count paths, and for the degenerate single-class fit.
func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rng.New(41)
	for _, wide := range []bool{false, true} {
		base := &ml.Dataset{Features: feats(3, 5, 2, 4, 70000)}
		for i := 0; i < 400; i++ {
			a, b, c, e := r.Intn(3), r.Intn(5), r.Intn(2), r.Intn(4)
			f := r.Intn(4)
			if wide {
				f = 65530 + r.Intn(10) // beyond 16 bits: int32 counts
			}
			base.X = append(base.X, relational.Value(a), relational.Value(b), relational.Value(c), relational.Value(e), relational.Value(f))
			y := int8((a + b + e) % 2)
			if r.Bernoulli(0.1) {
				y = 1 - y
			}
			base.Y = append(base.Y, y)
		}
		eval := base.Subset(r.Perm(400)[:150])
		for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
			s, err := New(Config{Kernel: kind, C: 1, Gamma: 0.2, SubsampleCap: 250, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Fit(base); err != nil {
				t.Fatal(err)
			}
			if s.NumSupportVectors() == 0 {
				t.Fatalf("%v: no support vectors", kind)
			}
			name := kind.String()
			if wide {
				name += "/int32"
			}
			requireBatchMatchesPredict(t, name+"/dense", s, base)
			requireBatchMatchesPredict(t, name+"/view", s, eval)
		}
	}
	for _, class := range []int8{0, 1} {
		ds := &ml.Dataset{Features: feats(2), X: []relational.Value{0, 1, 0}, Y: []int8{class, class, class}}
		s, err := New(Config{Kernel: RBF, C: 1, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		requireBatchMatchesPredict(t, "single-class", s, ds)
		p, err := s.ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := FromParams(p)
		if err != nil {
			t.Fatal(err)
		}
		requireBatchMatchesPredict(t, "single-class/loaded", loaded, ds)
		kernelless, err := FromParams(Params{B: float64(2*class - 1)})
		if err != nil {
			t.Fatal(err)
		}
		requireBatchMatchesPredict(t, "single-class/kernelless", kernelless, ds)
		if got := s.PredictBatch(ds); got[0] != class {
			t.Fatalf("single-class fit on class %d predicted %d", class, got[0])
		}
	}
}

// TestPredictBatchFoldOrder pins PredictBatch's fold order to Decision's: b
// first, then the support vectors in retention order. The multipliers mix
// tiny and huge magnitudes, so absorption makes the decision sign depend on
// the order of the additions and any other order flips classes here.
func TestPredictBatchFoldOrder(t *testing.T) {
	r := rng.New(67)
	const d, nsv = 4, 6
	ays := []float64{1e17, -1e17, 0.5, -0.5, 0.25, -3e16}
	ds := &ml.Dataset{Features: feats(2, 2, 2, 2)}
	for i := 0; i < 300; i++ {
		for j := 0; j < d; j++ {
			ds.X = append(ds.X, relational.Value(r.Intn(2)))
		}
		ds.Y = append(ds.Y, 0)
	}
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		for trial := 0; trial < 20; trial++ {
			p := Params{Kernel: kind, Gamma: 0.5, Dims: d, HasKernel: true, B: ays[r.Intn(len(ays))]}
			for i := 0; i < nsv; i++ {
				p.SVAlphaY = append(p.SVAlphaY, ays[r.Intn(len(ays))])
				for j := 0; j < d; j++ {
					p.SVRows = append(p.SVRows, relational.Value(r.Intn(2)))
				}
			}
			s, err := FromParams(p)
			if err != nil {
				t.Fatal(err)
			}
			requireBatchMatchesPredict(t, kind.String(), s, ds)
		}
	}
}
