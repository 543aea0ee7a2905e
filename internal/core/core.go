// Package core is the paper's contribution packaged as a library: deciding —
// from schema metadata alone — whether a key–foreign-key join can be avoided
// before training a classifier, and the experiment harness that validates
// the decision rule (Tables 2–6, Figure 1).
//
// The decision statistic is the tuple ratio n_S / n_R: the number of labeled
// examples per distinct foreign-key value. The paper's empirical findings
// give per-model-family safety thresholds:
//
//	linear models (Naive Bayes, logistic regression, linear SVM): ≈ 20×
//	RBF-SVM:                                                      ≈ 6×
//	decision trees and ANNs:                                      ≈ 3×
//
// Crucially, computing the tuple ratio needs only the dimension table's
// *cardinality* — available from schema metadata or a COUNT(*) — so a data
// scientist can decide whether to procure a table without ever seeing it.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/fault"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// recoverCorrupt converts a *relational.CorruptSegmentError panic — the
// storage layer's only way to report a bad segment read through the
// error-less Relation interface — into a returned error at the training and
// eval entry points. Any other panic is re-thrown untouched. ml.ParallelFor
// re-delivers worker panics on the calling goroutine, so this one deferred
// recover covers the morsel-parallel training paths too.
func recoverCorrupt(errp *error) {
	if r := recover(); r != nil {
		if cse, ok := r.(*relational.CorruptSegmentError); ok {
			*errp = cse
			return
		}
		panic(r)
	}
}

// Family groups classifiers by their observed robustness to avoiding joins.
type Family int

const (
	// FamilyLinear covers Naive Bayes, logistic regression, linear SVM.
	FamilyLinear Family = iota
	// FamilyRBFSVM covers kernel SVMs.
	FamilyRBFSVM
	// FamilyTreeANN covers decision trees and multilayer perceptrons.
	FamilyTreeANN
)

func (f Family) String() string {
	switch f {
	case FamilyLinear:
		return "linear"
	case FamilyRBFSVM:
		return "rbf-svm"
	case FamilyTreeANN:
		return "tree/ann"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Threshold returns the tuple-ratio safety threshold for a model family
// (§3.3: "the decision trees and ANN need six times fewer training examples
// and the RBF-SVM needs three times fewer than linear classifiers").
func Threshold(f Family) float64 {
	switch f {
	case FamilyLinear:
		return 20
	case FamilyRBFSVM:
		return 6
	case FamilyTreeANN:
		return 3
	default:
		return 20 // conservative fallback
	}
}

// Advice is the per-dimension-table recommendation of the advisor.
type Advice struct {
	Dimension  string
	TupleRatio float64
	// SafeToAvoid reports whether the join can be skipped for the family.
	SafeToAvoid bool
	// OpenFK marks a dimension reached through an open-domain foreign key:
	// its FK can never act as a representative feature, so the table can
	// never be discarded this way (Expedia's searches table).
	OpenFK bool
}

// Advise evaluates every dimension table of a star schema against the
// family's tuple-ratio threshold. This is the paper's data-sourcing
// "advisor": tables marked SafeToAvoid need not be procured at all.
func Advise(ss *relational.StarSchema, f Family) ([]Advice, error) {
	var out []Advice
	for _, fkCol := range ss.Fact.Schema().ColumnsOfKind(relational.KindForeignKey) {
		c := ss.Fact.Schema().Cols[fkCol]
		tr, err := ss.TupleRatio(c.Refs)
		if err != nil {
			return nil, err
		}
		a := Advice{Dimension: c.Refs, TupleRatio: tr, OpenFK: c.Open}
		a.SafeToAvoid = !c.Open && tr >= Threshold(f)
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: star schema has no foreign keys to advise on")
	}
	return out, nil
}

// Engine selects the physical storage strategy an experiment Env reads its
// joined relation through. All engines produce bit-identical experiment
// results (same split permutation, same cell values); they differ in memory
// layout and therefore in which access pattern is fast. The zero value is
// EngineColumnar: with every learner training column-at-a-time (NB, tree,
// logreg, SVM, ANN), sequential narrow-column scans are the hot access
// pattern, so columnar storage is the default engine.
type Engine int

const (
	// EngineColumnar (the default) evaluates the join once into a
	// relational.SegmentedTable whose single segment is larger than the
	// join, so the whole join is one width-narrowed slab per column: nothing
	// is sealed, there are no zone maps and no pager. It trades one
	// O(n_S · width) materialization pass (into storage that is typically
	// *smaller* than the fact table's row-major block, since dictionary
	// codes narrow to uint8/uint16) for sequential single-column scans on
	// the learners' batch training path.
	EngineColumnar Engine = iota
	// EngineRow keeps the factorized zero-copy pipeline: the join stays a
	// JoinView over the row-major base tables, nothing is materialized, and
	// cell accesses resolve the FK indirection lazily. It remains the right
	// choice when data is scanned only a bounded number of times and the
	// one-time columnar materialization would dominate.
	EngineRow
	// EngineSegmented evaluates the join into the same table type as
	// EngineColumnar, configured by SegmentDefaults: partitioned into
	// fixed-size immutable segments with per-segment zone maps. Training
	// morsels fan out segment-per-task, selective scans skip segments their
	// zone maps prove irrelevant, and — with SegmentDefaults.SpillDir set —
	// sealed segments spill to a heap file under an LRU cache budget so fact
	// tables larger than RAM still train, bit-identically.
	EngineSegmented
)

func (e Engine) String() string {
	switch e {
	case EngineRow:
		return "row"
	case EngineColumnar:
		return "col"
	case EngineSegmented:
		return "seg"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses the -engine flag values "row", "col", and "seg".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "row":
		return EngineRow, nil
	case "col", "columnar":
		return EngineColumnar, nil
	case "seg", "segmented":
		return EngineSegmented, nil
	default:
		return EngineColumnar, fmt.Errorf("core: unknown storage engine %q (want row, col, or seg)", s)
	}
}

// SegmentDefaults configures every SegmentedTable the EngineSegmented env
// constructor builds: segment size, spill directory, and cache budget.
// cmd/hamlet's -segsize / -spilldir / -cachebytes flags write it before any
// env exists; the zero value means in-memory segments of
// relational.DefaultSegmentSize rows.
var SegmentDefaults relational.SegmentOptions

// Env is a dataset prepared for experiments: the (factorized) join of a
// star schema and the paper's fixed 50/25/25 train/validation/test split of
// it. By default Joined is a single-segment relational.SegmentedTable — the
// factorized join is evaluated once into width-narrowed struct-of-arrays
// storage; the split parts are index views over it and every batched
// ScanFeature a learner issues bottoms out in a sequential scan of one
// narrow column. EngineRow keeps the zero-copy JoinView pipeline (the joined
// table never exists physically, FK indirection resolves per access) and
// EngineSegmented the chunked, optionally spilled one (see NewEnvEngine).
// All yield bit-identical results.
type Env struct {
	Star      *relational.StarSchema
	Joined    relational.Relation
	TargetCol int
	Split     relational.Split

	// spillDir/fs are set on EngineSegmented when the out-of-core tier is
	// active; Close sweeps the directory for orphaned heap files with them.
	spillDir string
	fs       fault.FS
}

// NewEnv prepares the experiment Env on the default storage engine
// (EngineColumnar). The split is seeded and retained, mirroring the paper's
// "pre-split, retained as is" protocol.
func NewEnv(ss *relational.StarSchema, seed uint64) (*Env, error) {
	return NewEnvEngine(ss, seed, EngineColumnar)
}

// NewEnvEngine builds the Env on the chosen storage engine — the seam
// cmd/hamlet's -engine flag plugs into. Every engine starts from the
// factorized join view:
//
//   - EngineRow keeps it as the zero-copy pipeline: the lazy split views sit
//     directly on the relational.JoinView, so no joined storage of any
//     layout is ever materialized;
//   - EngineColumnar evaluates it once into a relational.SegmentedTable with
//     one segment larger than the join, so every ScanFeature a learner
//     issues bottoms out in a sequential scan of one narrow column vector;
//   - EngineSegmented evaluates it once, segment-chunk-at-a-time, into a
//     relational.SegmentedTable configured by SegmentDefaults. With a spill
//     directory the joined relation lives mostly on disk; the caller owns
//     the table's lifetime (Env.Close releases the heap file and sweeps the
//     spill directory for orphans). A failure after the table exists closes
//     it, so no error path strands a heap file.
func NewEnvEngine(ss *relational.StarSchema, seed uint64, engine Engine) (*Env, error) {
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		return nil, err
	}
	var opts relational.SegmentOptions
	switch engine {
	case EngineRow:
		return newEnvOver(ss, jv, seed)
	case EngineSegmented:
		opts = SegmentDefaults
	default:
		// The smallest power of two above the row count: the open tail
		// never fills, and row lookups keep their shift/mask path.
		opts.SegmentSize = 1 << bits.Len(uint(jv.NumRows()))
	}
	joined, err := relational.MaterializeSegmented(jv, ss.Fact.Name+"_joined", opts)
	if err != nil {
		return nil, err
	}
	env, err := newEnvOver(ss, joined, seed)
	if err != nil {
		joined.Close()
		return nil, err
	}
	env.spillDir, env.fs = opts.SpillDir, opts.FS
	return env, nil
}

// newEnvOver splits any joined relation. The seeded permutation depends only
// on seed and row count, so lazy and materialized envs see identical splits.
func newEnvOver(ss *relational.StarSchema, joined relational.Relation, seed uint64) (*Env, error) {
	targetCol := joined.Schema().ColumnsOfKind(relational.KindTarget)[0]
	split, err := relational.PaperSplit(joined, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return &Env{Star: ss, Joined: joined, TargetCol: targetCol, Split: split}, nil
}

// Close releases resources the joined relation holds — the segmented
// engine's spill heap file — and, when a spill directory is configured,
// sweeps it for orphaned heap and temp files left by error-aborted or
// crashed earlier runs. Envs on the other engines need no Close and treat
// it as a no-op. The env must not be read afterwards.
func (e *Env) Close() error {
	var err error
	if st, ok := e.Joined.(*relational.SegmentedTable); ok {
		err = st.Close()
	}
	if e.spillDir != "" {
		fsys := e.fs
		if fsys == nil {
			fsys = fault.OS
		}
		if _, serr := relational.SweepOrphans(fsys, e.spillDir); err == nil {
			err = serr
		}
	}
	return err
}

// ViewSplits builds the train/validation/test datasets for a feature view,
// optionally omitting specific dimension tables' foreign features.
func (e *Env) ViewSplits(v ml.View, omitDims map[string]bool) (train, val, test *ml.Dataset, err error) {
	cols := ml.ViewColumns(e.Joined, v, omitDims)
	if len(cols) == 0 {
		return nil, nil, nil, fmt.Errorf("core: view %v selects no features", v)
	}
	tc := e.TargetCol
	if train, err = ml.FromTable(e.Split.Train, cols, tc); err != nil {
		return nil, nil, nil, err
	}
	if val, err = ml.FromTable(e.Split.Validation, cols, tc); err != nil {
		return nil, nil, nil, err
	}
	if test, err = ml.FromTable(e.Split.Test, cols, tc); err != nil {
		return nil, nil, nil, err
	}
	return train, val, test, nil
}

// Result is the outcome of one (model, view) experiment cell — one entry of
// Tables 2/3 (test accuracy) with its Table 5/6 companion (train accuracy)
// and Figure 1 companion (wall-clock).
type Result struct {
	Model     string
	View      ml.View
	TestAcc   float64
	TrainAcc  float64
	ValAcc    float64
	BestPoint ml.GridPoint
	Elapsed   time.Duration
}

// Run executes one experiment cell: hyper-parameter search on the
// train/validation splits of the requested view, then evaluation on the
// holdout test split. Elapsed covers the entire tune+train+test pipeline,
// which is what Figure 1 times.
func Run(e *Env, v ml.View, spec Spec, seed uint64) (Result, error) {
	return RunOmit(e, v, nil, spec, seed)
}

// RunOmit is Run with extra dimension omissions (the Table 4 robustness
// sweep drops dimension tables one and two at a time). A corrupt spilled
// segment surfaces as a returned *relational.CorruptSegmentError, never as
// silently wrong training data.
func RunOmit(e *Env, v ml.View, omitDims map[string]bool, spec Spec, seed uint64) (res Result, err error) {
	defer recoverCorrupt(&err)
	train, val, test, err := e.ViewSplits(v, omitDims)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	c, point, valAcc, err := spec.Train(train, val, seed)
	if err != nil {
		return Result{}, fmt.Errorf("core: %s/%v: %w", spec.Name, v, err)
	}
	testAcc := ml.Accuracy(c, test)
	elapsed := time.Since(start)
	return Result{
		Model:     spec.Name,
		View:      v,
		TestAcc:   testAcc,
		TrainAcc:  ml.Accuracy(c, train),
		ValAcc:    valAcc,
		BestPoint: point,
		Elapsed:   elapsed,
	}, nil
}

// RobustnessRow is one row of the Table 4 sweep: which dimensions were
// omitted and the resulting test accuracy.
type RobustnessRow struct {
	Omitted []string
	TestAcc float64
}

// RobustnessSweep reproduces Table 4: starting from JoinAll, drop dimension
// tables one at a time (and, when the schema has at least three dimensions,
// two at a time, as the paper does for Flights), plus the all-dropped NoJoin
// row and the baseline JoinAll row.
func RobustnessSweep(e *Env, spec Spec, seed uint64) ([]RobustnessRow, error) {
	dims := e.Star.DimensionNames()
	var rows []RobustnessRow

	run := func(omit []string) error {
		omitSet := make(map[string]bool, len(omit))
		for _, d := range omit {
			omitSet[d] = true
		}
		res, err := RunOmit(e, ml.JoinAll, omitSet, spec, seed)
		if err != nil {
			return err
		}
		rows = append(rows, RobustnessRow{Omitted: omit, TestAcc: res.TestAcc})
		return nil
	}

	if err := run(nil); err != nil { // JoinAll baseline
		return nil, err
	}
	for _, d := range dims {
		if err := run([]string{d}); err != nil {
			return nil, err
		}
	}
	if len(dims) >= 3 {
		for i := 0; i < len(dims); i++ {
			for j := i + 1; j < len(dims); j++ {
				if err := run([]string{dims[i], dims[j]}); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := run(append([]string(nil), dims...)); err != nil { // ≡ NoJoin
		return nil, err
	}
	return rows, nil
}

// RuntimeComparison reports the Figure 1 measurement for one model on one
// dataset: end-to-end wall-clock under JoinAll vs NoJoin and the speedup.
type RuntimeComparison struct {
	Model   string
	JoinAll time.Duration
	NoJoin  time.Duration
}

// Speedup returns JoinAll time / NoJoin time.
func (rc RuntimeComparison) Speedup() float64 {
	if rc.NoJoin <= 0 {
		return 0
	}
	return float64(rc.JoinAll) / float64(rc.NoJoin)
}

// RuntimeStudy times the full tune+train+test pipeline under both views.
func RuntimeStudy(e *Env, spec Spec, seed uint64) (RuntimeComparison, error) {
	ja, err := Run(e, ml.JoinAll, spec, seed)
	if err != nil {
		return RuntimeComparison{}, err
	}
	nj, err := Run(e, ml.NoJoin, spec, seed)
	if err != nil {
		return RuntimeComparison{}, err
	}
	return RuntimeComparison{Model: spec.Name, JoinAll: ja.Elapsed, NoJoin: nj.Elapsed}, nil
}
