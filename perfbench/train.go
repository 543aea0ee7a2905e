package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/relational"
)

// Input sizes. Flights at scale 4 has 16,637 fact rows; at scale 1 it has
// 66,548, which the segmented engine seals into two segments of about
// 1.44 MB plus a tail. The out-of-core cache holds one sealed segment, so the
// working set is about twice the cache.
const (
	trainDataset  = "Flights"
	trainScale    = 4
	oocScale      = 1
	oocCacheBytes = 1_600_000
)

// A run sets up at least setupRepeats times and until setupMinTime has
// passed; setup_s is the median. Cheap set-ups repeat more, so their median
// is as steady as that of the expensive ones.
const (
	setupRepeats = 3
	setupMinTime = time.Second
)

// setupMedian runs build repeatedly (see setupRepeats), reports the median
// wall time as setup_s, releases every result but the last, and returns the
// last.
func setupMedian[T any](b *bench, build func() (T, error), release func(T)) (T, error) {
	var cur T
	var times []float64
	start := time.Now()
	for i := 0; i < setupRepeats || time.Since(start) < setupMinTime; i++ {
		t0 := time.Now()
		next, err := build()
		if err != nil {
			return cur, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			release(cur)
		}
		cur = next
	}
	s := summarize(times)
	b.set("setup_s", s.Median, "s")
	b.reportf("setup_s %s", s)
	return cur, nil
}

// generate builds a dataset's star schema.
func generate(name string, scale int, seed uint64) (*relational.StarSchema, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return dataset.Generate(spec, scale, seed)
}

// trainMeta is the provenance hamlet -train writes into an artifact.
func trainMeta(scale int, engine core.Engine) map[string]string {
	return map[string]string{
		core.MetaDataset: trainDataset,
		core.MetaScale:   strconv.Itoa(scale),
		core.MetaEngine:  engine.String(),
	}
}

// payload is an artifact's bytes with its metadata stripped, as hamlet
// -modeldiff compares them: equal payloads are identical fitted models.
func payload(m *model.Model) ([]byte, error) {
	stripped := *m
	stripped.Meta = nil
	var buf bytes.Buffer
	if err := model.Encode(&buf, &stripped); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkReload is the train workload's check: the saved artifact reloads and
// scores the build's holdout accuracy.
func checkReload(env *core.Env, path string, res core.Result) error {
	loaded, err := model.Load(path)
	if err != nil {
		return err
	}
	acc, err := core.EvalArtifact(env, loaded)
	if err != nil {
		return err
	}
	if acc != res.TestAcc {
		return fmt.Errorf("reloaded artifact scores %v, build reported %v", acc, res.TestAcc)
	}
	return nil
}

// checkPayload is the train-ooc workload's check: the artifact equals the
// in-memory columnar artifact of the same spec and seed.
func checkPayload(m *model.Model, want []byte) error {
	got, err := payload(m)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("artifact payload (%d bytes) differs from the in-memory columnar artifact (%d bytes)", len(got), len(want))
	}
	return nil
}

// buildSave is one timed operation: core.BuildArtifact + model.Save, as
// hamlet -train runs them.
func buildSave(env *core.Env, l learner, seed uint64, meta map[string]string, path string) (*model.Model, core.Result, cost, error) {
	spec, err := l.spec()
	if err != nil {
		return nil, core.Result{}, cost{}, err
	}
	// Each build starts from a collected heap, as in a fresh hamlet -train
	// process, so garbage left by the previous build is not charged to it.
	runtime.GC()
	var m *model.Model
	var res core.Result
	c := measureCost(func() {
		m, res, err = core.BuildArtifact(env, spec, seed, meta)
		if err == nil {
			err = model.Save(path, m)
		}
	})
	return m, res, c, err
}

// buildInput is one dataset the builds read: its seed, which also seeds the
// split and the learners as hamlet -train -seed does, and its env.
type buildInput struct {
	seed uint64
	env  *core.Env
}

// buildCheck is a workload's check of one saved artifact.
type buildCheck func(in buildInput, l learner, path string, m *model.Model, res core.Result) error

// buildLoop builds and saves each spec on the first inputsOf(spec) inputs in
// turn, in cycles (see bench.cycles), and checks each artifact. A spec's
// build time is the mean over those inputs of the median build time on
// each; op_ms and op_cpu_ms are the sums of the specs' build wall and CPU
// times, one build + save of every spec. A spec without a build on every
// input leaves both out.
func buildLoop(b *bench, inputs []buildInput, specs []learner, inputsOf func(learner) int,
	meta map[string]string, check buildCheck) {
	samples := map[string][][]cost{}
	for _, l := range specs {
		samples[l.short] = make([][]cost, inputsOf(l))
	}
	b.cycles(func() {
		for _, l := range specs {
			for k, in := range inputs[:inputsOf(l)] {
				path := filepath.Join(b.dir, l.short+".bin")
				m, res, c, err := buildSave(in.env, l, in.seed, meta, path)
				if err == nil {
					err = check(in, l, path, m, res)
				}
				b.op(fmt.Sprintf("build %s on input %d", l.short, k), err)
				if err == nil {
					samples[l.short][k] = append(samples[l.short][k], c)
				}
			}
		}
	})
	var wall, cpu float64
	for _, l := range specs {
		var all, medians, cpuMedians []float64
		for _, cs := range samples[l.short] {
			if len(cs) > 0 {
				walls, cpus := costSeconds(cs)
				all = append(all, walls...)
				medians, cpuMedians = append(medians, medianOf(walls)), append(cpuMedians, medianOf(cpus))
			}
		}
		if len(medians) < inputsOf(l) {
			return
		}
		wall, cpu = wall+mean(medians), cpu+mean(cpuMedians)
		b.reportf("%s_s %.4f (cpu %.4f): mean over %d inputs of the median build, per input %.4v; all builds %s",
			l.short, mean(medians), mean(cpuMedians), len(medians), medians, summarize(all))
	}
	b.setOp(wall, cpu)
}

// trainInputs is how many datasets each spec is built on in one train run.
// Build times depend on the data as much as on the code, and more for some
// specs than others: over Flights datasets at scale 4, NaiveBayes(BFS) runs a
// data-dependent number of elimination rounds and its build time ranges over
// 2.5×, while SVM(rbf) and ANN(MLP) stay within a few percent. Each spec is
// built on enough of the seed's datasets that its mean varies little from
// seed to seed, and no more, so the run stays short.
var trainInputs = map[string]int{"nb": 16, "tree": 8, "svm": 2, "ann": 2, "logreg": 6}

func trainInputsOf(l learner) int { return trainInputs[l.short] }

// maxTrainInputs is how many datasets the train workload generates.
func maxTrainInputs() int {
	n := 0
	for _, k := range trainInputs {
		n = max(n, k)
	}
	return n
}

// subSeeds derives n dataset seeds from a run's seed; different run seeds
// never share a dataset.
func subSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for k := range out {
		out[k] = seed*uint64(n) + uint64(k)
	}
	return out
}

// trainEnvs generates the train workload's inputs: Flights at scale 4 on the
// default in-memory columnar engine, once per sub-seed.
func trainEnvs(seed uint64) ([]buildInput, error) {
	var out []buildInput
	for _, s := range subSeeds(seed, maxTrainInputs()) {
		ss, err := generate(trainDataset, trainScale, s)
		if err != nil {
			return nil, err
		}
		env, err := core.NewEnvEngine(ss, s, core.EngineColumnar)
		if err != nil {
			return nil, err
		}
		out = append(out, buildInput{s, env})
	}
	return out, nil
}

func measureTrain(b *bench) error {
	inputs, err := setupMedian(b, func() ([]buildInput, error) { return trainEnvs(b.seed) }, func([]buildInput) {})
	if err != nil {
		return err
	}
	b.reportf("input: %d datasets of %s scale %d, %d fact rows each, engine col",
		len(inputs), trainDataset, trainScale, inputs[0].env.Joined.NumRows())
	buildLoop(b, inputs, trainSpecs, trainInputsOf, trainMeta(trainScale, core.EngineColumnar),
		func(in buildInput, _ learner, path string, _ *model.Model, res core.Result) error {
			return checkReload(in.env, path, res)
		})
	return nil
}

// oocInput is the train-ooc workload's input: one generated schema, the
// spilled segmented env the builds read, and the in-memory columnar
// reference payloads they must reproduce.
type oocInput struct {
	env  *core.Env
	refs map[string][]byte
}

var oocSpecs = []learner{treeSpec, logregSpec}

// oocSetup generates Flights at scale 1, builds the reference artifacts on
// the in-memory columnar engine, and materialises the spilled segmented env
// under a cache that holds one sealed segment. rec, when set, records the
// generate and env-build spans.
func oocSetup(b *bench, rec *recorder) (*oocInput, error) {
	var ss *relational.StarSchema
	var col, seg *core.Env
	err := traceStep(rec, "dataset.generate", func() (err error) {
		ss, err = generate(trainDataset, oocScale, b.seed)
		return err
	})
	if err == nil {
		err = traceStep(rec, "relational.env_build", func() (err error) {
			col, err = core.NewEnvEngine(ss, b.seed, core.EngineColumnar)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	in := &oocInput{refs: map[string][]byte{}}
	for _, l := range oocSpecs {
		spec, err := l.spec()
		if err != nil {
			return nil, err
		}
		m, _, err := core.BuildArtifact(col, spec, b.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", l.short, err)
		}
		if in.refs[l.short], err = payload(m); err != nil {
			return nil, err
		}
	}
	spill, err := os.MkdirTemp(b.dir, "spill-")
	if err != nil {
		return nil, err
	}
	core.SegmentDefaults = relational.SegmentOptions{SpillDir: spill, CacheBytes: oocCacheBytes}
	err = traceStep(rec, "relational.env_build", func() (err error) {
		seg, err = core.NewEnvEngine(ss, b.seed, core.EngineSegmented)
		return err
	})
	if err != nil {
		return nil, err
	}
	st, ok := seg.Joined.(*relational.SegmentedTable)
	if !ok || !st.Spilled() {
		seg.Close()
		return nil, errors.New("train-ooc: the segmented env did not spill")
	}
	in.env = seg
	return in, nil
}

// traceStep runs f inside a root span when rec is set.
func traceStep(rec *recorder, name string, f func() error) error {
	if rec == nil {
		return f()
	}
	return rec.timed(name, "setup", 0, f)
}

func (in *oocInput) close() {
	in.env.Close()
}

func (b *bench) reportOOCInput(in *oocInput) {
	st := in.env.Joined.(*relational.SegmentedTable)
	b.reportf("input: %s scale %d, %d fact rows, %d segments of %d rows spilled, cache %d bytes",
		trainDataset, oocScale, st.NumRows(), st.NumSegments(), st.SegmentSize(), oocCacheBytes)
}

func measureTrainOOC(b *bench) error {
	in, err := setupMedian(b, func() (*oocInput, error) { return oocSetup(b, nil) }, (*oocInput).close)
	if err != nil {
		return err
	}
	defer in.close()
	b.reportOOCInput(in)
	before := readSegCounters()
	buildLoop(b, []buildInput{{b.seed, in.env}}, oocSpecs, func(learner) int { return 1 }, trainMeta(oocScale, core.EngineSegmented),
		func(_ buildInput, l learner, _ string, m *model.Model, _ core.Result) error {
			return checkPayload(m, in.refs[l.short])
		})
	after := readSegCounters()
	b.reportf("segment cache: %d hits, %d misses, %d evictions, %d bytes faulted",
		after.hits-before.hits, after.misses-before.misses, after.evictions-before.evictions, after.faulted-before.faulted)
	return nil
}

// tracedBuild is core.BuildArtifact + model.Save decomposed into the public
// calls BuildArtifact makes, each inside a span under one "build" root:
// Env.ViewSplits, Spec.Train, ml.Accuracy on the test and train splits,
// model.New and model.Save. The returned model must equal BuildArtifact's.
type builtTrace struct {
	m      *model.Model
	res    core.Result
	c      ml.Classifier
	val    *ml.Dataset
	root   int
	phases map[string]obs.PhaseTotals
}

func tracedBuild(rec *recorder, env *core.Env, l learner, seed uint64, extra map[string]string, path string) (*builtTrace, error) {
	spec, err := l.spec()
	if err != nil {
		return nil, err
	}
	op := "build:" + l.short
	bt := &builtTrace{root: rec.begin("build", op, 0)}
	defer rec.end(bt.root)
	var train, val, test *ml.Dataset
	if err := rec.timed("core.view_splits", op, bt.root, func() (err error) {
		train, val, test, err = env.ViewSplits(ml.JoinAll, nil)
		return err
	}); err != nil {
		return nil, err
	}
	bt.val = val
	var point ml.GridPoint
	var valAcc float64
	before := obs.TrainPhases()
	if err := rec.timed("core.spec_train", op, bt.root, func() (err error) {
		bt.c, point, valAcc, err = spec.Train(train, val, seed)
		return err
	}); err != nil {
		return nil, err
	}
	bt.phases = phaseDelta(before, obs.TrainPhases())
	bt.res = core.Result{Model: spec.Name, View: ml.JoinAll, ValAcc: valAcc, BestPoint: point}
	rec.timed("ml.test_score", op, bt.root, func() error { bt.res.TestAcc = ml.Accuracy(bt.c, test); return nil })
	rec.timed("ml.train_score", op, bt.root, func() error { bt.res.TrainAcc = ml.Accuracy(bt.c, train); return nil })
	meta := map[string]string{
		core.MetaSpec:    spec.Name,
		core.MetaSeed:    strconv.FormatUint(seed, 10),
		core.MetaView:    ml.JoinAll.String(),
		core.MetaValAcc:  strconv.FormatFloat(valAcc, 'g', -1, 64),
		core.MetaTestAcc: strconv.FormatFloat(bt.res.TestAcc, 'g', -1, 64),
	}
	for k, v := range extra {
		meta[k] = v
	}
	if err := rec.timed("model.new", op, bt.root, func() (err error) {
		bt.m, err = model.New(bt.c, train.Features, meta)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.timed("model.save", op, bt.root, func() error { return model.Save(path, bt.m) }); err != nil {
		return nil, err
	}
	return bt, nil
}

// traceBuilds runs the traced pass over the specs, then one untraced pass
// (BuildArtifact + Save per spec), checks that each traced build saved the
// same artifact as the untraced one, and reports every build layer, the
// parts of each build, and the tracing overhead. The traced pass runs first
// so the segment cache counters it reports start from the state set-up
// leaves, as the measured loop's first pass does. check is the workload's
// own output check, applied to the traced build's artifact.
func traceBuilds(b *bench, rec *recorder, in buildInput, specs []learner, meta map[string]string, check buildCheck) error {
	segBefore := readSegCounters()
	built := map[string]*builtTrace{}
	var wallUntraced, wallTraced time.Duration
	for _, l := range specs {
		path := filepath.Join(b.dir, l.short+".traced.bin")
		bt, err := tracedBuild(rec, in.env, l, in.seed, meta, path)
		if err != nil {
			return fmt.Errorf("traced %s: %w", l.short, err)
		}
		built[l.short] = bt
		total, parts := breakdown(rec.snapshot(), bt.root)
		wallTraced += total
		b.reportBreakdown(l.short, total, parts)
		b.set("build.wall_s."+l.short, total.Seconds(), "s")
		b.set("build.unattributed_s."+l.short, parts[len(parts)-1].Dur.Seconds(), "s")
		b.addPhases(bt.phases)
		for _, p := range parts {
			switch p.Name {
			case "core.view_splits":
				b.add("core.view_splits_s", p.Dur.Seconds())
			case "core.spec_train":
				b.add("core.spec_train_s."+l.short, p.Dur.Seconds())
			case "ml.test_score":
				b.add("ml.test_score_s."+l.short, p.Dur.Seconds())
			case "ml.train_score":
				b.add("ml.train_score_s."+l.short, p.Dur.Seconds())
			case "model.save":
				b.add("model.save_s", p.Dur.Seconds())
			}
		}
		if fi, err := os.Stat(path); err == nil {
			b.set("model.artifact_bytes."+l.short, float64(fi.Size()), "bytes")
		}
	}
	b.setSegCache(segBefore, readSegCounters())

	for _, l := range specs {
		bt := built[l.short]
		m, _, c, err := buildSave(in.env, l, in.seed, meta, filepath.Join(b.dir, l.short+".bin"))
		wallUntraced += c.wall
		if err == nil {
			var want []byte
			if want, err = payload(m); err == nil {
				err = checkPayload(bt.m, want)
			}
		}
		if err == nil {
			err = check(in, l, filepath.Join(b.dir, l.short+".traced.bin"), bt.m, bt.res)
		}
		b.op("traced build "+l.short, err)
	}
	b.set("trace_overhead", wallTraced.Seconds()/wallUntraced.Seconds(), "ratio")

	// Probes outside the builds: the validation split scored once more with
	// the returned classifier (Spec.Train scores it internally), and each
	// saved artifact loaded back.
	for _, l := range specs {
		bt := built[l.short]
		op := "probe:" + l.short
		id := rec.begin("ml.val_score", op, 0)
		ml.Accuracy(bt.c, bt.val)
		b.add("ml.val_score_s."+l.short, rec.end(id).Seconds())
		id = rec.begin("model.load", op, 0)
		_, err := model.Load(filepath.Join(b.dir, l.short+".traced.bin"))
		b.add("model.load_s", rec.end(id).Seconds())
		b.op("load "+l.short, err)
	}
	return nil
}

// reportBreakdown prints one build's parts; they sum to its traced wall time.
func (b *bench) reportBreakdown(label string, total time.Duration, parts []part) {
	line := fmt.Sprintf("build %s %.4fs =", label, total.Seconds())
	var sum time.Duration
	for i, p := range parts {
		sep := " +"
		if i == 0 {
			sep = ""
		}
		line += fmt.Sprintf("%s %s %.4fs", sep, p.Name, p.Dur.Seconds())
		sum += p.Dur
	}
	b.reportf("%s (sum %.4fs)", line, sum.Seconds())
}

func traceTrain(b *bench, rec *recorder) error {
	b.zeroPerLayer()
	// The traced run builds on the first of the run's datasets.
	in := buildInput{seed: subSeeds(b.seed, maxTrainInputs())[0]}
	var ss *relational.StarSchema
	err := traceStep(rec, "dataset.generate", func() (err error) {
		ss, err = generate(trainDataset, trainScale, in.seed)
		return err
	})
	if err == nil {
		err = traceStep(rec, "relational.env_build", func() (err error) {
			in.env, err = core.NewEnvEngine(ss, in.seed, core.EngineColumnar)
			return err
		})
	}
	if err != nil {
		return err
	}
	b.set("dataset.generate_s", rec.totals("dataset.generate"), "s")
	b.set("relational.env_build_s", rec.totals("relational.env_build"), "s")
	return traceBuilds(b, rec, in, trainSpecs, trainMeta(trainScale, core.EngineColumnar),
		func(in buildInput, _ learner, path string, _ *model.Model, res core.Result) error {
			return checkReload(in.env, path, res)
		})
}

func traceTrainOOC(b *bench, rec *recorder) error {
	b.zeroPerLayer()
	in, err := oocSetup(b, rec)
	if err != nil {
		return err
	}
	defer in.close()
	b.reportOOCInput(in)
	b.set("dataset.generate_s", rec.totals("dataset.generate"), "s")
	b.set("relational.env_build_s", rec.totals("relational.env_build"), "s")
	return traceBuilds(b, rec, buildInput{b.seed, in.env}, oocSpecs, trainMeta(oocScale, core.EngineSegmented),
		func(_ buildInput, l learner, _ string, m *model.Model, _ core.Result) error {
			return checkPayload(m, in.refs[l.short])
		})
}
