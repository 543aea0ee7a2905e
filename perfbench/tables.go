package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/relational"
)

// tablesScale is the scale hamlet -table runs the reproduction at here:
// seven schemas, 1-NN included, in seconds per table.
const tablesScale = 256

// table4Reps is how many times each pass regenerates Table 4, which takes a
// tenth of a second, so its median rests on as many samples as the others.
const table4Reps = 4

// treeGapPoints is the paper's tolerance for the gini tree's NoJoin test
// accuracy against JoinAll, the claim repro_test.go asserts.
const treeGapPoints = 0.015

// treeGapLimit is the largest JoinAll − NoJoin gap the tables check allows
// on a test split of n rows where JoinAll scores p: the paper's 1.5 points
// plus two standard errors of the accuracy estimate. At scale 256 Expedia's
// test split has about 920 rows, one standard error is about 1.3 points, and
// over seeds 1–30 the gap ranges from −1.74 to +1.85 points with every other
// dataset at exactly 0, so 1.5 points alone fails on sampling noise.
func treeGapLimit(n int, p float64) float64 {
	return treeGapPoints + 2*math.Sqrt(p*(1-p)/float64(n))
}

func tablesOptions(seed uint64, out io.Writer) experiments.Options {
	return experiments.Options{
		Scale: tablesScale, Effort: core.EffortFast, SVMCap: svmCap,
		Seed: seed, Engine: core.EngineColumnar, Out: out,
	}
}

// tableRun is one regeneration's output: cells (Tables 2–3) or sweep rows
// (Table 4), and the rendered text.
type tableRun struct {
	cells []experiments.AccuracyCell
	rows  []experiments.Table4Row
	text  string
}

// regenerate runs one table exactly as hamlet -table N does.
func regenerate(table int, seed uint64) (tableRun, error) {
	var buf bytes.Buffer
	o := tablesOptions(seed, &buf)
	var r tableRun
	var err error
	switch table {
	case 2:
		r.cells, err = experiments.Table2(o)
	case 3:
		r.cells, err = experiments.Table3(o)
	case 4:
		r.rows, err = experiments.Table4(o)
	default:
		err = fmt.Errorf("no table %d", table)
	}
	r.text = buf.String()
	return r, err
}

// checkSame is the cross-pass check: a table regenerates to the same cells
// and the same bytes.
func checkSame(got, first tableRun) error {
	if !reflect.DeepEqual(got.cells, first.cells) || !reflect.DeepEqual(got.rows, first.rows) {
		return fmt.Errorf("cells differ from the first regeneration")
	}
	if got.text != first.text {
		return fmt.Errorf("rendered table differs from the first regeneration")
	}
	return nil
}

// checkTreeGap checks the paper's tree claim on Table 2's cells: the gini
// tree's NoJoin accuracy is within treeGapLimit of JoinAll on every dataset
// except Yelp, whose tuple ratio is below the tree threshold. testRows gives
// each dataset's test split size.
func checkTreeGap(cells []experiments.AccuracyCell, testRows map[string]int) error {
	acc := map[string]map[ml.View]float64{}
	for _, c := range cells {
		if c.Model != "DecisionTree(gini)" {
			continue
		}
		if acc[c.Dataset] == nil {
			acc[c.Dataset] = map[ml.View]float64{}
		}
		acc[c.Dataset][c.View] = c.TestAcc
	}
	if len(acc) == 0 {
		return fmt.Errorf("no gini tree cells")
	}
	for ds, v := range acc {
		if ds == "Yelp" {
			continue
		}
		ja, okJA := v[ml.JoinAll]
		nj, okNJ := v[ml.NoJoin]
		if !okJA || !okNJ || testRows[ds] == 0 {
			return fmt.Errorf("%s: gini tree lacks a JoinAll or NoJoin cell or a test split", ds)
		}
		if gap, limit := ja-nj, treeGapLimit(testRows[ds], ja); gap > limit {
			return fmt.Errorf("%s: gini tree NoJoin %.4f lags JoinAll %.4f by %.4f > %.4f", ds, nj, ja, gap, limit)
		}
	}
	return nil
}

// testRows maps each input's dataset to its test split size.
func testRows(inputs []tablesInput) map[string]int {
	out := map[string]int{}
	for _, in := range inputs {
		out[in.name] = in.env.Split.Test.NumRows()
	}
	return out
}

// tablesInput is one dataset of the reproduction, generated and joined with
// the seeds package experiments derives from the run's seed.
type tablesInput struct {
	name string
	env  *core.Env
}

// hashName is package experiments' per-dataset seed offset (FNV-1a).
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// tablesSetup generates and joins the seven schemas the tables read, with
// experiments' seed derivation; the traced replay scores these envs.
func tablesSetup(seed uint64, rec *recorder) ([]tablesInput, error) {
	var out []tablesInput
	for _, name := range experiments.DatasetNames() {
		in := tablesInput{name: name}
		var ss *relational.StarSchema
		err := traceStep(rec, "dataset.generate", func() (err error) {
			ss, err = generate(name, tablesScale, seed+hashName(name))
			return err
		})
		if err == nil {
			err = traceStep(rec, "relational.env_build", func() (err error) {
				in.env, err = core.NewEnvEngine(ss, seed^0x5ca1ab1e, core.EngineColumnar)
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, in)
	}
	return out, nil
}

func measureTables(b *bench) error {
	inputs, err := setupMedian(b, func() ([]tablesInput, error) { return tablesSetup(b.seed, nil) }, func([]tablesInput) {})
	if err != nil {
		return err
	}
	rows := testRows(inputs)
	first := map[int]tableRun{}
	samples := map[int][]cost{}
	b.cycles(func() {
		for _, table := range []int{2, 3, 4} {
			reps := 1
			if table == 4 {
				reps = table4Reps
			}
			for i := 0; i < reps; i++ {
				runtime.GC()
				var r tableRun
				var err error
				c := measureCost(func() { r, err = regenerate(table, b.seed) })
				if err == nil && table == 2 {
					err = checkTreeGap(r.cells, rows)
				}
				if err == nil {
					if f, ok := first[table]; ok {
						err = checkSame(r, f)
					} else {
						first[table] = r
					}
				}
				b.op(fmt.Sprintf("table %d", table), err)
				if err == nil {
					samples[table] = append(samples[table], c)
				}
			}
		}
	})
	// The operation is one regeneration of all three tables: the sums of
	// their median wall and CPU times.
	var wall, cpu float64
	for _, table := range []int{2, 3, 4} {
		if len(samples[table]) == 0 {
			return nil
		}
		walls, cpus := costSeconds(samples[table])
		s := summarize(walls)
		wall, cpu = wall+s.Median, cpu+medianOf(cpus)
		b.reportf("table%d_s %s, cpu p50 %.4g", table, s, medianOf(cpus))
	}
	b.setOp(wall, cpu)
	return nil
}

// cellKey identifies one Tables 2–3 cell.
type cellKey struct {
	dataset, model string
	view           ml.View
}

// rosterEntry is one spec of Tables 2–3 and the views it is run under.
type rosterEntry struct {
	spec  core.Spec
	views []ml.View
}

// replayRoster is Tables 2–3's roster: the three trees over three views,
// every other spec over JoinAll and NoJoin.
func replayRoster() []rosterEntry {
	var out []rosterEntry
	for _, s := range core.AllSpecs(core.EffortFast, svmCap) {
		views := []ml.View{ml.JoinAll, ml.NoJoin}
		if shortLabel(s.Name) == "tree" {
			views = append(views, ml.NoFK)
		}
		out = append(out, rosterEntry{s, views})
	}
	return out
}

// replay recomputes every Tables 2–3 cell through the public calls core.Run
// makes (Env.ViewSplits → Spec.Train → ml.Accuracy on test and train), each
// in a span under one "core.run" root per cell, so table time is attributed
// to specs. It returns the cells.
func replay(b *bench, rec *recorder, inputs []tablesInput) (map[cellKey][2]float64, error) {
	cells := map[cellKey][2]float64{}
	runSeed := b.seed + 7
	before := obs.TrainPhases()
	for _, in := range inputs {
		for _, r := range replayRoster() {
			label := shortLabel(r.spec.Name)
			for _, v := range r.views {
				op := fmt.Sprintf("%s/%s/%v", in.name, r.spec.Name, v)
				root := rec.begin("core.run", op, 0)
				var train, val, test *ml.Dataset
				var c ml.Classifier
				err := rec.timed("core.view_splits", op, root, func() (err error) {
					train, val, test, err = in.env.ViewSplits(v, nil)
					return err
				})
				if err == nil {
					err = rec.timed("core.spec_train", op, root, func() (err error) {
						c, _, _, err = r.spec.Train(train, val, runSeed)
						return err
					})
				}
				if err != nil {
					rec.end(root)
					return nil, fmt.Errorf("replay %s: %w", op, err)
				}
				var acc [2]float64
				rec.timed("ml.test_score", op, root, func() error { acc[0] = ml.Accuracy(c, test); return nil })
				rec.timed("ml.train_score", op, root, func() error { acc[1] = ml.Accuracy(c, train); return nil })
				b.add("core.run_s."+label, rec.end(root).Seconds())
				cells[cellKey{in.name, r.spec.Name, v}] = acc

				spans := rec.snapshot()
				_, parts := breakdown(spans, root)
				for _, p := range parts {
					switch p.Name {
					case "core.view_splits":
						b.add("core.view_splits_s", p.Dur.Seconds())
					case "core.spec_train":
						b.add("core.spec_train_s."+label, p.Dur.Seconds())
					case "ml.test_score":
						b.add("ml.test_score_s."+label, p.Dur.Seconds())
					case "ml.train_score":
						b.add("ml.train_score_s."+label, p.Dur.Seconds())
					}
				}
				id := rec.begin("ml.val_score", "probe:"+op, 0)
				ml.Accuracy(c, val)
				b.add("ml.val_score_s."+label, rec.end(id).Seconds())
			}
		}
	}
	b.addPhases(phaseDelta(before, obs.TrainPhases()))
	return cells, nil
}

// checkReplay is the proof that the replay did the tables' work: its cells
// equal Table 2's and Table 3's exactly, test and train accuracy alike.
func checkReplay(replayed map[cellKey][2]float64, tables ...[]experiments.AccuracyCell) error {
	n := 0
	for _, cells := range tables {
		for _, c := range cells {
			n++
			got, ok := replayed[cellKey{c.Dataset, c.Model, c.View}]
			if !ok {
				return fmt.Errorf("replay has no cell %s/%s/%v", c.Dataset, c.Model, c.View)
			}
			if got != [2]float64{c.TestAcc, c.TrainAcc} {
				return fmt.Errorf("replay cell %s/%s/%v = %v, table has test %v train %v",
					c.Dataset, c.Model, c.View, got, c.TestAcc, c.TrainAcc)
			}
		}
	}
	if n != len(replayed) {
		return fmt.Errorf("replay has %d cells, tables have %d", len(replayed), n)
	}
	return nil
}

func traceTables(b *bench, rec *recorder) error {
	b.zeroPerLayer()
	inputs, err := tablesSetup(b.seed, rec)
	if err != nil {
		return err
	}
	b.set("dataset.generate_s", rec.totals("dataset.generate"), "s")
	b.set("relational.env_build_s", rec.totals("relational.env_build"), "s")

	segBefore := readSegCounters()
	t0 := time.Now()
	for _, table := range []int{2, 3, 4} {
		if _, err := regenerate(table, b.seed); err != nil {
			return fmt.Errorf("untraced table %d: %w", table, err)
		}
	}
	untraced := time.Since(t0)

	runs := map[int]tableRun{}
	var traced time.Duration
	for _, table := range []int{2, 3, 4} {
		id := rec.begin(fmt.Sprintf("experiments.table%d", table), fmt.Sprintf("table%d", table), 0)
		r, err := regenerate(table, b.seed)
		traced += rec.end(id)
		if err == nil && table == 2 {
			err = checkTreeGap(r.cells, testRows(inputs))
		}
		b.op(fmt.Sprintf("traced table %d", table), err)
		runs[table] = r
	}
	b.set("trace_overhead", traced.Seconds()/untraced.Seconds(), "ratio")

	replayed, err := replay(b, rec, inputs)
	if err == nil {
		err = checkReplay(replayed, runs[2].cells, runs[3].cells)
	}
	b.op("replay of tables 2-3", err)
	b.setSegCache(segBefore, readSegCounters())
	for _, l := range specLabels {
		b.reportf("core.run_s.%s %.4f (spec_train %.4f, test_score %.4f, train_score %.4f)", l,
			b.metrics["core.run_s."+l].Value, b.metrics["core.spec_train_s."+l].Value,
			b.metrics["ml.test_score_s."+l].Value, b.metrics["ml.train_score_s."+l].Value)
	}
	return nil
}
