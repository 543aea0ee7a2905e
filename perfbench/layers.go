package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relational"
)

// learner is one classifier spec under its short metric label.
type learner struct {
	short string // metric label: nb, tree, svm, ann, logreg, knn
	name  string // core spec name
}

func (l learner) spec() (core.Spec, error) {
	return core.SpecByName(l.name, core.EffortFast, svmCap)
}

// svmCap bounds SMO's training set the way hamlet's default -svmcap does.
const svmCap = 400

var (
	nbSpec     = learner{"nb", "NaiveBayes(BFS)"}
	treeSpec   = learner{"tree", "DecisionTree(gini)"}
	svmSpec    = learner{"svm", "SVM(rbf)"}
	annSpec    = learner{"ann", "ANN(MLP)"}
	logregSpec = learner{"logreg", "LogisticRegression(L1)"}
)

// trainSpecs are the train workload's five builds, in build order.
var trainSpecs = []learner{nbSpec, treeSpec, svmSpec, annSpec, logregSpec}

// specLabels are every spec label a per-layer metric is keyed by; knn only
// runs in the tables workload.
var specLabels = []string{"nb", "tree", "svm", "ann", "logreg", "knn"}

// shortLabel maps a Tables 2–3 model name to its spec label: the three tree
// criteria are "tree" and the three SVM kernels "svm".
func shortLabel(model string) string {
	switch {
	case strings.HasPrefix(model, "DecisionTree"):
		return "tree"
	case strings.HasPrefix(model, "SVM"):
		return "svm"
	case model == "1-NN":
		return "knn"
	case strings.HasPrefix(model, "ANN"):
		return "ann"
	case strings.HasPrefix(model, "NaiveBayes"):
		return "nb"
	case strings.HasPrefix(model, "LogisticRegression"):
		return "logreg"
	}
	return model
}

// trainPhases are the learners' obs training spans the traced run reads.
var trainPhases = []string{"nb_count", "reduce", "tree_split", "scan", "gram_build", "smo_pass", "ann_epoch", "logreg_epoch"}

// servedSlots are the serve workload's registry slots.
var servedSlots = []string{"nb", "ann"}

// metricDef names a metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEndMetrics is every metric an untraced run reports, on every
// workload. op_ms is the wall time of the workload's own operation: one
// build + save of each spec (train, train-ooc), one regeneration of Tables
// 2–4 (tables), or one /predict request from its due time (serve).
// op_cpu_ms is the CPU time the process spends on one operation.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"setup_s", "s"},
		{"op_ms", "ms"},
		{"op_cpu_ms", "ms"},
		{"peak_rss_mb", "MB"},
	}
}

// perLayerMetrics is every metric the traced run reports, on every workload;
// a layer the workload does not reach reads 0.
func perLayerMetrics() []metricDef {
	defs := []metricDef{
		{"dataset.generate_s", "s"},
		{"relational.env_build_s", "s"},
		{"relational.segcache_hits", "count"},
		{"relational.segcache_misses", "count"},
		{"relational.segcache_evictions", "count"},
		{"relational.segcache_faulted_bytes", "bytes"},
		{"relational.segcache_hit_ratio", "ratio"},
		{"core.view_splits_s", "s"},
	}
	for _, prefix := range []string{"core.spec_train_s.", "core.run_s.", "ml.val_score_s.", "ml.test_score_s.", "ml.train_score_s."} {
		for _, l := range specLabels {
			defs = append(defs, metricDef{prefix + l, "s"})
		}
	}
	for _, l := range trainSpecs {
		defs = append(defs, metricDef{"build.wall_s." + l.short, "s"}, metricDef{"build.unattributed_s." + l.short, "s"})
	}
	for _, p := range trainPhases {
		defs = append(defs, metricDef{"phase." + p + "_busy_s", "s"}, metricDef{"phase." + p + "_calls", "count"})
	}
	defs = append(defs, metricDef{"model.save_s", "s"}, metricDef{"model.load_s", "s"})
	for _, l := range trainSpecs {
		defs = append(defs, metricDef{"model.artifact_bytes." + l.short, "bytes"})
	}
	for _, layer := range []string{"engine", "slot", "handler", "rtt"} {
		for _, s := range servedSlots {
			defs = append(defs, metricDef{"serve." + layer + "_us." + s, "us"})
		}
	}
	for _, q := range []string{"p50", "p99"} {
		for _, s := range servedSlots {
			defs = append(defs, metricDef{"serve.predict_" + q + "_ms." + s, "ms"})
		}
	}
	defs = append(defs,
		metricDef{"serve.max_rps", "req/s"},
		metricDef{"serve.coalesce_ratio.ann", "ratio"},
		metricDef{"serve.decode_us", "us"},
		metricDef{"serve.score_us", "us"},
		metricDef{"serve.encode_us", "us"},
		metricDef{"serve.shed", "count"},
		metricDef{"gen.late_p99_ms", "ms"},
		metricDef{"trace_overhead", "ratio"},
	)
	return defs
}

// zeroPerLayer sets every per-layer metric to 0, so layers the workload does
// not reach are reported as doing no work.
func (b *bench) zeroPerLayer() {
	for _, d := range perLayerMetrics() {
		b.set(d.Name, 0, d.Unit)
	}
}

// add accumulates into a per-layer metric already set by zeroPerLayer.
func (b *bench) add(name string, v float64) {
	m, ok := b.metrics[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: %q is not a per-layer metric", name))
	}
	m.Value += v
	b.metrics[name] = m
}

// phaseDelta is after − before for every training phase.
func phaseDelta(before, after map[string]obs.PhaseTotals) map[string]obs.PhaseTotals {
	d := make(map[string]obs.PhaseTotals, len(after))
	for p, a := range after {
		bp := before[p]
		d[p] = obs.PhaseTotals{Ns: a.Ns - bp.Ns, Calls: a.Calls - bp.Calls}
	}
	return d
}

// addPhases adds training-phase busy time and calls. Phase spans add up
// parallel calls, so these are busy seconds, not a share of wall time.
func (b *bench) addPhases(d map[string]obs.PhaseTotals) {
	for _, p := range trainPhases {
		b.add("phase."+p+"_busy_s", float64(d[p].Ns)/1e9)
		b.add("phase."+p+"_calls", float64(d[p].Calls))
	}
}

// segCounters snapshots the segment cache counters.
type segCounters struct{ hits, misses, evictions, faulted uint64 }

func readSegCounters() segCounters {
	return segCounters{
		hits:      relational.SegCacheHits.Value(),
		misses:    relational.SegCacheMisses.Value(),
		evictions: relational.SegCacheEvictions.Value(),
		faulted:   relational.SegCacheFaultedBytes.Value(),
	}
}

// setSegCache reports the segment cache's work between two snapshots.
func (b *bench) setSegCache(before, after segCounters) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	b.set("relational.segcache_hits", float64(hits), "count")
	b.set("relational.segcache_misses", float64(misses), "count")
	b.set("relational.segcache_evictions", float64(after.evictions-before.evictions), "count")
	b.set("relational.segcache_faulted_bytes", float64(after.faulted-before.faulted), "bytes")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	b.set("relational.segcache_hit_ratio", ratio, "ratio")
}
