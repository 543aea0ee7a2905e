package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONListsEveryPerLayerMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := perLayerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced run reports %d", len(b.PerLayer), len(want))
	}
	for i, d := range want {
		if b.PerLayer[i] != d {
			t.Errorf("per_layer[%d] = %+v, traced run reports %+v", i, b.PerLayer[i], d)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
}

func TestBenchmarkJSONListsEveryEndToEndMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := endToEndMetrics()
	if len(b.EndToEnd) != len(want) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, an untraced run reports %d", len(b.EndToEnd), len(want))
	}
	for i, d := range want {
		if b.EndToEnd[i] != d {
			t.Errorf("end_to_end[%d] = %+v, an untraced run reports %+v", i, b.EndToEnd[i], d)
		}
	}
}

func TestCheckMetricsWantsExactlyTheCatalog(t *testing.T) {
	want := endToEndMetrics()
	full := map[string]metric{}
	for _, d := range want {
		full[d.Name] = metric{1, d.Unit}
	}
	if err := checkMetrics(full, want); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	missing, wrongUnit, extra := maps.Clone(full), maps.Clone(full), maps.Clone(full)
	delete(missing, "op_ms")
	wrongUnit["op_ms"] = metric{1, "s"}
	extra["table2_s"] = metric{1, "s"}
	for name, got := range map[string]map[string]metric{"missing": missing, "wrong unit": wrongUnit, "extra": extra} {
		if err := checkMetrics(got, want); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "train", "--seconds", "0"},
		{"--workload", "train", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errw bytes.Buffer
		if code := run(append(args, "--workdir", t.TempDir()), &out, &errw); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}

func TestCyclesRunsAtLeastOnceAndStopsInTime(t *testing.T) {
	b := &bench{seconds: time.Millisecond}
	n := 0
	b.cycles(func() { n++; time.Sleep(2 * time.Millisecond) })
	if n != 1 {
		t.Errorf("%d passes, want exactly 1 when a pass outlasts the run", n)
	}
	b.seconds = 50 * time.Millisecond
	n = 0
	start := time.Now()
	b.cycles(func() { n++; time.Sleep(10 * time.Millisecond) })
	if n < 2 || time.Since(start) > 80*time.Millisecond {
		t.Errorf("%d passes in %v", n, time.Since(start))
	}
}
