// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the program's public packages, checks every output, and
// prints its metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// Workloads: train (the hamlet -train path, five specs), train-ooc (spilled
// segmented training under a cache smaller than the working set), tables
// (experiments.Table2/3/4, the paper reproduction) and serve (open-loop
// /predict traffic against a loopback registry server). With --trace 0 it
// reports the end-to-end metrics of BENCHMARK.json (the same four on every
// workload); with --trace 1 it runs the traced pass instead and reports the
// per-layer metrics, writing every span to the work directory. See
// README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: options, the operation ledger, and the metrics
// and report lines it has produced so far.
type bench struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory inside the work directory
	out     io.Writer
	errw    io.Writer

	attempted, failed int
	metrics           map[string]metric
}

// op records one attempted operation; a non-nil err (an operation that
// failed or returned a wrong answer) counts it as failed.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.errw, "perfbench: FAILED %s: %v\n", what, err)
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{v, unit}
}

// setOp sets the workload's operation metrics from its wall and CPU seconds.
func (b *bench) setOp(wall, cpu float64) {
	b.set("op_ms", wall*1e3, "ms")
	b.set("op_cpu_ms", cpu*1e3, "ms")
}

// reportf prints one human-readable report line; the JSON result stays last.
func (b *bench) reportf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// cycles runs pass at least once, and again while one more pass as long as
// the last one still ends within the run's seconds.
func (b *bench) cycles(pass func()) {
	start := time.Now()
	for {
		t0 := time.Now()
		pass()
		if time.Since(start)+time.Since(t0) > b.seconds {
			return
		}
	}
}

// workload runs the untraced measurement or the traced per-layer pass.
type workload struct {
	measure func(*bench) error
	trace   func(*bench, *recorder) error
}

var workloads = map[string]workload{
	"train":     {measureTrain, traceTrain},
	"train-ooc": {measureTrainOOC, traceTrainOOC},
	"tables":    {measureTables, traceTables},
	"serve":     {measureServe, traceServe},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "directory for artifacts, spill files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	b := &bench{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		dir: dir, out: out, errw: stderr, metrics: map[string]metric{},
	}
	if *trace == 1 {
		rec := newRecorder()
		err = w.trace(b, rec)
		if err == nil {
			path := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
			if err = rec.write(path); err == nil {
				b.reportf("spans: %d written to %s", len(rec.snapshot()), path)
			}
		}
	} else {
		err = w.measure(b)
		if err == nil {
			var rss float64
			if rss, err = peakRSSMB(); err == nil {
				b.set("peak_rss_mb", rss, "MB")
			}
		}
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEndMetrics()
	if *trace == 1 {
		want = perLayerMetrics()
	}
	if err := checkMetrics(b.metrics, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// checkMetrics checks that a run reports exactly the metrics of want, each
// in its unit.
func checkMetrics(got map[string]metric, want []metricDef) error {
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s is in %s, not %s", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics measured, %d expected", len(got), len(want))
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
