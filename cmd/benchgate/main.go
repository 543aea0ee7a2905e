// Command benchgate is the CI benchmark-regression gate. It parses two `go
// test -bench` output files — a committed baseline (refresh with `make
// bench-baseline`) and the current run — and fails when
//
//  1. any gated benchmark's median ns/op regressed more than -max-regress
//     (default 20%) against the baseline, or a gated baseline benchmark is
//     missing from the current run; or
//  2. any -pairs group lacks a pair whose fast side is at least -min-speedup
//     (default 1.5x) faster than its slow side *within the current run* —
//     the machine-independent check that the fast paths actually pay for
//     themselves. Groups are ';'-separated lists of pairs; a pair is
//     name/slowSuffix/fastSuffix (e.g. SVMKernelCache/Scalar/Gemm compares
//     BenchmarkSVMKernelCacheScalar with BenchmarkSVMKernelCacheGemm). A
//     group may override the required speedup with an @<ratio> suffix (e.g.
//     `A/x/y,B/x/y@0.95` — used by the segmented-engine parity group, whose
//     bar is "no tax vs the slab", not a speedup). Every group must produce
//     at least one winner.
//
// Medians are taken across repetitions (`-count=N`), mirroring benchstat's
// robustness to scheduler noise; run benchstat alongside for the
// human-readable delta table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultGate covers the benchmarks that guard the repository's headline
// wins: join pipeline, the five learners' fits on the columnar engine (NB,
// tree split search, logreg, SVM, ANN), the factorized serving path, the
// GEMM-vs-scalar kernel pairs (SVM Gram build, batch serving), the zone-map
// skips (segment scan, tree split search), and the segmented-vs-slab parity
// pairs. It must equal the Makefile's BENCH_REGEX
// (TestDefaultGateMatchesMakefile).
const defaultGate = `^Benchmark(Join(Materialized|View)|(NBFit|TreeSplit|LogRegFit|SVMFit|ANNFit)Columnar|Serve(Factorized|Joined)|SVMKernelCache(Scalar|Gemm)|ServeBatch(Scalar|Gemm)|SelectEqSeg(FullScan|ZoneSkip)|TreeSplitZoneSkip|SegParScan(Slab|Seg)|(NBFit|TreeSplit)Segmented|ServeConcurrent(Scalar|Coalesced|Factorized|Hardened))$`

// defaultPairs is the speedup requirement. The first group is the
// compute-kernel bar: the blocked Gram build must beat the per-pair scalar
// one. The second is the zone-map bar: skipping provably-irrelevant
// segments must beat the full scan. The third is the segmented-engine
// parity bar at @0.95: many-segment routing must not tax the hot training
// loops vs a one-segment layout of the same table type (within noise on one
// core; the SegParScan pair scales with cores). The fourth is the
// coalescing bar at 64 clients. The learners' single training paths and the
// tree's zone-map skip have no slower sibling left to race; the regression
// check bounds them against the baseline instead.
const defaultPairs = `SVMKernelCache/Scalar/Gemm;SelectEqSeg/FullScan/ZoneSkip;SegParScan/Slab/Seg,NBFit/Columnar/Segmented,TreeSplit/Columnar/Segmented@0.95;ServeConcurrent/Scalar/Coalesced@2.0`

// defaultZeroAlloc names the benchmarks whose steady state must allocate
// nothing: the factorized-linear serving path end to end, the coalesced
// path's per-request amortized count (its per-batch setup divides below one
// allocation per request), and the hardened in-process entry (admission
// gate + panic recovery on top of the factorized path). A matched benchmark
// lacking an allocs/op sample fails the gate — the bench run must use
// -benchmem.
const defaultZeroAlloc = `^BenchmarkServeConcurrent(Coalesced|Factorized|Hardened)$`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "", "baseline go-bench output file (empty skips the regression check)")
	currentPath := fs.String("current", "", "current go-bench output file (required)")
	gate := fs.String("gate", defaultGate, "regexp of benchmark names the regression check gates")
	maxRegress := fs.Float64("max-regress", 0.20, "maximum tolerated ns/op regression vs baseline (0.20 = +20%)")
	pairs := fs.String("pairs", defaultPairs, "';'-separated groups of comma-separated pairs for the speedup check; a pair is <name>/<slow>/<fast> (empty skips)")
	minSpeedup := fs.Float64("min-speedup", 1.5, "required slow/fast speedup on at least one pair per group")
	zeroAlloc := fs.String("zero-alloc", defaultZeroAlloc, "regexp of current-run benchmarks that must report 0 allocs/op (empty disables)")
	jsonPath := fs.String("json", "", "write the gated medians (ns/op, allocs/op, sample counts) as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return fmt.Errorf("-current is required")
	}
	gateRE, err := regexp.Compile(*gate)
	if err != nil {
		return fmt.Errorf("bad -gate: %w", err)
	}
	current, allocs, err := parseBenchFile(*currentPath)
	if err != nil {
		return err
	}

	if *jsonPath != "" {
		if err := writeJSONSummary(*jsonPath, current, allocs, gateRE); err != nil {
			return err
		}
	}

	failures := 0
	if *baselinePath != "" {
		baseline, _, err := parseBenchFile(*baselinePath)
		if err != nil {
			return err
		}
		failures += checkRegressions(out, baseline, current, gateRE, *maxRegress)
	}
	if *zeroAlloc != "" {
		zaRE, err := regexp.Compile(*zeroAlloc)
		if err != nil {
			return fmt.Errorf("bad -zero-alloc: %w", err)
		}
		failures += checkZeroAlloc(out, current, allocs, zaRE)
	}
	if *pairs != "" {
		for _, group := range strings.Split(*pairs, ";") {
			spec, bar, err := groupBar(group, *minSpeedup)
			if err != nil {
				return err
			}
			ok, err := checkPairSpeedup(out, current, strings.Split(spec, ","), bar)
			if err != nil {
				return err
			}
			if !ok {
				failures++
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d gate(s) failed", failures)
	}
	fmt.Fprintln(out, "benchgate: all gates passed")
	return nil
}

// benchSummary is one gated benchmark's digest in the -json output.
type benchSummary struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"` // absent without -benchmem
	Samples     int      `json:"samples"`
}

// writeJSONSummary digests the current run's gated benchmarks — median
// ns/op, median allocs/op where sampled, and the repetition count — into a
// machine-readable file (the BENCH_<n>.json artifacts CI archives). Written
// before the gates are judged so a failing run still leaves its numbers
// behind for diagnosis.
func writeJSONSummary(path string, current, allocs map[string][]float64, gate *regexp.Regexp) error {
	summary := map[string]benchSummary{}
	for name, ns := range current {
		if !gate.MatchString(name) {
			continue
		}
		s := benchSummary{NsPerOp: median(ns), Samples: len(ns)}
		if a, ok := allocs[name]; ok {
			m := median(a)
			s.AllocsPerOp = &m
		}
		summary[name] = s
	}
	raw, err := json.MarshalIndent(map[string]any{"benchmarks": summary}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkRegressions compares median ns/op of every gated baseline benchmark
// against the current run and returns the number of violations. Gated
// benchmarks that appear only in the current run are reported as warnings:
// they have no bar to clear, which usually means the committed baseline
// needs a refresh after adding a pair.
func checkRegressions(out io.Writer, baseline, current map[string][]float64, gate *regexp.Regexp, maxRegress float64) int {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		if gate.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var ungated []string
	for name := range current {
		if gate.MatchString(name) {
			if _, ok := baseline[name]; !ok {
				ungated = append(ungated, name)
			}
		}
	}
	sort.Strings(ungated)
	for _, name := range ungated {
		fmt.Fprintf(out, "warn %s: gated name missing from baseline — ungated until `make bench-baseline` is rerun\n", name)
	}
	bad := 0
	for _, name := range names {
		base := median(baseline[name])
		cur, ok := current[name]
		if !ok {
			fmt.Fprintf(out, "FAIL %s: present in baseline but missing from current run\n", name)
			bad++
			continue
		}
		c := median(cur)
		ratio := c / base
		status := "ok  "
		if ratio > 1+maxRegress {
			status = "FAIL"
			bad++
		}
		fmt.Fprintf(out, "%s %s: %.0f -> %.0f ns/op (%+.1f%%, limit +%.0f%%)\n",
			status, name, base, c, (ratio-1)*100, maxRegress*100)
	}
	return bad
}

// checkZeroAlloc requires every current benchmark matching the -zero-alloc
// regexp to report a 0 allocs/op median. A matched benchmark with no
// allocs/op sample fails too: it means the run skipped -benchmem and the
// allocation contract went unmeasured. Presence of the benchmarks themselves
// is the regression gate's job, so a run matching nothing passes here.
func checkZeroAlloc(out io.Writer, current, allocs map[string][]float64, re *regexp.Regexp) int {
	names := make([]string, 0, len(current))
	for name := range current {
		if re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		a, ok := allocs[name]
		if !ok {
			fmt.Fprintf(out, "FAIL %s: no allocs/op sample — run the gated benchmarks with -benchmem\n", name)
			bad++
			continue
		}
		if m := median(a); m != 0 {
			fmt.Fprintf(out, "FAIL %s: %g allocs/op, want 0\n", name, m)
			bad++
			continue
		}
		fmt.Fprintf(out, "ok   %s: 0 allocs/op\n", name)
	}
	return bad
}

// groupBar splits one -pairs group into its pair list and required speedup:
// an `@<ratio>` suffix overrides the global -min-speedup for that group.
func groupBar(group string, def float64) (spec string, bar float64, err error) {
	spec, barStr, found := strings.Cut(group, "@")
	if !found {
		return spec, def, nil
	}
	bar, err = strconv.ParseFloat(barStr, 64)
	if err != nil || bar <= 0 {
		return "", 0, fmt.Errorf("bad group bar %q: want @<positive ratio>", group)
	}
	return spec, bar, nil
}

// pairNames resolves one -pairs entry, name/slowSuffix/fastSuffix, to its
// slow and fast benchmark names.
func pairNames(p string) (slow, fast string, err error) {
	parts := strings.Split(p, "/")
	if len(parts) != 3 {
		return "", "", fmt.Errorf("bad pair %q: want <name>/<slow>/<fast>", p)
	}
	return "Benchmark" + parts[0] + parts[1], "Benchmark" + parts[0] + parts[2], nil
}

// checkPairSpeedup requires at least one pair of the group whose fast side
// is minSpeedup faster than its slow sibling within the same run.
func checkPairSpeedup(out io.Writer, current map[string][]float64, pairs []string, minSpeedup float64) (bool, error) {
	best := 0.0
	for _, p := range pairs {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		slowName, fastName, err := pairNames(p)
		if err != nil {
			return false, err
		}
		slow, okSlow := current[slowName]
		fast, okFast := current[fastName]
		if !okSlow || !okFast {
			return false, fmt.Errorf("pair %s: %s or %s missing from current run", p, slowName, fastName)
		}
		speedup := median(slow) / median(fast)
		if speedup > best {
			best = speedup
		}
		fmt.Fprintf(out, "pair %s: fast side %.2fx vs slow\n", p, speedup)
	}
	if best < minSpeedup {
		fmt.Fprintf(out, "FAIL pairs: best speedup %.2fx < required %.2fx in group\n", best, minSpeedup)
		return false, nil
	}
	return true, nil
}

func parseBenchFile(path string) (map[string][]float64, map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	m, allocs, err := parseBench(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m) == 0 {
		return nil, nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return m, allocs, nil
}

// parseBench reads `go test -bench` output: one ns/op sample per result
// line, keyed by the benchmark name with its -GOMAXPROCS suffix stripped so
// baselines recorded at different core counts still compare. Lines from a
// -benchmem run also contribute an allocs/op sample to the second map.
func parseBench(r io.Reader) (map[string][]float64, map[string][]float64, error) {
	out := map[string][]float64{}
	allocs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in line %q: %w", sc.Text(), err)
		}
		out[name] = append(out[name], v)
		for i := 4; i < len(fields); i++ {
			if fields[i] != "allocs/op" {
				continue
			}
			a, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad allocs/op in line %q: %w", sc.Text(), err)
			}
			allocs[name] = append(allocs[name], a)
			break
		}
	}
	return out, allocs, sc.Err()
}

// median of a non-empty sample set (mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
