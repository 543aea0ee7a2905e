package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineText = `goos: linux
cpu: whatever
BenchmarkLogRegFitColumnar-8  	      10	  1000000 ns/op	  100 B/op	 1 allocs/op
BenchmarkLogRegFitColumnar-8  	      10	  1200000 ns/op	  100 B/op	 1 allocs/op
BenchmarkLogRegFitColumnar-8  	      10	  1100000 ns/op	  100 B/op	 1 allocs/op
BenchmarkServeFactorized-8    	     100	      500 ns/op	    0 B/op	 0 allocs/op
PASS
`

// segPairLines satisfies every default group but the compute-kernel one,
// which each test supplies itself: the zone skip clears 1.5x, the parity
// pairs sit at 1.0 (enough for the group's @0.95 bar), and coalescing
// clears 2x.
const segPairLines = `
BenchmarkSelectEqSegFullScan   	      10	  2000000 ns/op
BenchmarkSelectEqSegZoneSkip   	      10	   100000 ns/op
BenchmarkTreeSplitZoneSkip     	      10	  1200000 ns/op
BenchmarkSegParScanSlab        	      10	  1000000 ns/op
BenchmarkSegParScanSeg         	      10	  1000000 ns/op
BenchmarkNBFitColumnar         	      10	   300000 ns/op
BenchmarkNBFitSegmented        	      10	   300000 ns/op
BenchmarkTreeSplitColumnar     	      10	  1000000 ns/op
BenchmarkTreeSplitSegmented    	      10	  1000000 ns/op
BenchmarkServeConcurrentScalar 	      10	  2000000 ns/op	    1056 B/op	       2 allocs/op
BenchmarkServeConcurrentCoalesced	      10	   900000 ns/op	      44 B/op	       0 allocs/op
BenchmarkServeConcurrentFactorized	     100	       20 ns/op	       0 B/op	       0 allocs/op
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchMediansAndSuffixStripping(t *testing.T) {
	m, allocs, err := parseBench(strings.NewReader(baselineText))
	if err != nil {
		t.Fatal(err)
	}
	if got := median(allocs["BenchmarkLogRegFitColumnar"]); got != 1 {
		t.Fatalf("allocs median = %v, want 1", got)
	}
	if got := median(m["BenchmarkLogRegFitColumnar"]); got != 1100000 {
		t.Fatalf("median = %v, want 1100000", got)
	}
	if got := median(m["BenchmarkServeFactorized"]); got != 500 {
		t.Fatalf("serve median = %v", got)
	}
	if _, ok := m["BenchmarkLogRegFitColumnar-8"]; ok {
		t.Fatal("GOMAXPROCS suffix must be stripped")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
}

func TestGatePassesWithinTolerance(t *testing.T) {
	base := writeTemp(t, "base.txt", baselineText)
	cur := writeTemp(t, "cur.txt", `
BenchmarkLogRegFitColumnar-4  	      10	  1150000 ns/op
BenchmarkServeFactorized-4    	     100	      510 ns/op
BenchmarkSVMKernelCacheScalar-4	      10	  2000000 ns/op
BenchmarkSVMKernelCacheGemm-4 	      10	   800000 ns/op
`+segPairLines)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur}, &sb); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "ok   BenchmarkLogRegFitColumnar") {
		t.Fatalf("missing regression report:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "pair SVMKernelCache/Scalar/Gemm: fast side 2.50x") {
		t.Fatalf("missing pair report:\n%s", sb.String())
	}
}

func TestPairGroupsEachRequireAWinner(t *testing.T) {
	// Every other group clears its bar but the compute-kernel group does
	// not — the gate must fail: one group's winner cannot carry another.
	cur := writeTemp(t, "cur.txt", `
BenchmarkSVMKernelCacheScalar	      10	  1000000 ns/op
BenchmarkSVMKernelCacheGemm 	      10	   900000 ns/op
`+segPairLines)
	var sb strings.Builder
	err := run([]string{"-current", cur}, &sb)
	if err == nil || !strings.Contains(sb.String(), "FAIL pairs") {
		t.Fatalf("compute-kernel group at 1.11x must fail (err %v):\n%s", err, sb.String())
	}
	// With the SVM Gram build at 2.5x the same run passes: the
	// compute-kernel group has its winner.
	cur2 := writeTemp(t, "cur2.txt", `
BenchmarkSVMKernelCacheScalar	      10	  2500000 ns/op
BenchmarkSVMKernelCacheGemm 	      10	  1000000 ns/op
`+segPairLines)
	sb.Reset()
	if err := run([]string{"-current", cur2}, &sb); err != nil {
		t.Fatalf("gate must pass with an SVM kernel win: %v\n%s", err, sb.String())
	}
}

func TestPairNamesSyntax(t *testing.T) {
	for _, bad := range []string{"LogRegFit", "A/B", "A/B/C/D"} {
		if _, _, err := pairNames(bad); err == nil {
			t.Fatalf("pair spec %q must be rejected", bad)
		}
	}
	slow, fast, err := pairNames("ServeBatch/Scalar/Gemm")
	if err != nil || slow != "BenchmarkServeBatchScalar" || fast != "BenchmarkServeBatchGemm" {
		t.Fatalf("custom suffixes resolved to %q/%q (err %v)", slow, fast, err)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := writeTemp(t, "base.txt", baselineText)
	cur := writeTemp(t, "cur.txt", `
BenchmarkLogRegFitColumnar  	      10	  2000000 ns/op
BenchmarkServeFactorized    	     100	      500 ns/op
`)
	var sb strings.Builder
	err := run([]string{"-baseline", base, "-current", cur, "-pairs", ""}, &sb)
	if err == nil {
		t.Fatalf("gate must fail on an 82%% regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "FAIL BenchmarkLogRegFitColumnar") {
		t.Fatalf("missing failure line:\n%s", sb.String())
	}
}

func TestGateWarnsOnCurrentOnlyBenchmark(t *testing.T) {
	base := writeTemp(t, "base.txt", baselineText)
	cur := writeTemp(t, "cur.txt", `
BenchmarkLogRegFitColumnar  	      10	  1000000 ns/op
BenchmarkServeFactorized    	     100	      500 ns/op
BenchmarkTreeSplitColumnar  	      10	   100000 ns/op
`)
	var sb strings.Builder
	if err := run([]string{"-baseline", base, "-current", cur, "-pairs", ""}, &sb); err != nil {
		t.Fatalf("current-only benchmark must warn, not fail: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "warn BenchmarkTreeSplitColumnar") {
		t.Fatalf("missing ungated warning:\n%s", sb.String())
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := writeTemp(t, "base.txt", baselineText)
	cur := writeTemp(t, "cur.txt", `
BenchmarkServeFactorized    	     100	      500 ns/op
`)
	var sb strings.Builder
	err := run([]string{"-baseline", base, "-current", cur, "-pairs", ""}, &sb)
	if err == nil || !strings.Contains(sb.String(), "missing from current run") {
		t.Fatalf("gate must fail on missing benchmark (err %v):\n%s", err, sb.String())
	}
}

func TestGateFailsWithoutPairSpeedup(t *testing.T) {
	cur := writeTemp(t, "cur.txt", `
BenchmarkSVMKernelCacheScalar	      10	  1000000 ns/op
BenchmarkSVMKernelCacheGemm 	      10	  1100000 ns/op
`+segPairLines)
	var sb strings.Builder
	err := run([]string{"-current", cur}, &sb)
	if err == nil || !strings.Contains(sb.String(), "FAIL pairs: best speedup 0.91x") {
		t.Fatalf("pair gate must fail at a 0.91x speedup (err %v):\n%s", err, sb.String())
	}
}

func TestPairGateErrorsOnMissingSibling(t *testing.T) {
	cur := writeTemp(t, "cur.txt", `
BenchmarkSVMKernelCacheScalar	      10	  1000000 ns/op
`)
	var sb strings.Builder
	if err := run([]string{"-current", cur, "-pairs", "SVMKernelCache/Scalar/Gemm"}, &sb); err == nil {
		t.Fatal("missing fast sibling must error")
	}
}

func TestGroupBarSuffix(t *testing.T) {
	spec, bar, err := groupBar("A,B@0.95", 1.5)
	if err != nil || spec != "A,B" || bar != 0.95 {
		t.Fatalf("groupBar(@0.95) = %q, %v, %v", spec, bar, err)
	}
	spec, bar, err = groupBar("A,B", 1.5)
	if err != nil || spec != "A,B" || bar != 1.5 {
		t.Fatalf("groupBar(no suffix) = %q, %v, %v", spec, bar, err)
	}
	for _, bad := range []string{"A@zero", "A@0", "A@-1"} {
		if _, _, err := groupBar(bad, 1.5); err == nil {
			t.Fatalf("groupBar(%q) must reject the bar", bad)
		}
	}
}

func TestGroupBarGatesThePairCheck(t *testing.T) {
	// Parity at 1.0x clears an @0.95 bar but not an @1.2 one.
	cur := writeTemp(t, "cur.txt", `
BenchmarkSegParScanSlab	      10	  1000000 ns/op
BenchmarkSegParScanSeg 	      10	  1000000 ns/op
`)
	var sb strings.Builder
	if err := run([]string{"-current", cur, "-pairs", "SegParScan/Slab/Seg@0.95"}, &sb); err != nil {
		t.Fatalf("parity pair must clear @0.95: %v\n%s", err, sb.String())
	}
	sb.Reset()
	if err := run([]string{"-current", cur, "-pairs", "SegParScan/Slab/Seg@1.2"}, &sb); err == nil {
		t.Fatalf("parity pair must miss @1.2:\n%s", sb.String())
	}
}

func TestZeroAllocGate(t *testing.T) {
	// A matched benchmark allocating per op fails; one with no allocs/op
	// sample (run without -benchmem) fails too; a clean 0 passes.
	leaky := writeTemp(t, "leaky.txt", `
BenchmarkServeConcurrentFactorized	     100	       20 ns/op	      16 B/op	       1 allocs/op
`)
	var sb strings.Builder
	err := run([]string{"-current", leaky, "-pairs", ""}, &sb)
	if err == nil || !strings.Contains(sb.String(), "1 allocs/op, want 0") {
		t.Fatalf("allocating benchmark must fail the zero-alloc gate (err %v):\n%s", err, sb.String())
	}
	unmeasured := writeTemp(t, "unmeasured.txt", `
BenchmarkServeConcurrentFactorized	     100	       20 ns/op
`)
	sb.Reset()
	err = run([]string{"-current", unmeasured, "-pairs", ""}, &sb)
	if err == nil || !strings.Contains(sb.String(), "no allocs/op sample") {
		t.Fatalf("missing -benchmem sample must fail the zero-alloc gate (err %v):\n%s", err, sb.String())
	}
	clean := writeTemp(t, "clean.txt", `
BenchmarkServeConcurrentFactorized	     100	       20 ns/op	       0 B/op	       0 allocs/op
`)
	sb.Reset()
	if err := run([]string{"-current", clean, "-pairs", ""}, &sb); err != nil {
		t.Fatalf("0 allocs/op must pass: %v\n%s", err, sb.String())
	}
	sb.Reset()
	if err := run([]string{"-current", leaky, "-pairs", "", "-zero-alloc", ""}, &sb); err != nil {
		t.Fatalf("empty -zero-alloc must disable the check: %v\n%s", err, sb.String())
	}
}

func TestCurrentRequired(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("-current must be required")
	}
}

// TestJSONSummary pins the -json artifact: gated benchmarks only, median
// ns/op, allocs/op where the run sampled them, and repetition counts.
func TestJSONSummary(t *testing.T) {
	cur := writeTemp(t, "cur.txt", baselineText+segPairLines)
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var sb strings.Builder
	// Pairs and zero-alloc checks are irrelevant here; the summary must be
	// written regardless of gate outcomes.
	err := run([]string{"-current", cur, "-json", jsonPath, "-pairs", "", "-zero-alloc", ""}, &sb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Benchmarks map[string]struct {
			NsPerOp     float64  `json:"ns_per_op"`
			AllocsPerOp *float64 `json:"allocs_per_op"`
			Samples     int      `json:"samples"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	lr, ok := got.Benchmarks["BenchmarkLogRegFitColumnar"]
	if !ok {
		t.Fatalf("summary missing gated benchmark: %s", raw)
	}
	if lr.NsPerOp != 1100000 || lr.Samples != 3 || lr.AllocsPerOp == nil || *lr.AllocsPerOp != 1 {
		t.Fatalf("LogRegFitColumnar summary %+v", lr)
	}
	co := got.Benchmarks["BenchmarkServeConcurrentCoalesced"]
	if co.AllocsPerOp == nil || *co.AllocsPerOp != 0 {
		t.Fatalf("Coalesced summary %+v", co)
	}
	seg, ok := got.Benchmarks["BenchmarkSegParScanSlab"]
	if !ok || seg.AllocsPerOp != nil {
		t.Fatalf("SegParScanSlab summary %+v (allocs must be absent without -benchmem)", seg)
	}
	if _, ok := got.Benchmarks["BenchmarkBogus"]; ok {
		t.Fatal("ungated benchmark leaked into summary")
	}
}

// TestDefaultGateMatchesMakefile guards the two copies of the gate regexp:
// the Makefile's BENCH_REGEX selects which benchmarks run, defaultGate which
// of them the regression check and -json digest cover. A benchmark added to
// one and not the other would run ungated or fail as missing.
func TestDefaultGateMatchesMakefile(t *testing.T) {
	f, err := os.Open("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if re, ok := strings.CutPrefix(sc.Text(), "BENCH_REGEX = "); ok {
			if got := "^" + strings.ReplaceAll(re, "$$", "$"); got != defaultGate {
				t.Fatalf("Makefile BENCH_REGEX and defaultGate diverged:\nMakefile: %s\nbenchgate: %s", got, defaultGate)
			}
			return
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatal("Makefile has no BENCH_REGEX line")
}
