package relational

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"repro/internal/rng"
)

// segmentedFromTable fills a SegmentedTable with the rows of src.
func segmentedFromTable(t testing.TB, src *Table, opts SegmentOptions) *SegmentedTable {
	t.Helper()
	st, err := NewSegmentedTable(src.Name+"_seg", src.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, src.Schema().Width())
	for i := 0; i < src.NumRows(); i++ {
		src.CopyRow(row, i)
		if err := st.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSegmentedMatchesTable is the segmented engine's equivalence property:
// row counts straddling every segment boundary (empty, single row, one row
// short of a seal, exactly one segment, one over, several segments plus a
// tail) read back bit-identically to the row-major table under every API.
func TestSegmentedMatchesTable(t *testing.T) {
	const segSize = 64
	for _, n := range []int{0, 1, segSize - 1, segSize, segSize + 1, 3*segSize + 17} {
		tab := randomWideTable(t, n, uint64(n)+1)
		st := segmentedFromTable(t, tab, SegmentOptions{SegmentSize: segSize})
		requireSameRelation(t, tab, st)
		wantSegs := (n + segSize - 1) / segSize
		if got := st.NumSegments(); got != wantSegs {
			t.Fatalf("n=%d: NumSegments() = %d, want %d", n, got, wantSegs)
		}
	}
}

// TestSegmentedSpilledMatchesTable re-runs the equivalence property with the
// out-of-core tier active and a cache budget small enough to force eviction
// and re-faulting during the comparison reads.
func TestSegmentedSpilledMatchesTable(t *testing.T) {
	const segSize = 64
	tab := randomWideTable(t, 5*segSize+9, 11)
	st := segmentedFromTable(t, tab, SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    t.TempDir(),
		CacheBytes:  1024, // roughly one segment's worth; forces thrash
	})
	defer st.Close()
	if !st.Spilled() {
		t.Fatal("table with SpillDir must report Spilled")
	}
	requireSameRelation(t, tab, st)
	if rb := st.ResidentBytes(); rb > 4*1024 {
		t.Fatalf("resident bytes %d stayed far above the 1024-byte budget", rb)
	}
}

// TestSegmentedAppendRowsMatchesAppendRow checks the bulk path seals the
// same segments as row-at-a-time appends (TestAppendRowsRejectsBadInput pins
// its validation contract).
func TestSegmentedAppendRowsMatchesAppendRow(t *testing.T) {
	const segSize = 32
	tab := randomWideTable(t, 3*segSize+5, 3)
	w := tab.Schema().Width()
	block := make([]Value, 0, tab.NumRows()*w)
	row := make([]Value, w)
	for i := 0; i < tab.NumRows(); i++ {
		block = append(block, tab.CopyRow(row, i)...)
	}
	st, err := NewSegmentedTable("bulk", tab.Schema(), SegmentOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	st.Reserve(tab.NumRows())
	if err := st.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, st)
}

// TestSegmentedZoneMaps pins the zone-map semantics: exact min/max per
// sealed segment, MayContain as a proof of absence, ColumnRange folding
// sealed segments with the open tail, and the constant-column proof.
func TestSegmentedZoneMaps(t *testing.T) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "clustered", Kind: KindFeature, Domain: NewDomain("c", 1000)},
		Column{Name: "constant", Kind: KindFeature, Domain: NewDomain("k", 8)},
	)
	st, err := NewSegmentedTable("zm", schema, SegmentOptions{SegmentSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Clustered column: segment s holds values in [s*10, s*10+9].
	for i := 0; i < 35; i++ {
		st.MustAppendRow([]Value{Value(i % 2), Value(i), 5})
	}
	z, ok := st.SegmentZone(1, 1)
	if !ok || z.Min != 10 || z.Max != 19 || z.Distinct != 10 {
		t.Fatalf("segment 1 zone = %+v ok=%v, want min 10 max 19 distinct 10", z, ok)
	}
	if !z.MayContain(15) || z.MayContain(25) || z.MayContain(9) {
		t.Fatalf("MayContain wrong on %+v", z)
	}
	if z, _ := st.SegmentZone(0, 2); !z.Constant() || z.Min != 5 {
		t.Fatalf("constant column zone = %+v, want constant 5", z)
	}
	// The open tail (rows 30..34) has no sealed statistics.
	if _, ok := st.SegmentZone(3, 1); ok {
		t.Fatal("tail segment must report no zone map")
	}
	if !st.SegmentMayContain(3, 1, 999) {
		t.Fatal("tail must report MayContain for everything")
	}
	// ColumnRange folds sealed zones and scans the tail.
	if lo, hi, ok := st.ColumnRange(1); !ok || lo != 0 || hi != 34 {
		t.Fatalf("ColumnRange(clustered) = [%d,%d] ok=%v, want [0,34]", lo, hi, ok)
	}
	if lo, hi, ok := st.ColumnRange(2); !ok || lo != 5 || hi != 5 {
		t.Fatalf("ColumnRange(constant) = [%d,%d] ok=%v, want [5,5]", lo, hi, ok)
	}
	empty, _ := NewSegmentedTable("e", schema, SegmentOptions{})
	if _, _, ok := empty.ColumnRange(1); ok {
		t.Fatal("empty table must report no column range")
	}
}

// TestSelectEqZoneSkipMatchesGeneric checks the segment-skipping SelectEq
// returns exactly the generic scan's result on a clustered column (where
// most segments are provably skippable) and on an unclustered one.
func TestSelectEqZoneSkipMatchesGeneric(t *testing.T) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "bucket", Kind: KindFeature, Domain: NewDomain("b", 64)},
		Column{Name: "noise", Kind: KindFeature, Domain: NewDomain("n", 16)},
	)
	r := rng.New(9)
	tab := NewTable("src", schema, 0)
	for i := 0; i < 500; i++ {
		tab.MustAppendRow([]Value{Value(r.Intn(2)), Value(i / 8 % 64), Value(r.Intn(16))})
	}
	st := segmentedFromTable(t, tab, SegmentOptions{SegmentSize: 48})
	for _, col := range []int{1, 2} {
		for _, v := range []Value{0, 7, 13} {
			want, err := SelectEq(tab, "w", col, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SelectEq(st, "g", col, v)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRelation(t, want, got)
		}
	}
	if _, err := SelectEq(st, "bad", 1, 9999); err == nil {
		t.Fatal("out-of-domain value must error")
	}
}

// TestMaterializeSegmented checks the chunked scanner drain and the At
// fallback against Materialize, both for many segments and for one segment
// larger than the relation (the default engine's layout), plus the empty
// edge on both paths.
func TestMaterializeSegmented(t *testing.T) {
	ss := testStar(t, 200, 13, 7, 21)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	rowT := Materialize(jv, "rows")
	for _, segSize := range []int{37, 256} {
		for name, src := range map[string]Relation{"scanner": jv, "fallback": noScan{jv}} {
			segT, err := MaterializeSegmented(src, "segs", SegmentOptions{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRelation(t, rowT, segT)
			if want := (200 + segSize - 1) / segSize; segT.NumSegments() != want {
				t.Fatalf("%s segsize %d: %d segments, want %d", name, segSize, segT.NumSegments(), want)
			}
		}
	}

	schema := MustSchema(Column{Name: "x", Kind: KindFeature, Domain: NewDomain("x", 4)})
	emptyTab := NewTable("empty", schema, 0)
	for name, src := range map[string]Relation{"scanner": emptyTab, "fallback": noScan{emptyTab}} {
		empty, err := MaterializeSegmented(src, "e", SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if empty.NumRows() != 0 || empty.NumSegments() != 0 {
			t.Fatalf("%s: empty materialize: %d rows, %d segments", name, empty.NumRows(), empty.NumSegments())
		}
	}
}

// TestMaterializedTailCapacity pins the allocation rule of
// MaterializeSegmented: every tail is allocated once, with room for exactly
// the rows still to drain when that is less than a segment. A segment size
// far above the row count therefore costs one row-count-sized slab per
// column, and the tail opened after the last seal is empty.
func TestMaterializedTailCapacity(t *testing.T) {
	tab := randomWideTable(t, 150, 5)
	for _, tt := range []struct{ segSize, tailRows int }{
		{1 << 20, 150}, // one segment, far larger than the table
		{256, 150},     // the default engine's power-of-two size
		{64, 22},       // two sealed segments, then a short tail
		{50, 0},        // exact fill: the last seal opens an empty tail
	} {
		st, err := MaterializeSegmented(tab, "cap", SegmentOptions{SegmentSize: tt.segSize})
		if err != nil {
			t.Fatal(err)
		}
		if st.tail.n != tt.tailRows {
			t.Fatalf("segsize %d: tail holds %d rows, want %d", tt.segSize, st.tail.n, tt.tailRows)
		}
		for j := range st.tail.cols {
			if c := colCap(&st.tail.cols[j]); c != tt.tailRows {
				t.Fatalf("segsize %d column %d: tail capacity %d, want %d", tt.segSize, j, c, tt.tailRows)
			}
		}
	}
}

// colCap returns the capacity of a column's backing slice.
func colCap(c *colData) int {
	switch {
	case c.u8 != nil:
		return cap(c.u8)
	case c.u16 != nil:
		return cap(c.u16)
	default:
		return cap(c.u32)
	}
}

// TestSegmentedViaSelectView checks the fused double-remap gather path a
// split view routes through the segmented engine.
func TestSegmentedViaSelectView(t *testing.T) {
	tab := randomWideTable(t, 300, 21)
	st := segmentedFromTable(t, tab, SegmentOptions{SegmentSize: 64})
	r := rng.New(4)
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = r.Intn(tab.NumRows())
	}
	want, err := NewSelectView(tab, idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSelectView(st, idx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, want, got)
	// The view forwards the segmented source's column range.
	lo, hi, ok := got.ColumnRange(0)
	wlo, whi, wok := st.ColumnRange(0)
	if !ok || !wok || lo != wlo || hi != whi {
		t.Fatalf("view ColumnRange = [%d,%d] ok=%v, source [%d,%d] ok=%v", lo, hi, ok, wlo, whi, wok)
	}
}

// TestReadCSVIntoSegmented round-trips a table through CSV into a segmented
// table whose segment size forces several seals mid-stream.
func TestReadCSVIntoSegmented(t *testing.T) {
	tab := randomWideTable(t, 250, 31)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	st, err := NewSegmentedTable("csv", tab.Schema(), SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCSVInto(bytes.NewReader(buf.Bytes()), st); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, st)
}

// TestSegmentedOutOfCoreLifecycle checks the heap file exists while the
// table lives, eviction keeps the resident set near the budget during bulk
// reads, and Close removes the file.
func TestSegmentedOutOfCoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	tab := randomWideTable(t, 400, 13)
	st := segmentedFromTable(t, tab, SegmentOptions{SegmentSize: 32, SpillDir: dir, CacheBytes: 2048})
	path := st.pager.Path()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("heap file missing while table alive: %v", err)
	}
	buf := make([]Value, tab.NumRows())
	for j := 0; j < tab.Schema().Width(); j++ {
		st.ScanColumn(j, 0, buf)
	}
	if rb := st.ResidentBytes(); rb > 8*1024 {
		t.Fatalf("resident bytes %d, want near the 2048 budget", rb)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("heap file must be removed on Close, stat err = %v", err)
	}
}

// TestSegmentedConcurrentSpilledReads hammers a spilled table under a cache
// budget that holds only a fraction of the segments, from many goroutines
// mixing scans, gathers, and point reads — the pin/unpin-vs-evict race the
// LRU cache must survive. Run under -race this is the satellite coverage
// for concurrent pin/unpin while scans are in flight.
func TestSegmentedConcurrentSpilledReads(t *testing.T) {
	const segSize = 64
	tab := randomWideTable(t, 8*segSize+11, 17)
	st := segmentedFromTable(t, tab, SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    t.TempDir(),
		CacheBytes:  3 * 1024,
	})
	defer st.Close()
	n := st.NumRows()
	w := st.Schema().Width()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			buf := make([]Value, 200)
			rows := make([]int, 64)
			rowBuf := make([]Value, w)
			for iter := 0; iter < 30; iter++ {
				j := r.Intn(w)
				from := r.Intn(n)
				m := st.ScanColumn(j, from, buf)
				for k := 0; k < m; k++ {
					if want := tab.At(from+k, j); buf[k] != want {
						t.Errorf("g%d: ScanColumn(%d,%d)[%d] = %d want %d", g, j, from, k, buf[k], want)
						return
					}
				}
				for k := range rows {
					rows[k] = r.Intn(n)
				}
				st.GatherColumn(buf[:len(rows)], j, rows)
				for k, row := range rows {
					if want := tab.At(row, j); buf[k] != want {
						t.Errorf("g%d: GatherColumn[%d] = %d want %d", g, k, buf[k], want)
						return
					}
				}
				i := r.Intn(n)
				st.CopyRow(rowBuf, i)
				for j := 0; j < w; j++ {
					if want := tab.At(i, j); rowBuf[j] != want {
						t.Errorf("g%d: CopyRow(%d)[%d] = %d want %d", g, i, j, rowBuf[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSegmentCodecRejectsCorruption checks decodeSegment errors (never
// panics) on truncated or mangled blobs — heap files are external state.
func TestSegmentCodecRejectsCorruption(t *testing.T) {
	s := &segment{n: 4, cols: make([]colData, 2)}
	s.cols[0] = newColData(10, 4)
	s.cols[1] = newColData(70000, 4)
	for i := 0; i < 4; i++ {
		s.cols[0].append(Value(i))
		s.cols[1].append(Value(i * 1000))
	}
	blob := encodeSegment(s)
	back, err := decodeSegment(blob, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if back.cols[0].at(i) != Value(i) || back.cols[1].at(i) != Value(i*1000) {
			t.Fatalf("round trip diverged at row %d", i)
		}
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"badmagic":  func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"shorthdr":  func(b []byte) []byte { return b[:6] },
		"badrows": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[4] = 99
			return b
		},
	} {
		if _, err := decodeSegment(mangle(append([]byte(nil), blob...)), 4, 2); err == nil {
			t.Fatalf("%s: corrupted blob must error", name)
		}
	}
}

// FuzzSegmentedEquivalence feeds arbitrary row bytes and an arbitrary
// segment size into the segmented engine and requires it to accept and
// reject the same rows as the row-major Table, and every accepted row set to
// read back identically — the seeds pin the boundary cases (empty, single
// row, segsize±1, exact fill, multi-segment, and one segment larger than
// the table with a rejected row inside).
func FuzzSegmentedEquivalence(f *testing.F) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "a", Kind: KindFeature, Domain: NewDomain("a", 300)},
		Column{Name: "b", Kind: KindFeature, Domain: NewDomain("b", 5)},
	)
	w := schema.Width()
	rowsOf := func(rows ...[]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	valid := []byte{1, 200, 3}
	f.Add(uint8(4), []byte{})                                         // empty
	f.Add(uint8(4), rowsOf(valid))                                    // single row
	f.Add(uint8(4), rowsOf(valid, valid, valid))                      // segsize-1
	f.Add(uint8(4), rowsOf(valid, valid, valid, valid))               // exact fill
	f.Add(uint8(4), rowsOf(valid, valid, valid, valid, valid))        // segsize+1
	f.Add(uint8(2), rowsOf(valid, valid, valid, valid, valid, valid)) // multi-segment
	f.Add(uint8(1), rowsOf(valid, valid, valid))                      // row-per-segment
	f.Add(uint8(0), rowsOf(valid, valid))                             // default size
	f.Add(uint8(8), rowsOf(valid, []byte{0, 1, 9}, valid))            // one open segment, rejected row
	f.Fuzz(func(t *testing.T, segSize uint8, raw []byte) {
		n := len(raw) / w
		rt := NewTable("rt", schema, n)
		st, err := NewSegmentedTable("st", schema, SegmentOptions{SegmentSize: int(segSize)})
		if err != nil {
			t.Fatal(err)
		}
		row := make([]Value, w)
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				row[j] = Value(raw[i*w+j])
			}
			errR := rt.AppendRow(row)
			errS := st.AppendRow(row)
			if (errR == nil) != (errS == nil) {
				t.Fatalf("engines disagree on row %v: row-major err %v, segmented err %v", row, errR, errS)
			}
		}
		if rt.NumRows() != st.NumRows() {
			t.Fatalf("row counts diverged: %d vs %d", rt.NumRows(), st.NumRows())
		}
		for i := 0; i < rt.NumRows(); i++ {
			for j := 0; j < w; j++ {
				if rt.At(i, j) != st.At(i, j) {
					t.Fatalf("At(%d,%d) diverged", i, j)
				}
			}
		}
		bufR := make([]Value, 3)
		bufS := make([]Value, 3)
		for j := 0; j < w; j++ {
			for from := 0; from <= rt.NumRows(); from += 2 {
				mR := rt.ScanColumn(j, from, bufR)
				mS := st.ScanColumn(j, from, bufS)
				if mR != mS {
					t.Fatalf("scan lengths diverged at (%d,%d): %d vs %d", j, from, mR, mS)
				}
				for k := 0; k < mR; k++ {
					if bufR[k] != bufS[k] {
						t.Fatalf("scan values diverged at (%d,%d)[%d]", j, from, k)
					}
				}
			}
			// Sealed zone maps must be consistent with the data they cover.
			for s := 0; s < st.NumSegments(); s++ {
				z, ok := st.SegmentZone(s, j)
				if !ok {
					continue
				}
				lo, hi := st.SegmentRows(s)
				for i := lo; i < hi; i++ {
					v := st.At(i, j)
					if !z.MayContain(v) {
						t.Fatalf("zone map %+v of segment %d column %d excludes present value %d", z, s, j, v)
					}
				}
			}
		}
	})
}
