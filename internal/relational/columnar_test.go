package relational

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// randomWideTable builds a table whose column domains force all three
// storage widths (u8, u16, u32) in the columnar engine.
func randomWideTable(t testing.TB, n int, seed uint64) *Table {
	t.Helper()
	r := rng.New(seed)
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "narrow", Kind: KindFeature, Domain: NewDomain("d4", 4)},
		Column{Name: "edge8", Kind: KindFeature, Domain: NewDomain("d256", 256)},
		Column{Name: "mid", Kind: KindFeature, Domain: NewDomain("d300", 300)},
		Column{Name: "edge16", Kind: KindFeature, Domain: NewDomain("d65536", 1<<16)},
		Column{Name: "wide", Kind: KindFeature, Domain: NewDomain("d70000", 70000)},
	)
	tab := NewTable("wide", schema, n)
	for i := 0; i < n; i++ {
		tab.MustAppendRow([]Value{
			Value(r.Intn(2)), Value(r.Intn(4)), Value(r.Intn(256)),
			Value(r.Intn(300)), Value(r.Intn(1 << 16)), Value(r.Intn(70000)),
		})
	}
	return tab
}

// requireSameRelation checks two relations cell-for-cell through At,
// CopyRow, ScanColumn, and GatherColumn.
func requireSameRelation(t *testing.T, want, got Relation) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count: want %d got %d", want.NumRows(), got.NumRows())
	}
	w := want.Schema().Width()
	if got.Schema().Width() != w {
		t.Fatalf("width: want %d got %d", w, got.Schema().Width())
	}
	n := want.NumRows()
	rowW := make([]Value, w)
	rowG := make([]Value, w)
	for i := 0; i < n; i++ {
		want.CopyRow(rowW, i)
		got.CopyRow(rowG, i)
		for j := 0; j < w; j++ {
			if rowW[j] != rowG[j] {
				t.Fatalf("CopyRow(%d)[%d]: want %d got %d", i, j, rowW[j], rowG[j])
			}
			if a, b := want.At(i, j), got.At(i, j); a != b {
				t.Fatalf("At(%d,%d): want %d got %d", i, j, a, b)
			}
		}
	}
	ws, wok := want.(ColumnScanner)
	gs, gok := got.(ColumnScanner)
	if !wok || !gok {
		t.Fatalf("both relations must implement ColumnScanner (%T %v, %T %v)", want, wok, got, gok)
	}
	// Scan with deliberately awkward offsets and a short dst to exercise the
	// clamping contract.
	for j := 0; j < w; j++ {
		for _, from := range []int{0, 1, n / 3, n - 1, n, n + 5} {
			if from < 0 { // n == 0 makes n-1 negative; offsets must be in range
				continue
			}
			bufW := make([]Value, 7)
			bufG := make([]Value, 7)
			mw := ws.ScanColumn(j, from, bufW)
			mg := gs.ScanColumn(j, from, bufG)
			if mw != mg {
				t.Fatalf("ScanColumn(%d, %d) length: want %d got %d", j, from, mw, mg)
			}
			for k := 0; k < mw; k++ {
				if bufW[k] != bufG[k] {
					t.Fatalf("ScanColumn(%d, %d)[%d]: want %d got %d", j, from, k, bufW[k], bufG[k])
				}
			}
		}
	}
	wg, wok := want.(ColumnGatherer)
	gg, gok := got.(ColumnGatherer)
	if !wok || !gok {
		t.Fatalf("both relations must implement ColumnGatherer (%T %v, %T %v)", want, wok, got, gok)
	}
	if n > 2 {
		rows := []int{n - 1, 0, n / 2, 0, n - 1}
		bufW := make([]Value, len(rows))
		bufG := make([]Value, len(rows))
		for j := 0; j < w; j++ {
			wg.GatherColumn(bufW, j, rows)
			gg.GatherColumn(bufG, j, rows)
			for k := range rows {
				if bufW[k] != bufG[k] {
					t.Fatalf("GatherColumn(%d)[%d]: want %d got %d", j, k, bufW[k], bufG[k])
				}
			}
		}
	}
}

// TestColumnarAppendRowsMatchesAppendRow checks the bulk append path of
// both engines, the columnar one with every row in its open tail.
func TestColumnarAppendRowsMatchesAppendRow(t *testing.T) {
	tab := randomWideTable(t, 100, 3)
	w := tab.Schema().Width()
	block := make([]Value, 0, tab.NumRows()*w)
	row := make([]Value, w)
	for i := 0; i < tab.NumRows(); i++ {
		block = append(block, tab.CopyRow(row, i)...)
	}
	ct, err := NewSegmentedTable("bulk", tab.Schema(), SegmentOptions{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, ct)
	if ct.NumSegments() != 1 || ct.ResidentBytes() != 0 {
		t.Fatalf("%d segments, %d sealed bytes; want every row in the open tail", ct.NumSegments(), ct.ResidentBytes())
	}

	rt := NewTable("bulk_row", tab.Schema(), tab.NumRows())
	if err := rt.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, rt)
}

func TestAppendRowsRejectsBadInput(t *testing.T) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "x", Kind: KindFeature, Domain: NewDomain("x", 4)},
	)
	for _, tt := range []struct {
		name  string
		block []Value
		want  string
	}{
		{"ragged", []Value{0, 1, 0}, "multiple of width"},
		{"negative", []Value{0, -1}, "outside domain"},
		{"toobig", []Value{0, 1, 1, 4}, "outside domain"},
	} {
		rt := NewTable("t", schema, 1)
		if err := rt.AppendRows(tt.block); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Fatalf("%s: Table.AppendRows err = %v, want %q", tt.name, err, tt.want)
		}
		if rt.NumRows() != 0 {
			t.Fatalf("%s: failed append must not add rows", tt.name)
		}
		for _, segSize := range []int{1, 4, 64} {
			st, err := NewSegmentedTable("t", schema, SegmentOptions{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendRows(tt.block); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("%s: SegmentedTable(%d).AppendRows err = %v, want %q", tt.name, segSize, err, tt.want)
			}
			if st.NumRows() != 0 || st.NumSegments() != 0 {
				t.Fatalf("%s: failed append must not add rows", tt.name)
			}
		}
	}
}

// TestViewStackScanColumn pins the tentpole contract: ScanColumn through the
// whole view stack — JoinView (FK gather), SelectView (row remap),
// ProjectView (column remap), stacked combinations — agrees with At on the
// same relation, for both physical engines underneath the split views (the
// columnar one as a single segment).
func TestViewStackScanColumn(t *testing.T) {
	ss := testStar(t, 300, 17, 29, 11)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = r.Intn(jv.NumRows())
	}
	sel, err := NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewProjectView(sel, []int{3, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := MaterializeSegmented(jv, "cols", SegmentOptions{SegmentSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	selCol, err := NewSelectView(cols, idx)
	if err != nil {
		t.Fatal(err)
	}

	for name, rel := range map[string]Relation{
		"join": jv, "select-over-join": sel, "project-over-select": proj,
		"columnar": cols, "select-over-columnar": selCol,
	} {
		cs := rel.(ColumnScanner)
		w := rel.Schema().Width()
		n := rel.NumRows()
		buf := make([]Value, 13)
		for j := 0; j < w; j++ {
			for from := 0; from <= n; from += 13 {
				m := cs.ScanColumn(j, from, buf)
				wantM := n - from
				if wantM > len(buf) {
					wantM = len(buf)
				}
				if m != wantM {
					t.Fatalf("%s: ScanColumn(%d,%d) returned %d want %d", name, j, from, m, wantM)
				}
				for k := 0; k < m; k++ {
					if want := rel.At(from+k, j); buf[k] != want {
						t.Fatalf("%s: ScanColumn(%d,%d)[%d] = %d, At = %d", name, j, from, k, buf[k], want)
					}
				}
			}
		}
	}
}

// noScan hides every optional batch interface of the wrapped relation.
type noScan struct{ r Relation }

func (n noScan) Schema() *Schema                    { return n.r.Schema() }
func (n noScan) NumRows() int                       { return n.r.NumRows() }
func (n noScan) At(i, j int) Value                  { return n.r.At(i, j) }
func (n noScan) CopyRow(dst []Value, i int) []Value { return n.r.CopyRow(dst, i) }

// TestSelectViewScanFallback checks the At fallback inside the view
// forwarding (source implements neither ColumnScanner nor ColumnGatherer).
func TestSelectViewScanFallback(t *testing.T) {
	ss := testStar(t, 150, 11, 5, 31)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{5, 0, 149, 7, 7, 31}
	fast, err := NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewSelectView(noScan{jv}, idx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, fast, slow)

	pFast, err := NewProjectView(jv, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	pSlow, err := NewProjectView(noScan{jv}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, pFast, pSlow)
}
