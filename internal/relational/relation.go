package relational

import "fmt"

// Relation is the read interface over rectangular categorical data: anything
// with a schema, a row count, and random cell access. *Table implements it
// with contiguous storage; JoinView, SelectView, and ProjectView implement it
// lazily, resolving accesses through foreign-key or index indirection without
// materializing the result. Learners and experiment harnesses consume data
// exclusively through this interface (via ml.FromRelation), which is what
// lets a JoinAll pipeline run without ever paying for the joined table.
//
// Implementations must be safe for concurrent readers: At and CopyRow may be
// called from multiple goroutines once the relation is constructed.
type Relation interface {
	// Schema describes the columns.
	Schema() *Schema
	// NumRows returns the row count.
	NumRows() int
	// At returns the value at (row, col). Both indices must be in range.
	At(row, col int) Value
	// CopyRow copies row i into dst, which must have length >= the schema
	// width, and returns dst truncated to the width. It is the bulk fast
	// path: implementations resolve any per-row indirection (FK lookups,
	// index remaps) once instead of once per cell.
	CopyRow(dst []Value, row int) []Value
}

// ColumnRanger is implemented by relations that can report the observed
// [min, max] value range of a column without scanning it — SegmentedTable
// keeps running bounds as rows append; views forward to their source. ok is false when no
// bound is known (empty relation, source without statistics). The returned
// range may be wider than the rows actually visible through the relation
// (a SelectView forwards its source's bounds), so consumers may use it only
// for sound over-approximations: min == max proves a column constant, a
// value outside [min, max] proves absence, but the bounds themselves are
// not guaranteed tight.
type ColumnRanger interface {
	ColumnRange(col int) (min, max Value, ok bool)
}

// copyRowGeneric is the At-based CopyRow fallback shared by views.
func copyRowGeneric(r Relation, dst []Value, row int) []Value {
	w := r.Schema().Width()
	dst = dst[:w]
	for j := 0; j < w; j++ {
		dst[j] = r.At(row, j)
	}
	return dst
}

// Materialize evaluates any relation into a contiguous Table. It is the
// explicit boundary between the lazy, zero-copy world and code that needs
// physical storage (CSV export, repeated random scans where indirection
// costs dominate, the FD verifiers' O(1)-per-cell guarantees). The result
// is always an independent snapshot: it never aliases the source, so later
// writes to the source are not observed.
func Materialize(r Relation, name string) *Table {
	schema := r.Schema()
	w := schema.Width()
	n := r.NumRows()
	out := NewTable(name, schema, n)
	out.rows = out.rows[:n*w]
	for i := 0; i < n; i++ {
		r.CopyRow(out.rows[i*w:(i+1)*w], i)
	}
	return out
}

// SelectView is a lazy row-subset view over any relation: row i of the view
// is row idx[i] of the source. Indices may repeat. It is the lazy analogue of
// Table.SelectRows and the substrate of train/validation/test splits.
type SelectView struct {
	src Relation
	idx []int
}

// NewSelectView validates the indices and wraps the source. The index slice
// is retained, not copied; callers must not mutate it afterwards.
func NewSelectView(src Relation, idx []int) (*SelectView, error) {
	n := src.NumRows()
	for k, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("relational: select view index %d: row %d outside [0,%d)", k, i, n)
		}
	}
	return &SelectView{src: src, idx: idx}, nil
}

// Schema implements Relation.
func (v *SelectView) Schema() *Schema { return v.src.Schema() }

// NumRows implements Relation.
func (v *SelectView) NumRows() int { return len(v.idx) }

// At implements Relation.
func (v *SelectView) At(row, col int) Value { return v.src.At(v.idx[row], col) }

// CopyRow implements Relation.
func (v *SelectView) CopyRow(dst []Value, row int) []Value {
	return v.src.CopyRow(dst, v.idx[row])
}

// ScanColumn implements ColumnScanner: a contiguous slice of the view's
// index remap becomes a gather against the source. The source's gather
// devirtualizes the inner loop, so a split-over-join scan costs one
// interface call per morsel, not per cell.
func (v *SelectView) ScanColumn(col int, from int, dst []Value) int {
	m := scanLen(len(v.idx), from, len(dst))
	if m == 0 {
		return 0
	}
	rows := v.idx[from : from+m]
	if g, ok := v.src.(ColumnGatherer); ok {
		g.GatherColumn(dst[:m], col, rows)
		return m
	}
	for k, r := range rows {
		dst[k] = v.src.At(r, col)
	}
	return m
}

// GatherColumn implements ColumnGatherer, composing the view's row remap
// with the caller's. The physical tables and JoinView get a fused
// double-indirection loop; other sources fall back to At.
func (v *SelectView) GatherColumn(dst []Value, col int, rows []int) {
	switch s := v.src.(type) {
	case *Table:
		s.GatherColumnVia(dst, col, v.idx, rows)
	case *SegmentedTable:
		s.GatherColumnVia(dst, col, v.idx, rows)
	case *JoinView:
		s.GatherColumnVia(dst, col, v.idx, rows)
	default:
		dst = dst[:len(rows)]
		for k, r := range rows {
			dst[k] = v.src.At(v.idx[r], col)
		}
	}
}

// ColumnRange implements ColumnRanger by forwarding the source's bounds.
// The view's rows are a subset of the source's, so the source range is a
// sound (possibly loose) over-approximation of the view's.
func (v *SelectView) ColumnRange(col int) (min, max Value, ok bool) {
	if cr, k := v.src.(ColumnRanger); k && len(v.idx) > 0 {
		return cr.ColumnRange(col)
	}
	return 0, 0, false
}

// ProjectView is a lazy column-subset view (relational π without
// materialization): column j of the view is column cols[j] of the source.
type ProjectView struct {
	src    Relation
	cols   []int
	schema *Schema
}

// NewProjectView builds the projected schema and wraps the source. The cols
// slice is retained, not copied.
func NewProjectView(src Relation, cols []int) (*ProjectView, error) {
	srcSchema := src.Schema()
	newCols := make([]Column, len(cols))
	for j, c := range cols {
		if c < 0 || c >= srcSchema.Width() {
			return nil, fmt.Errorf("relational: project view column %d outside [0,%d)", c, srcSchema.Width())
		}
		newCols[j] = srcSchema.Cols[c]
	}
	schema, err := NewSchema(newCols...)
	if err != nil {
		return nil, err
	}
	return &ProjectView{src: src, cols: cols, schema: schema}, nil
}

// Schema implements Relation.
func (v *ProjectView) Schema() *Schema { return v.schema }

// NumRows implements Relation.
func (v *ProjectView) NumRows() int { return v.src.NumRows() }

// At implements Relation.
func (v *ProjectView) At(row, col int) Value { return v.src.At(row, v.cols[col]) }

// CopyRow implements Relation.
func (v *ProjectView) CopyRow(dst []Value, row int) []Value {
	dst = dst[:len(v.cols)]
	for j, c := range v.cols {
		dst[j] = v.src.At(row, c)
	}
	return dst
}

// ScanColumn implements ColumnScanner: a column remap, then forward.
func (v *ProjectView) ScanColumn(col int, from int, dst []Value) int {
	if cs, ok := v.src.(ColumnScanner); ok {
		return cs.ScanColumn(v.cols[col], from, dst)
	}
	m := scanLen(v.src.NumRows(), from, len(dst))
	c := v.cols[col]
	for k := 0; k < m; k++ {
		dst[k] = v.src.At(from+k, c)
	}
	return m
}

// ColumnRange implements ColumnRanger: a column remap, then forward.
func (v *ProjectView) ColumnRange(col int) (min, max Value, ok bool) {
	if cr, k := v.src.(ColumnRanger); k {
		return cr.ColumnRange(v.cols[col])
	}
	return 0, 0, false
}

// GatherColumn implements ColumnGatherer.
func (v *ProjectView) GatherColumn(dst []Value, col int, rows []int) {
	if g, ok := v.src.(ColumnGatherer); ok {
		g.GatherColumn(dst, v.cols[col], rows)
		return
	}
	dst = dst[:len(rows)]
	c := v.cols[col]
	for k, r := range rows {
		dst[k] = v.src.At(r, c)
	}
}
