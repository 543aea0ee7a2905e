// Package mltest holds fixtures shared by the learner packages' tests.
package mltest

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
)

// Engines copies ds into one relation per storage engine and returns the
// dataset read back through each: "row" (a row-major relational.Table),
// "col" (a relational.SegmentedTable whose one segment holds every row, the
// default engine's layout) and "seg" (a relational.SegmentedTable cut into
// segments of segSize rows, so scans cross segment boundaries).
// Every copy carries ds's cells, labels, cardinalities and FK flags, so a
// learner must fit bit-identically on all of them and on ds itself.
func Engines(tb testing.TB, ds *ml.Dataset, segSize int) map[string]*ml.Dataset {
	tb.Helper()
	k := ds.NumFeatures()
	cols := []relational.Column{{Name: "y", Kind: relational.KindTarget, Domain: relational.NewDomain("y", 2)}}
	featCols := make([]int, k)
	for j, f := range ds.Features {
		name := fmt.Sprintf("x%d", j)
		c := relational.Column{Name: name, Kind: relational.KindFeature, Domain: relational.NewDomain(name, f.Cardinality)}
		if f.IsFK {
			c.Kind, c.Refs = relational.KindForeignKey, name+"_dim"
		}
		cols = append(cols, c)
		featCols[j] = j + 1
	}
	schema, err := relational.NewSchema(cols...)
	if err != nil {
		tb.Fatal(err)
	}
	n := ds.NumExamples()
	tab := relational.NewTable("rows", schema, n)
	row := make([]relational.Value, k+1)
	for i := 0; i < n; i++ {
		row[0] = relational.Value(ds.Label(i))
		ds.RowInto(row[1:], i)
		tab.MustAppendRow(row)
	}
	slab, err := relational.MaterializeSegmented(tab, "cols", relational.SegmentOptions{SegmentSize: 1 << bits.Len(uint(n))})
	if err != nil {
		tb.Fatal(err)
	}
	seg, err := relational.MaterializeSegmented(tab, "segs", relational.SegmentOptions{SegmentSize: segSize})
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string]*ml.Dataset, 3)
	for name, rel := range map[string]relational.Relation{
		"row": tab,
		"col": slab,
		"seg": seg,
	} {
		d, err := ml.FromRelation(rel, featCols, 0)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = d
	}
	return out
}
