package tree

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
)

// rowFit is the historical row-at-a-time Fit, kept as the oracle the batched
// split search is pinned against. Labels are read per example; each node
// tallies every feature (no zone-map skip) into a map through per-cell
// Dataset.At and routes its examples through per-cell At. The tallies feed
// evalFeature, the partition scan both searches have always shared.
func rowFit(cfg Config, ds *ml.Dataset) *Tree {
	t := New(cfg)
	t.nFeatures = ds.NumFeatures()
	idx := make([]int, ds.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	rootImpurity := t.impurity(rowCountPos(ds, idx), len(idx))
	if rootImpurity == 0 {
		rootImpurity = 1
	}
	rowGrow(t, ds, idx, rootImpurity, 0)
	return t
}

func rowCountPos(ds *ml.Dataset, idx []int) int {
	pos := 0
	for _, i := range idx {
		if ds.Label(i) == 1 {
			pos++
		}
	}
	return pos
}

// rowGrow is grow with the historical per-cell split search and routing.
func rowGrow(t *Tree, ds *ml.Dataset, idx []int, rootImpurity float64, depth int) int {
	pos := rowCountPos(ds, idx)
	me := len(t.nodes)
	pred := int8(0)
	if 2*pos >= len(idx) {
		pred = 1
	}
	t.nodes = append(t.nodes, node{
		feature: -1, leftChild: -1, rightChild: -1,
		prediction: pred, n: len(idx),
	})
	if pos == 0 || pos == len(idx) || len(idx) < t.cfg.MinSplit {
		return me
	}
	if t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth {
		return me
	}
	best := rowBestSplit(t, ds, idx)
	if best == nil || t.cfg.CP > 0 && best.gain < t.cfg.CP*rootImpurity {
		return me
	}
	var left, right []int
	for _, i := range idx {
		if best.goLeft[ds.At(i, best.feature)] {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return me
	}
	t.nodes[me].feature = best.feature
	t.nodes[me].goLeft = best.goLeft
	t.nodes[me].nLeft = len(left)
	lc := rowGrow(t, ds, left, rootImpurity, depth+1)
	rc := rowGrow(t, ds, right, rootImpurity, depth+1)
	t.nodes[me].leftChild = lc
	t.nodes[me].rightChild = rc
	return me
}

// rowBestSplit is the historical search: per feature, a map tally of
// (count, positives) over the node's examples via per-cell At.
func rowBestSplit(t *Tree, ds *ml.Dataset, idx []int) *split {
	var best *split
	nodeN := len(idx)
	nodePos := rowCountPos(ds, idx)
	nodeImp := t.impurity(nodePos, nodeN)
	totalN := float64(ds.NumExamples())
	for j := 0; j < ds.NumFeatures(); j++ {
		cnt := make(map[relational.Value][2]int)
		for _, i := range idx {
			v := ds.At(i, j)
			c := cnt[v]
			c[0]++
			if ds.Label(i) == 1 {
				c[1]++
			}
			cnt[v] = c
		}
		if len(cnt) < 2 {
			continue
		}
		vals := make([]vc, 0, len(cnt))
		for v, c := range cnt {
			vals = append(vals, vc{v: v, n: c[0], pos: c[1], rate: float64(c[1]) / float64(c[0])})
		}
		best = t.evalFeature(j, vals, nodeN, nodePos, nodeImp, totalN, best)
	}
	return best
}

// requireSameTree fails unless got and want hold identical node arrays:
// split features, routing maps, children, predictions and counts.
func requireSameTree(t *testing.T, label string, got, want *Tree) {
	t.Helper()
	if gn, wn := len(got.nodes), len(want.nodes); gn != wn {
		t.Fatalf("%s: node counts diverged: %d vs oracle %d", label, gn, wn)
	}
	for k := range got.nodes {
		g, w := &got.nodes[k], &want.nodes[k]
		if g.feature != w.feature || g.leftChild != w.leftChild ||
			g.rightChild != w.rightChild || g.prediction != w.prediction ||
			g.n != w.n || g.nLeft != w.nLeft {
			t.Fatalf("%s: node %d diverged: %+v vs oracle %+v", label, k, g, w)
		}
		if len(g.goLeft) != len(w.goLeft) {
			t.Fatalf("%s: node %d goLeft sizes diverged", label, k)
		}
		for v, l := range g.goLeft {
			if wl, ok := w.goLeft[v]; !ok || wl != l {
				t.Fatalf("%s: node %d goLeft[%d] diverged", label, k, v)
			}
		}
	}
}
