// Package dtree implements the CART decision-tree classifier (Gini
// impurity) that the paper uses for rule-based RAQO: the authors ran
// scikit-learn's decision-tree classifier over switch-point data to produce
// the Figure 11 trees; this package reproduces the algorithm, the
// scikit-style rendering, and a pessimistic size-based pruning pass in the
// spirit of Mansour (ICML 1997), which the paper cites as the pruning
// technique that could be applied.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is one labeled training row.
type Sample struct {
	Features []float64
	Label    int
}

// Tree is a node of the fitted classifier. Leaf nodes have Left == nil.
type Tree struct {
	// Split (internal nodes): go Left when Features[Feature] <= Threshold.
	Feature   int
	Threshold float64
	Left      *Tree
	Right     *Tree

	// Node statistics, in scikit's rendering vocabulary.
	Gini    float64
	Samples int
	Value   []int // per-class sample counts at this node
	Class   int   // majority class
}

// IsLeaf reports whether the node is a leaf.
func (t *Tree) IsLeaf() bool { return t.Left == nil }

// Train fits a CART classifier. Labels must be in [0, numClasses), and
// maxDepth bounds the tree depth (0 = unlimited).
func Train(samples []Sample, numClasses, maxDepth int) (*Tree, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dtree: no samples")
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("dtree: need at least 2 classes, got %d", numClasses)
	}
	nf := len(samples[0].Features)
	if nf == 0 {
		return nil, fmt.Errorf("dtree: empty feature vectors")
	}
	for i, s := range samples {
		if len(s.Features) != nf {
			return nil, fmt.Errorf("dtree: sample %d has %d features, want %d", i, len(s.Features), nf)
		}
		if s.Label < 0 || s.Label >= numClasses {
			return nil, fmt.Errorf("dtree: sample %d label %d out of [0,%d)", i, s.Label, numClasses)
		}
	}
	rows := make([]*Sample, len(samples))
	for i := range samples {
		rows[i] = &samples[i]
	}
	return grow(rows, numClasses, maxDepth, 0), nil
}

func counts(rows []*Sample, numClasses int) []int {
	c := make([]int, numClasses)
	for _, r := range rows {
		c[r.Label]++
	}
	return c
}

func gini(c []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, k := range c {
		p := float64(k) / float64(n)
		g -= p * p
	}
	return g
}

func majority(c []int) int {
	best, bestN := 0, -1
	for i, k := range c {
		if k > bestN {
			best, bestN = i, k
		}
	}
	return best
}

func grow(rows []*Sample, numClasses, maxDepth, depth int) *Tree {
	c := counts(rows, numClasses)
	node := &Tree{
		Gini:    gini(c, len(rows)),
		Samples: len(rows),
		Value:   c,
		Class:   majority(c),
	}
	if node.Gini == 0 || (maxDepth > 0 && depth >= maxDepth) {
		return node
	}
	feat, thr, ok := bestSplit(rows, numClasses)
	if !ok {
		return node
	}
	var left, right []*Sample
	for _, r := range rows {
		if r.Features[feat] <= thr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	node.Feature = feat
	node.Threshold = thr
	node.Left = grow(left, numClasses, maxDepth, depth+1)
	node.Right = grow(right, numClasses, maxDepth, depth+1)
	return node
}

// bestSplit scans every feature and every midpoint between consecutive
// distinct values, minimizing weighted child Gini. Like scikit-learn, a
// zero-gain split is still taken at an impure node (XOR-style data needs
// two levels before any gain materializes); recursion terminates because
// every split strictly shrinks both children.
func bestSplit(rows []*Sample, numClasses int) (feat int, thr float64, ok bool) {
	n := len(rows)
	bestImp := math.Inf(1)
	nf := len(rows[0].Features)
	order := make([]*Sample, n)
	copy(order, rows)
	for f := 0; f < nf; f++ {
		f := f
		sort.Slice(order, func(i, j int) bool { return order[i].Features[f] < order[j].Features[f] })
		leftC := make([]int, numClasses)
		rightC := counts(order, numClasses)
		for i := 0; i < n-1; i++ {
			leftC[order[i].Label]++
			rightC[order[i].Label]--
			if order[i].Features[f] == order[i+1].Features[f] {
				continue
			}
			nl, nr := i+1, n-i-1
			imp := (float64(nl)*gini(leftC, nl) + float64(nr)*gini(rightC, nr)) / float64(n)
			if imp < bestImp {
				bestImp = imp
				feat = f
				thr = (order[i].Features[f] + order[i+1].Features[f]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// Predict classifies a feature vector. It panics on a wrong feature count,
// which is a programming error.
func (t *Tree) Predict(features []float64) int {
	cur := t
	for !cur.IsLeaf() {
		if cur.Feature >= len(features) {
			panic(fmt.Sprintf("dtree: predict with %d features, tree uses feature %d", len(features), cur.Feature))
		}
		if features[cur.Feature] <= cur.Threshold {
			cur = cur.Left
		} else {
			cur = cur.Right
		}
	}
	return cur.Class
}

// Depth returns the maximum root-to-leaf path length in edges. (The paper
// reports maximum path lengths of 6 for the Hive RAQO tree and 7 for
// Spark's.)
func (t *Tree) Depth() int {
	if t.IsLeaf() {
		return 0
	}
	l, r := t.Left.Depth(), t.Right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int {
	if t.IsLeaf() {
		return 1
	}
	return t.Left.Leaves() + t.Right.Leaves()
}

// Render produces a scikit-learn-style textual rendering, e.g.
//
//	Data Size (GB) <= 5.10 | gini=0.5 samples=120 value=[60 60] class=BHJ
//	├─ Container Size <= 4.00 | ...
//	└─ ...
func (t *Tree) Render(featureNames, classNames []string) string {
	var b strings.Builder
	t.render(&b, featureNames, classNames, "", "")
	return b.String()
}

func (t *Tree) render(b *strings.Builder, fn, cn []string, prefix, childPrefix string) {
	name := func(i int) string {
		if i < len(fn) {
			return fn[i]
		}
		return fmt.Sprintf("x[%d]", i)
	}
	class := func(i int) string {
		if i < len(cn) {
			return cn[i]
		}
		return fmt.Sprintf("class%d", i)
	}
	b.WriteString(prefix)
	if t.IsLeaf() {
		fmt.Fprintf(b, "leaf | gini=%.4g samples=%d value=%v class=%s\n",
			t.Gini, t.Samples, t.Value, class(t.Class))
		return
	}
	fmt.Fprintf(b, "%s <= %.4g | gini=%.4g samples=%d value=%v class=%s\n",
		name(t.Feature), t.Threshold, t.Gini, t.Samples, t.Value, class(t.Class))
	t.Left.render(b, fn, cn, childPrefix+"├─ ", childPrefix+"│  ")
	t.Right.render(b, fn, cn, childPrefix+"└─ ", childPrefix+"   ")
}

// Accuracy returns the fraction of samples the tree classifies correctly.
func Accuracy(t *Tree, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	ok := 0
	for _, s := range samples {
		if t.Predict(s.Features) == s.Label {
			ok++
		}
	}
	return float64(ok) / float64(len(samples))
}
