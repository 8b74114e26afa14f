package dtree

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, 2, 0); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := Train([]Sample{{Features: []float64{1}, Label: 0}}, 1, 0); err == nil {
		t.Error("single class accepted")
	}
	if _, err := Train([]Sample{{Features: nil, Label: 0}}, 2, 0); err == nil {
		t.Error("empty features accepted")
	}
	ragged := []Sample{{Features: []float64{1}, Label: 0}, {Features: []float64{1, 2}, Label: 1}}
	if _, err := Train(ragged, 2, 0); err == nil {
		t.Error("ragged features accepted")
	}
	bad := []Sample{{Features: []float64{1}, Label: 5}}
	if _, err := Train(bad, 2, 0); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestTrainSeparableData(t *testing.T) {
	// Perfectly separable at x <= 5.
	var samples []Sample
	for i := 0; i < 20; i++ {
		x := float64(i)
		label := 0
		if x > 5 {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{x}, Label: label})
	}
	tree, err := Train(samples, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, samples); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if tree.IsLeaf() {
		t.Fatal("root should split")
	}
	if tree.Feature != 0 || tree.Threshold < 5 || tree.Threshold > 6 {
		t.Errorf("split = feature %d at %v, want feature 0 in (5,6)", tree.Feature, tree.Threshold)
	}
	if tree.Depth() != 1 || tree.Leaves() != 2 {
		t.Errorf("depth=%d leaves=%d, want 1/2", tree.Depth(), tree.Leaves())
	}
	// One class only: a single leaf predicting it.
	leaf, err := Train(samples[10:], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !leaf.IsLeaf() || leaf.Predict([]float64{0}) != 1 {
		t.Errorf("single-class samples: leaf=%v class=%d, want a leaf of class 1", leaf.IsLeaf(), leaf.Class)
	}
}

func TestTrainXORNeedsDepth2(t *testing.T) {
	samples := []Sample{
		{Features: []float64{0, 0}, Label: 0},
		{Features: []float64{0, 1}, Label: 1},
		{Features: []float64{1, 0}, Label: 1},
		{Features: []float64{1, 1}, Label: 0},
	}
	tree, err := Train(samples, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(tree, samples); acc != 1 {
		t.Errorf("XOR accuracy = %v, want 1", acc)
	}
	if tree.Depth() < 2 {
		t.Errorf("XOR depth = %d, want >= 2", tree.Depth())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 200; i++ {
		x, y := rng.Float64(), rng.Float64()
		label := 0
		if x+y > 1 {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{x, y}, Label: label})
	}
	tree, err := Train(samples, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d := tree.Depth(); d > 3 {
		t.Errorf("depth = %d, want <= 3", d)
	}
}

// Property: unlimited-depth CART achieves perfect training accuracy
// whenever no two samples share features with different labels.
func TestPerfectFitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seen := map[[2]int]int{}
		var samples []Sample
		for i := 0; i < 100; i++ {
			k := [2]int{rng.Intn(30), rng.Intn(30)}
			label := rng.Intn(3)
			if prev, ok := seen[k]; ok {
				label = prev // keep consistent
			} else {
				seen[k] = label
			}
			samples = append(samples, Sample{
				Features: []float64{float64(k[0]), float64(k[1])},
				Label:    label,
			})
		}
		tree, err := Train(samples, 3, 0)
		if err != nil {
			return false
		}
		return Accuracy(tree, samples) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRenderContainsStats(t *testing.T) {
	samples := []Sample{
		{Features: []float64{0.005, 3}, Label: 0},
		{Features: []float64{8, 3}, Label: 1},
		{Features: []float64{0.008, 9}, Label: 0},
		{Features: []float64{9, 9}, Label: 1},
	}
	tree, err := Train(samples, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := tree.Render([]string{"Data Size (GB)", "Container Size"}, []string{"BHJ", "SMJ"})
	for _, want := range []string{"Data Size (GB) <=", "gini=", "samples=", "value=", "class="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Unknown names fall back gracefully.
	fallback := tree.Render(nil, nil)
	if !strings.Contains(fallback, "x[0]") || !strings.Contains(fallback, "class0") {
		t.Errorf("fallback rendering broken:\n%s", fallback)
	}
}

func TestPredictPanicsOnShortFeatures(t *testing.T) {
	samples := []Sample{
		{Features: []float64{0, 0}, Label: 0},
		{Features: []float64{0, 1}, Label: 1},
	}
	tree, err := Train(samples, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.IsLeaf() {
		t.Skip("degenerate tree")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tree.Predict([]float64{})
}

func TestAccuracyEmpty(t *testing.T) {
	tree := &Tree{Value: []int{1}, Samples: 1}
	if got := Accuracy(tree, nil); got != 0 {
		t.Errorf("empty accuracy = %v", got)
	}
}
