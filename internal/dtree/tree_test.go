package dtree

import (
	"math/rand"
	"testing"
)

// groupedServers builds a labelled dataset in the paper's feature-vector
// shape: percentile CPU features plus regression slope/intercept/R2, where
// label 1 means "single predictable group" (tight CPU band) and label 0
// means "noisy / multi-workload" (wide band).
func groupedServers(n int, seed int64) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		tight := rng.Intn(2) == 0
		base := 5 + rng.Float64()*10
		var spread float64
		if tight {
			spread = 2 + rng.Float64()*2
		} else {
			spread = 15 + rng.Float64()*25
		}
		p5 := base
		p25 := base + spread*0.25
		p50 := base + spread*0.5
		p75 := base + spread*0.75
		p95 := base + spread
		slope := spread / 90
		intercept := base - slope*5
		r2 := 0.95 - spread*0.01 + rng.NormFloat64()*0.01
		xs = append(xs, []float64{p5, p25, p50, p75, p95, slope, intercept, r2})
		if tight {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	return xs, ys
}

func TestFitClassificationSeparable(t *testing.T) {
	xs, ys := groupedServers(400, 1)
	tree, err := Fit(xs, ys, Config{MaxDepth: 6, MinLeafSize: 5})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	correct := 0
	for i := range xs {
		p, err := tree.Predict(xs[i])
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if (p >= 0.5) == (ys[i] == 1) {
			correct++
		}
	}
	acc := float64(correct) / float64(len(xs))
	if acc < 0.98 {
		t.Errorf("training accuracy = %v, want >= 0.98", acc)
	}
	if tree.Splits() == 0 {
		t.Error("tree should have at least one split")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Error("no data should error")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Fit([][]float64{{}}, []float64{1}, Config{}); err == nil {
		t.Error("zero-width features should error")
	}
	if _, err := Fit([][]float64{{1}, {2, 3}}, []float64{1, 0}, Config{}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := Fit([][]float64{{1}, {2}}, []float64{0.5, 1}, Config{}); err == nil {
		t.Error("non-binary target should error")
	}
}

func TestPredictValidatesWidth(t *testing.T) {
	xs, ys := groupedServers(50, 3)
	tree, err := Fit(xs, ys, Config{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if _, err := tree.Predict([]float64{1, 2}); err == nil {
		t.Error("wrong-width input should error")
	}
}

func TestMinLeafSizeRespected(t *testing.T) {
	xs, ys := groupedServers(200, 4)
	tree, err := Fit(xs, ys, Config{MinLeafSize: 40, MaxDepth: 10})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			if n.N < 40 {
				t.Errorf("leaf with %d samples violates MinLeafSize=40", n.N)
			}
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

func TestPureNodeStopsSplitting(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	ys := []float64{1, 1, 1, 1, 1, 1}
	tree, err := Fit(xs, ys, Config{MinLeafSize: 1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !tree.Root.IsLeaf() {
		t.Error("pure target should produce a single leaf")
	}
	if tree.Root.Value != 1 {
		t.Errorf("leaf value = %v, want 1", tree.Root.Value)
	}
}

func TestCrossValidateClassification(t *testing.T) {
	xs, ys := groupedServers(600, 5)
	folds := makeFolds(len(xs), 5, 7)
	res, err := CrossValidate(xs, ys, Config{MaxDepth: 6, MinLeafSize: 5}, folds)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if res.Folds != 5 {
		t.Errorf("Folds = %d, want 5", res.Folds)
	}
	// Separable data: out-of-fold metrics should be strong, in the spirit
	// of the paper's R2=0.746 / AUC=0.9804 report.
	if res.AUC < 0.95 {
		t.Errorf("AUC = %v, want >= 0.95", res.AUC)
	}
	if res.Accuracy < 0.95 {
		t.Errorf("Accuracy = %v, want >= 0.95", res.Accuracy)
	}
	if res.R2 < 0.5 {
		t.Errorf("R2 = %v, want >= 0.5", res.R2)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	xs, ys := groupedServers(20, 6)
	if _, err := CrossValidate(xs, ys, Config{}, nil); err == nil {
		t.Error("no folds should error")
	}
	// A fold that never holds out sample 0.
	folds := makeFolds(len(xs), 4, 8)
	folds[0].Test = folds[0].Test[:0]
	if _, err := CrossValidate(xs, ys, Config{}, folds); err == nil {
		t.Error("missing held-out samples should error")
	}
}

// makeFolds builds deterministic k-fold splits without importing stats
// (dtree stays dependency-free).
func makeFolds(n, k int, seed int64) []struct{ Train, Test []int } {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)
	folds := make([]struct{ Train, Test []int }, k)
	for f := 0; f < k; f++ {
		lo, hi := f*n/k, (f+1)*n/k
		folds[f].Test = append([]int(nil), idx[lo:hi]...)
		folds[f].Train = append(append([]int(nil), idx[:lo]...), idx[hi:]...)
	}
	return folds
}

// Property: leaf predictions are valid probabilities, on any binary
// targets.
func TestPredictionBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(100)
		var xs [][]float64
		var ys []float64
		for i := 0; i < n; i++ {
			xs = append(xs, []float64{rng.Float64() * 100, rng.Float64() * 10})
			ys = append(ys, float64(rng.Intn(2)))
		}
		tree, err := Fit(xs, ys, Config{MaxDepth: 5, MinLeafSize: 3})
		if err != nil {
			t.Fatalf("Fit: %v", err)
		}
		for i := 0; i < 50; i++ {
			p, err := tree.Predict([]float64{rng.Float64() * 100, rng.Float64() * 10})
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			if p < 0 || p > 1 {
				t.Fatalf("prediction %v is not a probability", p)
			}
		}
	}
}
