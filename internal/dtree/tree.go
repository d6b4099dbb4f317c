// Package dtree implements CART-style binary classification trees (Gini
// impurity), together with k-fold cross-validation helpers.
//
// The paper (§II-A2) trains a decision tree over a per-server feature vector
// (5/25/50/75/95th percentile CPU plus the slope, intercept and R² of a
// linear regression over those percentiles) to decide whether servers in a
// pool form a single predictable capacity-planning group. It reports a tree
// with 34 splits, R² = 0.746 and AUC = 0.9804 under 5-fold cross-validation
// with a minimum leaf size of 2000 machines. This package provides the same
// machinery at our simulated scale.
package dtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Config controls tree induction.
type Config struct {
	MaxDepth    int // default 10
	MinLeafSize int // minimum samples per leaf; default 5
	// MinImpurityDecrease prunes splits whose impurity gain is below this
	// threshold. Default 1e-7.
	MinImpurityDecrease float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 10
	}
	if c.MinLeafSize <= 0 {
		c.MinLeafSize = 5
	}
	if c.MinImpurityDecrease <= 0 {
		c.MinImpurityDecrease = 1e-7
	}
	return c
}

// Node is one node of a fitted tree. Leaves have Left == Right == nil.
type Node struct {
	// Feature and Threshold define the split: samples with
	// x[Feature] <= Threshold go left.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node

	// Value is the leaf prediction: the positive-class probability.
	Value float64
	// N is the number of training samples that reached this node.
	N int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a fitted CART decision tree.
type Tree struct {
	Root   *Node
	Config Config
	// NumFeatures is the width of the training matrix; Predict validates
	// inputs against it.
	NumFeatures int
}

// ErrNoData is returned when Fit is called with no samples.
var ErrNoData = errors.New("dtree: no training data")

// Fit grows a tree on the feature matrix xs (rows are samples) and targets
// ys, which must be 0 or 1.
func Fit(xs [][]float64, ys []float64, cfg Config) (*Tree, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("dtree: %d samples vs %d targets", len(xs), len(ys))
	}
	cfg = cfg.withDefaults()
	width := len(xs[0])
	if width == 0 {
		return nil, errors.New("dtree: zero-width feature vectors")
	}
	for i, row := range xs {
		if len(row) != width {
			return nil, fmt.Errorf("dtree: row %d has %d features, want %d", i, len(row), width)
		}
	}
	for i, y := range ys {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("dtree: classification target %v at row %d not in {0,1}", y, i)
		}
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	root := grow(xs, ys, idx, cfg, 0)
	return &Tree{Root: root, Config: cfg, NumFeatures: width}, nil
}

// grow recursively builds the subtree over the sample indices idx.
func grow(xs [][]float64, ys []float64, idx []int, cfg Config, depth int) *Node {
	node := &Node{N: len(idx), Value: leafValue(ys, idx)}
	if depth >= cfg.MaxDepth || len(idx) < 2*cfg.MinLeafSize {
		return node
	}
	imp := impurity(ys, idx)
	if imp == 0 {
		return node
	}
	feature, threshold, gain := bestSplit(xs, ys, idx, cfg)
	if feature < 0 || gain < cfg.MinImpurityDecrease {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if xs[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeafSize || len(right) < cfg.MinLeafSize {
		return node
	}
	node.Feature = feature
	node.Threshold = threshold
	node.Left = grow(xs, ys, left, cfg, depth+1)
	node.Right = grow(xs, ys, right, cfg, depth+1)
	return node
}

func leafValue(ys []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += ys[i]
	}
	return s / float64(len(idx))
}

// impurity returns the Gini impurity over the indexed samples.
func impurity(ys []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var pos float64
	for _, i := range idx {
		pos += ys[i]
	}
	p := pos / float64(len(idx))
	return 2 * p * (1 - p)
}

// bestSplit scans every feature and every midpoint between adjacent distinct
// values for the split with the largest weighted impurity decrease.
func bestSplit(xs [][]float64, ys []float64, idx []int, cfg Config) (feature int, threshold, gain float64) {
	parent := impurity(ys, idx)
	n := float64(len(idx))
	feature = -1

	order := make([]int, len(idx))
	for f := 0; f < len(xs[idx[0]]); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return xs[order[a]][f] < xs[order[b]][f] })

		// Incremental positive counts for left/right partitions.
		var lPos, rPos float64
		for _, i := range order {
			rPos += ys[i]
		}
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			lPos += ys[i]
			rPos -= ys[i]

			if xs[order[k]][f] == xs[order[k+1]][f] {
				continue // can't split between identical values
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < cfg.MinLeafSize || int(nr) < cfg.MinLeafSize {
				continue
			}
			pl := lPos / nl
			pr := rPos / nr
			childImp := (nl*2*pl*(1-pl) + nr*2*pr*(1-pr)) / n
			if g := parent - childImp; g > gain {
				gain = g
				feature = f
				threshold = (xs[order[k]][f] + xs[order[k+1]][f]) / 2
			}
		}
	}
	return feature, threshold, gain
}

// Predict returns the tree's positive-class probability for a single
// feature vector.
func (t *Tree) Predict(x []float64) (float64, error) {
	if len(x) != t.NumFeatures {
		return 0, fmt.Errorf("dtree: input has %d features, want %d", len(x), t.NumFeatures)
	}
	n := t.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value, nil
}

// Splits returns the number of internal (split) nodes; the paper reports
// its grouping tree used 34 splits.
func (t *Tree) Splits() int {
	var count func(n *Node) int
	count = func(n *Node) int {
		if n == nil || n.IsLeaf() {
			return 0
		}
		return 1 + count(n.Left) + count(n.Right)
	}
	return count(t.Root)
}

// CVResult summarises a k-fold cross-validation run.
type CVResult struct {
	// R2 is the coefficient of determination of out-of-fold predictions
	// against true targets.
	R2 float64
	// AUC is the ranking quality of out-of-fold positive-class
	// probabilities.
	AUC float64
	// Accuracy is the out-of-fold 0/1 accuracy at the 0.5 cut.
	Accuracy float64
	Folds    int
}

// CrossValidate runs k-fold cross-validation of a tree configuration and
// scores the pooled out-of-fold predictions. folds maps each fold to its
// train/test index sets (as produced by stats.KFold, passed in to avoid a
// dependency cycle).
func CrossValidate(xs [][]float64, ys []float64, cfg Config, folds []struct{ Train, Test []int }) (CVResult, error) {
	if len(folds) < 2 {
		return CVResult{}, fmt.Errorf("dtree: need >= 2 folds, got %d", len(folds))
	}
	preds := make([]float64, len(ys))
	seen := make([]bool, len(ys))
	for fi, fold := range folds {
		trX := make([][]float64, len(fold.Train))
		trY := make([]float64, len(fold.Train))
		for i, j := range fold.Train {
			trX[i] = xs[j]
			trY[i] = ys[j]
		}
		tree, err := Fit(trX, trY, cfg)
		if err != nil {
			return CVResult{}, fmt.Errorf("dtree: fold %d: %w", fi, err)
		}
		for _, j := range fold.Test {
			p, err := tree.Predict(xs[j])
			if err != nil {
				return CVResult{}, fmt.Errorf("dtree: fold %d predict: %w", fi, err)
			}
			preds[j] = p
			seen[j] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return CVResult{}, fmt.Errorf("dtree: sample %d never held out", i)
		}
	}

	res := CVResult{Folds: len(folds), AUC: math.NaN(), Accuracy: math.NaN()}
	res.R2 = rSquared(ys, preds)
	labels := make([]bool, len(ys))
	binary := true
	for i, y := range ys {
		if y != 0 && y != 1 {
			binary = false
			break
		}
		labels[i] = y == 1
	}
	if binary {
		if auc, err := aucScore(labels, preds); err == nil {
			res.AUC = auc
		}
		correct := 0
		for i := range ys {
			hard := 0.0
			if preds[i] >= 0.5 {
				hard = 1
			}
			if hard == ys[i] {
				correct++
			}
		}
		res.Accuracy = float64(correct) / float64(len(ys))
	}
	return res, nil
}

// rSquared duplicates stats.RSquared to keep dtree dependency-free; it
// follows the same zero-variance conventions.
func rSquared(ys, preds []float64) float64 {
	var my float64
	for _, y := range ys {
		my += y
	}
	my /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range ys {
		r := ys[i] - preds[i]
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// aucScore is a local Mann-Whitney AUC (mid-rank ties).
func aucScore(labels []bool, scores []float64) (float64, error) {
	type obs struct {
		score float64
		pos   bool
	}
	data := make([]obs, len(labels))
	var nPos, nNeg int
	for i := range labels {
		data[i] = obs{scores[i], labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, errors.New("dtree: single-class AUC undefined")
	}
	sort.Slice(data, func(i, j int) bool { return data[i].score < data[j].score })
	var rankSumPos float64
	i := 0
	for i < len(data) {
		j := i
		for j < len(data) && data[j].score == data[i].score {
			j++
		}
		midRank := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if data[k].pos {
				rankSumPos += midRank
			}
		}
		i = j
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg)), nil
}
