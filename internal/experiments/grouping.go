package experiments

import (
	"context"
	"fmt"

	"headroom/internal/measure"
)

// GroupingTree reproduces the §II-A2 decision-tree experiment at our fleet
// scale: servers are labelled by whether their pool has a tightly bound,
// predictable CPU range (the named low-noise pools) or runs mixed/background
// workloads (spiky fillers, the contaminated memcached pool, mixed hardware
// generations), and a CART classifier over the percentile + regression
// feature vector is trained with 5-fold cross-validation.
//
// Paper: 34 splits, R² = 0.746, AUC = 0.9804, minimum leaf size 2000
// machines (we scale the leaf size to our fleet). The paper also reports
// 55% of pools with diurnal workloads exhibit a tightly bound CPU range.
func GroupingTree(ctx context.Context, cfg Config) (*Result, error) {
	agg, err := fleetAggregator(ctx, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Pool labels: predictable = single-workload pools with clean linear
	// response; unpredictable = spiky fillers (secondary workloads), the
	// background-contaminated pool A, and the mixed-generation pool I.
	unpredictable := map[string]bool{
		"A": true, "I": true,
		"S1": true, "S2": true, "S3": true, "S4": true,
		"U1": true, "U2": true,
	}
	var examples []measure.PoolExample
	var predictableServers, totalServers int
	for _, key := range agg.Pools() {
		sums, err := agg.ServerSummaries(key.DC, key.Pool)
		if err != nil {
			return nil, err
		}
		label := !unpredictable[key.Pool]
		ex := measure.BuildExamples(sums, label)
		examples = append(examples, ex...)
		totalServers += len(ex)
		if label {
			predictableServers += len(ex)
		}
	}
	// Scale the paper's 2000-machine leaf floor to our fleet size.
	minLeaf := totalServers / 60
	if minLeaf < 20 {
		minLeaf = 20
	}
	res, err := measure.TrainGroupClassifier(examples, minLeaf, cfg.Seed)
	if err != nil {
		return nil, err
	}

	out := &Result{
		ID:     "grouping-tree",
		Title:  "Decision-tree identification of predictable capacity-planning pools",
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"servers", fmt.Sprintf("%d", totalServers)},
			{"min leaf size", fmt.Sprintf("%d", minLeaf)},
			{"tree splits", fmt.Sprintf("%d", res.Splits)},
			{"cv R2", f3(res.CV.R2)},
			{"cv AUC", f3(res.CV.AUC)},
			{"cv accuracy", f3(res.CV.Accuracy)},
		},
	}
	out.Metric("splits (paper 34)", float64(res.Splits))
	out.Metric("cv_r2 (paper 0.746)", res.CV.R2)
	out.Metric("cv_auc (paper 0.9804)", res.CV.AUC)
	out.Metric("cv_accuracy", res.CV.Accuracy)
	out.Metric("frac_predictable_servers (paper: 55% of pools)",
		float64(predictableServers)/float64(totalServers))

	// Sanity spot-checks against known pools.
	spot := func(pool, dc string) (float64, error) {
		sums, err := agg.ServerSummaries(dc, pool)
		if err != nil {
			return 0, err
		}
		var mean float64
		var n int
		for _, s := range sums {
			if s.CPU.N == 0 {
				continue
			}
			p, err := res.Tree.Predict(s.FeatureVector())
			if err != nil {
				return 0, err
			}
			mean += p
			n++
		}
		return mean / float64(n), nil
	}
	if pb, err := spot("B", "DC 1"); err == nil {
		out.Metric("score_poolB (predictable)", pb)
	}
	if ps, err := spot("S2", "DC 4"); err == nil {
		out.Metric("score_poolS2 (spiky)", ps)
	}
	out.Notes = append(out.Notes,
		"pools flagged unpredictable run secondary workloads; the paper found they fit the analysis once those workloads are modelled separately (pool A's refinement loop demonstrates this)")
	return out, nil
}
