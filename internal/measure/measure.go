// Package measure implements Step 1 of the capacity-planning methodology
// (§II-A of the paper): validating that workload metrics are accurate enough
// for planning, and identifying groups of servers with the same
// workload→resource response.
//
// Metric validation assumes a proper workload metric has a tight linear
// correlation with the limiting resource (CPU). A weak correlation means the
// metric is contaminated — by background workloads such as periodic log
// uploads — and must be refined until the linear relationship appears.
//
// Grouping inspects each server's (p5, p95) CPU scatter: clusters indicate
// sub-populations (e.g. hardware generations) that must be planned
// separately. A decision tree over percentile + regression features
// automates the "is this pool one predictable group?" decision at fleet
// scale.
package measure

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"headroom/internal/cluster"
	"headroom/internal/dtree"
	"headroom/internal/metrics"
	"headroom/internal/stats"
)

// DefaultLinearR2 is the R² above which a workload↔resource correlation is
// considered "tight linear" and the metric validated.
const DefaultLinearR2 = 0.9

// CounterCorrelation is the workload↔counter relationship for one resource
// counter, as plotted in the paper's Figure 2 panels.
type CounterCorrelation struct {
	// Counter names the resource ("cpu", "net_bytes", ...).
	Counter string
	// Fit is the OLS line of counter value against RPS/server.
	Fit stats.LinearFit
	// Pearson is the correlation coefficient (NaN when undefined).
	Pearson float64
	// Linear reports whether the fit clears the R² threshold.
	Linear bool
}

// ValidationReport is the outcome of workload-metric validation for one
// pool in one datacenter.
type ValidationReport struct {
	// Counters holds one correlation per resource counter, in a fixed
	// order (cpu, net_bytes, net_pkts, mem_pages, disk_queue, disk_read,
	// errors).
	Counters []CounterCorrelation
	// LimitingResource is the counter with the strongest linear
	// correlation with workload ("cpu" for every pool the paper studied).
	LimitingResource string
	// Valid reports whether the limiting resource correlates linearly,
	// i.e. the workload metric isolates the primary workload well enough
	// for capacity planning.
	Valid bool
	// Windows is the number of observation windows used.
	Windows int
}

// counterExtractors lists the Figure 2 counters in report order.
var counterExtractors = []struct {
	name string
	get  func(metrics.TickStat) float64
}{
	{"cpu", func(t metrics.TickStat) float64 { return t.CPUMean }},
	{"net_bytes", func(t metrics.TickStat) float64 { return t.NetBytes }},
	{"net_pkts", func(t metrics.TickStat) float64 { return t.NetPkts }},
	{"mem_pages", func(t metrics.TickStat) float64 { return t.MemPages }},
	{"disk_queue", func(t metrics.TickStat) float64 { return t.DiskQueue }},
	{"disk_read", func(t metrics.TickStat) float64 { return t.DiskRead }},
	{"errors", func(t metrics.TickStat) float64 { return t.Errors }},
}

// ValidateWorkloadMetric evaluates the workload metric of a pool against
// every resource counter. r2Threshold <= 0 selects DefaultLinearR2.
func ValidateWorkloadMetric(series []metrics.TickStat, r2Threshold float64) (ValidationReport, error) {
	if len(series) < 3 {
		return ValidationReport{}, fmt.Errorf("measure: need >= 3 windows, got %d", len(series))
	}
	if r2Threshold <= 0 {
		r2Threshold = DefaultLinearR2
	}
	xs := make([]float64, len(series))
	for i, t := range series {
		xs[i] = t.RPSPerServer
	}
	rep := ValidationReport{Windows: len(series)}
	bestR2 := math.Inf(-1)
	for _, ce := range counterExtractors {
		ys := make([]float64, len(series))
		for i, t := range series {
			ys[i] = ce.get(t)
		}
		cc := CounterCorrelation{Counter: ce.name, Pearson: math.NaN()}
		// Constant counters (error and queue counters are "static in the
		// steady-state", per the paper) are anomaly-detection signals, not
		// limiting-resource candidates.
		if sd := stats.StdDev(ys); sd > 0 && !math.IsNaN(sd) {
			if fit, err := stats.LinearRegression(xs, ys); err == nil {
				cc.Fit = fit
				cc.Linear = fit.R2 >= r2Threshold
			}
			if r, err := stats.Pearson(xs, ys); err == nil {
				cc.Pearson = r
			}
			if cc.Fit.R2 > bestR2 {
				bestR2 = cc.Fit.R2
				rep.LimitingResource = cc.Counter
			}
		}
		rep.Counters = append(rep.Counters, cc)
	}
	rep.Valid = bestR2 >= r2Threshold
	return rep, nil
}

// Counter returns the named counter correlation from the report.
func (r ValidationReport) Counter(name string) (CounterCorrelation, error) {
	for _, c := range r.Counters {
		if c.Counter == name {
			return c, nil
		}
	}
	return CounterCorrelation{}, fmt.Errorf("measure: no counter %q in report", name)
}

// RefineResult is the outcome of one metric-refinement pass.
type RefineResult struct {
	// Clean is the series with contaminated windows removed.
	Clean []metrics.TickStat
	// Removed is the number of windows identified as contaminated.
	Removed int
	// Before and After are the CPU R² values pre/post refinement.
	Before float64
	After  float64
}

// RefineByOutlierRemoval implements the feedback loop of §II-A1: when the
// workload↔CPU correlation is weak, identify the windows contaminated by a
// secondary workload (CPU residuals far above a robust fit — e.g. the log-
// upload spikes) and remove their effect, then re-validate.
//
// Contamination is one-sided (a background workload only ever adds CPU) and
// can be dense — the log-upload case hits a third of all windows — so the
// clean-noise scale is estimated from the LOWER residual quantiles of a
// preliminary fit, a robust line is anchored on the clean cluster, and
// windows more than k·sigma above it are dropped. A k <= 0 selects 3.5.
func RefineByOutlierRemoval(series []metrics.TickStat, k float64) (RefineResult, error) {
	if len(series) < 10 {
		return RefineResult{}, fmt.Errorf("measure: need >= 10 windows to refine, got %d", len(series))
	}
	if k <= 0 {
		k = 3.5
	}
	xs := make([]float64, len(series))
	ys := make([]float64, len(series))
	for i, t := range series {
		xs[i] = t.RPSPerServer
		ys[i] = t.CPUMean
	}
	before, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return RefineResult{}, fmt.Errorf("measure: %w", err)
	}
	// Clean-side noise scale: contamination only inflates the upper tail,
	// so the p10..p50 residual spread of the preliminary fit estimates the
	// clean sigma (1.2816 = z(0.90)).
	resid := make([]float64, len(series))
	for i := range series {
		resid[i] = ys[i] - before.Predict(xs[i])
	}
	qs := stats.Percentiles(resid, 10, 50)
	sigma := (qs[1] - qs[0]) / 1.2816
	if sigma <= 0 || math.IsNaN(sigma) {
		abs := make([]float64, len(resid))
		for i, r := range resid {
			abs[i] = math.Abs(r)
		}
		sigma = stats.Median(abs)
		if sigma <= 0 {
			sigma = 1e-9
		}
	}
	robust, err := stats.RANSAC(xs, ys, stats.RANSACConfig{
		Degree: 1, Seed: 1, MaxIterations: 200, InlierThreshold: 3 * sigma,
	})
	if err != nil {
		return RefineResult{}, fmt.Errorf("measure: robust fit: %w", err)
	}
	res := RefineResult{Before: before.R2}
	for i, t := range series {
		// One-sided: contamination only adds CPU, never removes it.
		if ys[i]-robust.Model.Predict(xs[i]) > k*sigma {
			res.Removed++
			continue
		}
		res.Clean = append(res.Clean, t)
	}
	if len(res.Clean) < 3 {
		return RefineResult{}, errors.New("measure: refinement removed nearly all windows")
	}
	cx := make([]float64, len(res.Clean))
	cy := make([]float64, len(res.Clean))
	for i, t := range res.Clean {
		cx[i] = t.RPSPerServer
		cy[i] = t.CPUMean
	}
	after, err := stats.LinearRegression(cx, cy)
	if err != nil {
		return RefineResult{}, fmt.Errorf("measure: %w", err)
	}
	res.After = after.R2
	return res, nil
}

// Group is one capacity-planning server group inside a pool.
type Group struct {
	// Servers lists member server names.
	Servers []string
	// P5Centroid and P95Centroid are the group's centre in the (p5, p95)
	// CPU plane.
	P5Centroid  float64
	P95Centroid float64
}

// Grouping is the result of server-group identification for one pool.
type Grouping struct {
	Groups []Group
	// Silhouette is the clustering quality when more than one group was
	// found (0 for a single group).
	Silhouette float64
}

// GroupServers identifies capacity-planning groups from per-server daily
// summaries using the (p5, p95) CPU scatter of §II-A2 (Figure 3). maxK
// bounds the number of groups considered; minSilhouette is the score a
// multi-group split must beat to displace the single-group default.
func GroupServers(sums []metrics.ServerSummary, maxK int, minSilhouette float64, seed int64) (Grouping, error) {
	if len(sums) == 0 {
		return Grouping{}, errors.New("measure: no server summaries")
	}
	points := make([]cluster.Point, 0, len(sums))
	names := make([]string, 0, len(sums))
	for _, s := range sums {
		if s.CPU.N == 0 {
			continue // never online: nothing to group on
		}
		points = append(points, cluster.Point{s.CPU.P5, s.CPU.P95})
		names = append(names, s.Server)
	}
	if len(points) == 0 {
		return Grouping{}, errors.New("measure: no online servers to group")
	}
	res, err := cluster.SelectK(points, maxK, minSilhouette, seed)
	if err != nil {
		return Grouping{}, fmt.Errorf("measure: %w", err)
	}
	groups := make([]Group, res.K)
	for i, c := range res.Centroids {
		groups[i].P5Centroid = c[0]
		groups[i].P95Centroid = c[1]
	}
	for i, a := range res.Assignment {
		groups[a].Servers = append(groups[a].Servers, names[i])
	}
	g := Grouping{Groups: groups, Silhouette: res.Silhouette}
	// Deterministic order: by ascending p95 centroid.
	sort.Slice(g.Groups, func(i, j int) bool { return g.Groups[i].P95Centroid < g.Groups[j].P95Centroid })
	return g, nil
}

// PoolExample is one labelled training sample for the grouping classifier:
// a server's feature vector and whether its pool was manually labelled as a
// single predictable capacity-planning group.
type PoolExample struct {
	Features    []float64
	Predictable bool
}

// ClassifierResult bundles the fitted tree with its cross-validated scores,
// mirroring the paper's report (34 splits, R² = 0.746, AUC = 0.9804).
type ClassifierResult struct {
	Tree     *dtree.Tree
	Splits   int
	CV       dtree.CVResult
	Examples int
}

// TrainGroupClassifier fits the §II-A2 decision tree on labelled server
// feature vectors with k-fold cross-validation. minLeaf mirrors the paper's
// minimum leaf size (2000 machines at production scale; callers pass a value
// proportionate to their fleet).
func TrainGroupClassifier(examples []PoolExample, folds, minLeaf int, seed int64) (ClassifierResult, error) {
	if len(examples) < folds || folds < 2 {
		return ClassifierResult{}, fmt.Errorf("measure: need >= %d examples and >= 2 folds", folds)
	}
	xs := make([][]float64, len(examples))
	ys := make([]float64, len(examples))
	for i, e := range examples {
		xs[i] = e.Features
		ys[i] = 0
		if e.Predictable {
			ys[i] = 1
		}
	}
	cfg := dtree.Config{MaxDepth: 8, MinLeafSize: minLeaf}
	kf, err := stats.KFold(len(examples), folds, seed)
	if err != nil {
		return ClassifierResult{}, fmt.Errorf("measure: %w", err)
	}
	dtFolds := make([]struct{ Train, Test []int }, len(kf))
	for i, f := range kf {
		dtFolds[i] = struct{ Train, Test []int }{Train: f.Train, Test: f.Test}
	}
	cv, err := dtree.CrossValidate(xs, ys, cfg, dtFolds)
	if err != nil {
		return ClassifierResult{}, fmt.Errorf("measure: cross-validation: %w", err)
	}
	tree, err := dtree.Fit(xs, ys, cfg)
	if err != nil {
		return ClassifierResult{}, fmt.Errorf("measure: final fit: %w", err)
	}
	return ClassifierResult{Tree: tree, Splits: tree.Splits(), CV: cv, Examples: len(examples)}, nil
}

// BuildExamples converts per-server summaries into classifier examples with
// a shared pool label.
func BuildExamples(sums []metrics.ServerSummary, predictable bool) []PoolExample {
	out := make([]PoolExample, 0, len(sums))
	for _, s := range sums {
		if s.CPU.N == 0 {
			continue
		}
		out = append(out, PoolExample{Features: s.FeatureVector(), Predictable: predictable})
	}
	return out
}
