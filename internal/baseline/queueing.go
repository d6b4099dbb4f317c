// Package baseline implements the two capacity-planning families the paper
// contrasts with (§I): a queueing-theory model (M/M/c with Erlang-C delay)
// and a dynamic feedback autoscaler. They serve as comparators in the
// benchmark harness — the paper argues both are unsuitable for large
// low-latency online services, and the ablation benches quantify why.
package baseline

import (
	"errors"
	"fmt"
	"math"
)

// MMc is an M/M/c queueing model of a server pool: Poisson arrivals at
// lambda requests/second served by c servers each at mu requests/second.
type MMc struct {
	Lambda float64 // arrival rate (req/s)
	Mu     float64 // per-server service rate (req/s)
	C      int     // servers
}

// Validate checks the model is well formed and stable.
func (m MMc) Validate() error {
	if m.Lambda < 0 {
		return fmt.Errorf("baseline: negative arrival rate %v", m.Lambda)
	}
	if m.Mu <= 0 {
		return fmt.Errorf("baseline: non-positive service rate %v", m.Mu)
	}
	if m.C <= 0 {
		return fmt.Errorf("baseline: non-positive server count %d", m.C)
	}
	if m.Lambda >= float64(m.C)*m.Mu {
		return fmt.Errorf("baseline: unstable system (rho = %v >= 1)", m.Rho())
	}
	return nil
}

// Rho returns the per-server utilisation lambda/(c*mu).
func (m MMc) Rho() float64 {
	return m.Lambda / (float64(m.C) * m.Mu)
}

// ErlangC returns the probability an arriving request has to queue
// (the Erlang-C formula), computed with a numerically stable iterative
// scheme.
func (m MMc) ErlangC() (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if m.Lambda == 0 {
		return 0, nil
	}
	a := m.Lambda / m.Mu // offered load in Erlangs
	// Iteratively compute the Erlang-B blocking probability, then convert.
	b := 1.0
	for k := 1; k <= m.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := m.Rho()
	c := b / (1 - rho + rho*b)
	return c, nil
}

// WaitPercentile returns the p-th percentile (0 < p < 100) of queueing
// delay, using the standard M/M/c result that the conditional wait is
// exponential: P(W > t) = ErlangC * exp(-(c*mu - lambda) t).
func (m MMc) WaitPercentile(p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("baseline: percentile %v outside (0, 100)", p)
	}
	pw, err := m.ErlangC()
	if err != nil {
		return 0, err
	}
	q := 1 - p/100
	if pw <= q {
		return 0, nil // the p-th percentile request does not queue at all
	}
	rate := float64(m.C)*m.Mu - m.Lambda
	return math.Log(pw/q) / rate, nil
}

// PlanConfig describes a queueing-theory capacity plan request: enough
// servers that the p-th percentile response time (service + wait) stays
// under the SLO at peak load.
type PlanConfig struct {
	// PeakLambda is the peak arrival rate to provision for (req/s).
	PeakLambda float64
	// ServiceTimeMs is the mean per-request service time.
	ServiceTimeMs float64
	// SLOMs is the response-time objective.
	SLOMs float64
	// Percentile is the SLO percentile (default 95).
	Percentile float64
}

// maxPlanServers bounds PlanServers' search.
const maxPlanServers = 1_000_000

// PlanServers returns the minimal c meeting the SLO under the M/M/c model.
// This is the queueing-theory planner of the paper's related work; its
// weakness — which the benches demonstrate — is that the single-service-rate
// abstraction misses the measured non-linear latency profile, so it can
// both under- and over-provision relative to the black-box plan.
func PlanServers(cfg PlanConfig) (int, error) {
	if cfg.PeakLambda < 0 {
		return 0, fmt.Errorf("baseline: negative peak load %v", cfg.PeakLambda)
	}
	if cfg.ServiceTimeMs <= 0 {
		return 0, fmt.Errorf("baseline: non-positive service time %v", cfg.ServiceTimeMs)
	}
	if cfg.SLOMs <= cfg.ServiceTimeMs {
		return 0, fmt.Errorf("baseline: SLO %vms not achievable with service time %vms", cfg.SLOMs, cfg.ServiceTimeMs)
	}
	pct := cfg.Percentile
	if pct <= 0 {
		pct = 95
	}
	mu := 1000 / cfg.ServiceTimeMs // req/s per server
	budgetWait := (cfg.SLOMs - cfg.ServiceTimeMs) / 1000

	cMin := int(cfg.PeakLambda/mu) + 1
	for c := cMin; c <= maxPlanServers; c++ {
		m := MMc{Lambda: cfg.PeakLambda, Mu: mu, C: c}
		w, err := m.WaitPercentile(pct)
		if err != nil {
			continue // still unstable at this c
		}
		if w <= budgetWait {
			return c, nil
		}
	}
	return 0, errors.New("baseline: no feasible server count within bound")
}
