package workload

import (
	"errors"
	"fmt"
)

// RequestClass is one kind of request in a service's traffic mix. The
// synthetic-workload step of the methodology (§II-C) must reproduce the
// production diversity of requests (and of responses from downstream
// dependencies) so the offline system exhibits the same QoS and resource
// usage as production.
type RequestClass struct {
	// Name identifies the class (e.g. "cache-hit", "cache-miss",
	// "write", "auth").
	Name string
	// Weight is the relative frequency of this class in the mix.
	Weight float64
	// CostFactor scales CPU consumption relative to the pool's baseline
	// request cost.
	CostFactor float64
	// DependencyLatencyMs is the mean latency contributed by downstream
	// calls this class performs (mocked in offline replay).
	DependencyLatencyMs float64
}

// Mix is a distribution over request classes.
type Mix []RequestClass

// Validate checks the mix is non-empty with positive total weight and
// non-negative components.
func (m Mix) Validate() error {
	if len(m) == 0 {
		return errors.New("workload: empty request mix")
	}
	var total float64
	for _, c := range m {
		if c.Weight < 0 {
			return fmt.Errorf("workload: class %q has negative weight", c.Name)
		}
		if c.CostFactor < 0 {
			return fmt.Errorf("workload: class %q has negative cost factor", c.Name)
		}
		if c.DependencyLatencyMs < 0 {
			return fmt.Errorf("workload: class %q has negative dependency latency", c.Name)
		}
		total += c.Weight
	}
	if total <= 0 {
		return errors.New("workload: request mix total weight is zero")
	}
	return nil
}
