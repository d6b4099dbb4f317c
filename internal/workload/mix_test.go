package workload

import "testing"

func productionMix() Mix {
	return Mix{
		{Name: "cache-hit", Weight: 70, CostFactor: 0.5, DependencyLatencyMs: 0},
		{Name: "cache-miss", Weight: 20, CostFactor: 2.0, DependencyLatencyMs: 8},
		{Name: "write", Weight: 10, CostFactor: 3.0, DependencyLatencyMs: 15},
	}
}

func TestMixValidate(t *testing.T) {
	if err := productionMix().Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	bad := []struct {
		name string
		mix  Mix
	}{
		{"empty", Mix{}},
		{"negative weight", Mix{{Name: "a", Weight: -1, CostFactor: 1}}},
		{"negative cost", Mix{{Name: "a", Weight: 1, CostFactor: -1}}},
		{"negative dep latency", Mix{{Name: "a", Weight: 1, CostFactor: 1, DependencyLatencyMs: -2}}},
		{"zero total", Mix{{Name: "a", Weight: 0, CostFactor: 1}}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.mix.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}
