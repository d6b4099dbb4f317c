package workload

import (
	"math"
	"testing"
	"time"
)

func TestPatternPeakToTrough(t *testing.T) {
	p := Pattern{BaseRPS: 1000, PeakToTrough: 3, PeakHour: 14}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < 24*60; i++ {
		v := p.At(float64(i) / (24 * 60))
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	ratio := hi / lo
	if math.Abs(ratio-3) > 0.01 {
		t.Errorf("peak/trough = %v, want 3", ratio)
	}
	// Peak should be near hour 14.
	peakAt := p.At(14.0 / 24)
	if math.Abs(peakAt-hi) > hi*0.001 {
		t.Errorf("value at peak hour %v != max %v", peakAt, hi)
	}
}

func TestPatternFlatWhenRatioLEQ1(t *testing.T) {
	p := Pattern{BaseRPS: 500, PeakToTrough: 1, PeakHour: 9}
	for i := 0; i < 24; i++ {
		if got := p.At(float64(i) / 24); got != 500 {
			t.Fatalf("At(%d/24) = %v, want 500", i, got)
		}
	}
}

func TestPatternMeanIsBase(t *testing.T) {
	p := Pattern{BaseRPS: 800, PeakToTrough: 4, PeakHour: 0}
	var sum float64
	n := 24 * 360
	for i := 0; i < n; i++ {
		sum += p.At(float64(i) / float64(n))
	}
	mean := sum / float64(n)
	if math.Abs(mean-800) > 1 {
		t.Errorf("daily mean = %v, want ~800", mean)
	}
}

func TestScheduleMultiplier(t *testing.T) {
	s, err := NewSchedule(
		Event{Name: "surge", StartTick: 10, EndTick: 20, Multipliers: map[string]float64{"DC 1": 2}},
		Event{Name: "overlap", StartTick: 15, EndTick: 25, Multipliers: map[string]float64{"DC 1": 1.5, "DC 2": 3}},
	)
	if err != nil {
		t.Fatalf("NewSchedule: %v", err)
	}
	tests := []struct {
		dc   string
		tick int
		want float64
	}{
		{"DC 1", 5, 1},
		{"DC 1", 10, 2},
		{"DC 1", 15, 3}, // 2 * 1.5
		{"DC 1", 20, 1.5},
		{"DC 1", 25, 1},
		{"DC 2", 16, 3},
		{"DC 3", 16, 1},
	}
	for _, tt := range tests {
		if got := s.Multiplier(tt.dc, tt.tick); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Multiplier(%s, %d) = %v, want %v", tt.dc, tt.tick, got, tt.want)
		}
	}
	var nilSched *Schedule
	if got := nilSched.Multiplier("DC 1", 0); got != 1 {
		t.Errorf("nil schedule multiplier = %v, want 1", got)
	}
}

func TestNewScheduleErrors(t *testing.T) {
	if _, err := NewSchedule(Event{Name: "bad", StartTick: 5, EndTick: 5}); err == nil {
		t.Error("empty interval should error")
	}
	if _, err := NewSchedule(Event{
		Name: "neg", StartTick: 0, EndTick: 1,
		Multipliers: map[string]float64{"DC 1": -1},
	}); err == nil {
		t.Error("negative multiplier should error")
	}
}

func TestGeneratorDiurnalOffsets(t *testing.T) {
	dcs := []Datacenter{
		{Name: "West", UTCOffset: 0, Weight: 1},
		{Name: "East", UTCOffset: 12 * time.Hour, Weight: 1},
	}
	g, err := NewGenerator(Pattern{BaseRPS: 1000, PeakToTrough: 3, PeakHour: 12},
		dcs, nil, time.Hour, 0, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	// At UTC noon, West (offset 0) is at local peak; East is at local
	// midnight (trough).
	west, err := g.RPS(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	east, err := g.RPS(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if west <= east {
		t.Errorf("west %v should exceed east %v at west-local noon", west, east)
	}
	if math.Abs(west/east-3) > 0.05 {
		t.Errorf("west/east ratio = %v, want ~3", west/east)
	}
}

func TestGeneratorWeightsSplitTraffic(t *testing.T) {
	dcs := []Datacenter{
		{Name: "Big", Weight: 3},
		{Name: "Small", Weight: 1},
	}
	g, err := NewGenerator(Pattern{BaseRPS: 400, PeakToTrough: 1}, dcs, nil, time.Hour, 0, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	big, _ := g.RPS(0, 0)
	small, _ := g.RPS(1, 0)
	if math.Abs(big-300) > 1e-9 || math.Abs(small-100) > 1e-9 {
		t.Errorf("split = %v/%v, want 300/100", big, small)
	}
}

func TestGeneratorErrors(t *testing.T) {
	dcs := []Datacenter{{Name: "A", Weight: 1}}
	if _, err := NewGenerator(Pattern{BaseRPS: -1}, dcs, nil, 0, 0, 1); err == nil {
		t.Error("negative base RPS should error")
	}
	if _, err := NewGenerator(Pattern{}, nil, nil, 0, 0, 1); err == nil {
		t.Error("no datacenters should error")
	}
	if _, err := NewGenerator(Pattern{}, []Datacenter{{Name: "A", Weight: -1}}, nil, 0, 0, 1); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := NewGenerator(Pattern{}, []Datacenter{{Name: "A"}, {Name: "A", Weight: 1}}, nil, 0, 0, 1); err == nil {
		t.Error("duplicate datacenter should error")
	}
	if _, err := NewGenerator(Pattern{}, []Datacenter{{Name: "A", Weight: 0}}, nil, 0, 0, 1); err == nil {
		t.Error("zero total weight should error")
	}
	g, err := NewGenerator(Pattern{BaseRPS: 1}, dcs, nil, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RPS(5, 0); err == nil {
		t.Error("out-of-range DC index should error")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	dcs := NineRegions()
	mk := func() []float64 {
		g, err := NewGenerator(Pattern{BaseRPS: 10000, PeakToTrough: 2.5, PeakHour: 13},
			dcs, nil, TickDuration, 0.05, 77)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for tick := 0; tick < 100; tick++ {
			for d := range dcs {
				v, err := g.RPS(d, tick)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sequence diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNineRegions(t *testing.T) {
	dcs := NineRegions()
	if len(dcs) != 9 {
		t.Fatalf("len = %d, want 9", len(dcs))
	}
	var tw float64
	seen := map[string]bool{}
	for _, dc := range dcs {
		if seen[dc.Name] {
			t.Errorf("duplicate name %q", dc.Name)
		}
		seen[dc.Name] = true
		tw += dc.Weight
	}
	if math.Abs(tw-1) > 1e-9 {
		t.Errorf("total weight = %v, want 1", tw)
	}
}

func TestTicksPerDay(t *testing.T) {
	if got := TicksPerDay(TickDuration); got != 720 {
		t.Errorf("TicksPerDay(120s) = %d, want 720", got)
	}
	if got := TicksPerDay(0); got != 720 {
		t.Errorf("TicksPerDay(0) should default to 720, got %d", got)
	}
	if got := TicksPerDay(time.Hour); got != 24 {
		t.Errorf("TicksPerDay(1h) = %d, want 24", got)
	}
}
