// Package workload models the request traffic offered to a global online
// service: diurnal per-datacenter patterns, surge events (including the
// paper's "natural experiments" — unplanned datacenter failovers that
// multiply the surviving datacenters' load).
//
// The package is purely functional over a discrete tick timeline; all noise
// is injected by callers with their own seeded sources so simulations stay
// deterministic.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// TickDuration is the default metric window used throughout the
// reproduction: the paper aggregates performance counters over 120-second
// windows.
const TickDuration = 120 * time.Second

// TicksPerDay returns the number of ticks of the given duration in one day.
func TicksPerDay(tick time.Duration) int {
	if tick <= 0 {
		tick = TickDuration
	}
	return int(24 * time.Hour / tick)
}

// Pattern describes the diurnal load curve of a service in one region.
// The instantaneous load factor follows a raised cosine with the requested
// peak-to-trough ratio, which matches the "diurnal global online service
// workloads" the paper cites.
type Pattern struct {
	// BaseRPS is the daily mean request rate.
	BaseRPS float64
	// PeakToTrough is the ratio between the daily maximum and minimum.
	// Values <= 1 produce a flat pattern.
	PeakToTrough float64
	// PeakHour is the local hour-of-day (0..24) at which load peaks.
	PeakHour float64
}

// At returns the deterministic load at the given fraction of the local day
// (0 <= dayFrac < 1, where 0 is local midnight).
func (p Pattern) At(dayFrac float64) float64 {
	if p.PeakToTrough <= 1 {
		return p.BaseRPS
	}
	amp := (p.PeakToTrough - 1) / (p.PeakToTrough + 1)
	phase := 2 * math.Pi * (dayFrac - p.PeakHour/24)
	return p.BaseRPS * (1 + amp*math.Cos(phase))
}

// Datacenter is one geographic region serving a share of global traffic.
type Datacenter struct {
	// Name identifies the region ("DC 1" .. "DC 9" in the paper's charts).
	Name string
	// UTCOffset shifts the local diurnal pattern.
	UTCOffset time.Duration
	// Weight is the share of global traffic routed to this datacenter;
	// weights need not sum to 1 (they are normalised by consumers).
	Weight float64
}

// Event is a traffic multiplier applied to specific datacenters over a tick
// interval [StartTick, EndTick). Events model both unplanned capacity events
// (a failed region's traffic landing on survivors) and organic surges (the
// paper's pool B experiment coincided with a production traffic increase).
type Event struct {
	Name      string
	StartTick int
	EndTick   int
	// Multipliers maps datacenter name to the load multiplier during the
	// event. Datacenters absent from the map are unaffected.
	Multipliers map[string]float64
}

// Schedule is an ordered collection of events.
type Schedule struct {
	events []Event
}

// NewSchedule validates and assembles a schedule. Events may overlap; their
// multipliers compose multiplicatively.
func NewSchedule(events ...Event) (*Schedule, error) {
	for _, e := range events {
		if e.EndTick <= e.StartTick {
			return nil, fmt.Errorf("workload: event %q has empty interval [%d, %d)", e.Name, e.StartTick, e.EndTick)
		}
		for dc, m := range e.Multipliers {
			if m < 0 {
				return nil, fmt.Errorf("workload: event %q has negative multiplier %v for %s", e.Name, m, dc)
			}
		}
	}
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].StartTick < s.events[j].StartTick })
	return s, nil
}

// Multiplier returns the combined traffic multiplier for a datacenter at a
// tick. With no active events it returns 1.
func (s *Schedule) Multiplier(dc string, tick int) float64 {
	if s == nil {
		return 1
	}
	m := 1.0
	for _, e := range s.events {
		if tick < e.StartTick {
			break
		}
		if tick >= e.EndTick {
			continue
		}
		if f, ok := e.Multipliers[dc]; ok {
			m *= f
		}
	}
	return m
}

// Events returns a copy of the schedule's events in start order.
func (s *Schedule) Events() []Event {
	if s == nil {
		return nil
	}
	return append([]Event(nil), s.events...)
}

// Generator produces per-datacenter offered load over a tick timeline.
type Generator struct {
	Pattern  Pattern
	DCs      []Datacenter
	Schedule *Schedule
	Tick     time.Duration
	// NoiseFrac is the relative standard deviation of multiplicative
	// lognormal-ish noise applied per tick per datacenter. Zero disables
	// noise.
	NoiseFrac float64
	// Seed drives the deterministic noise stream.
	Seed int64

	totalWeight float64
	rng         *rand.Rand
}

// NewGenerator validates the configuration and returns a ready generator.
func NewGenerator(p Pattern, dcs []Datacenter, sched *Schedule, tick time.Duration, noiseFrac float64, seed int64) (*Generator, error) {
	if p.BaseRPS < 0 {
		return nil, fmt.Errorf("workload: negative base RPS %v", p.BaseRPS)
	}
	if len(dcs) == 0 {
		return nil, errors.New("workload: no datacenters")
	}
	var tw float64
	seen := make(map[string]bool, len(dcs))
	for _, dc := range dcs {
		if dc.Weight < 0 {
			return nil, fmt.Errorf("workload: datacenter %q has negative weight", dc.Name)
		}
		if seen[dc.Name] {
			return nil, fmt.Errorf("workload: duplicate datacenter %q", dc.Name)
		}
		seen[dc.Name] = true
		tw += dc.Weight
	}
	if tw <= 0 {
		return nil, errors.New("workload: total datacenter weight is zero")
	}
	if tick <= 0 {
		tick = TickDuration
	}
	return &Generator{
		Pattern:     p,
		DCs:         append([]Datacenter(nil), dcs...),
		Schedule:    sched,
		Tick:        tick,
		NoiseFrac:   noiseFrac,
		Seed:        seed,
		totalWeight: tw,
		rng:         rand.New(rand.NewSource(seed)),
	}, nil
}

// RPS returns the offered load for one datacenter at a tick. The sequence of
// calls must be deterministic for reproducibility; callers should iterate
// ticks in order and datacenters in the configured order.
func (g *Generator) RPS(dcIndex, tick int) (float64, error) {
	if dcIndex < 0 || dcIndex >= len(g.DCs) {
		return 0, fmt.Errorf("workload: datacenter index %d out of range", dcIndex)
	}
	dc := g.DCs[dcIndex]
	dayFrac := g.localDayFrac(dc, tick)
	base := g.Pattern.At(dayFrac) * dc.Weight / g.totalWeight
	base *= g.Schedule.Multiplier(dc.Name, tick)
	if g.NoiseFrac > 0 {
		base *= math.Max(0, 1+g.NoiseFrac*g.rng.NormFloat64())
	}
	return base, nil
}

// localDayFrac converts a tick to the local day fraction of a datacenter.
func (g *Generator) localDayFrac(dc Datacenter, tick int) float64 {
	elapsed := time.Duration(tick) * g.Tick
	local := elapsed + dc.UTCOffset
	day := local % (24 * time.Hour)
	if day < 0 {
		day += 24 * time.Hour
	}
	return float64(day) / float64(24*time.Hour)
}

// NineRegions returns a realistic nine-datacenter topology spanning the
// globe, matching the paper's "9 geographic regions". Weights are uneven, as
// real population distributions are.
func NineRegions() []Datacenter {
	return []Datacenter{
		{Name: "DC 1", UTCOffset: -8 * time.Hour, Weight: 0.16}, // US West
		{Name: "DC 2", UTCOffset: -6 * time.Hour, Weight: 0.10}, // US Central
		{Name: "DC 3", UTCOffset: -5 * time.Hour, Weight: 0.17}, // US East
		{Name: "DC 4", UTCOffset: 0, Weight: 0.13},              // EU West
		{Name: "DC 5", UTCOffset: 1 * time.Hour, Weight: 0.12},  // EU Central
		{Name: "DC 6", UTCOffset: 5*time.Hour + 30*time.Minute, Weight: 0.09},
		{Name: "DC 7", UTCOffset: 8 * time.Hour, Weight: 0.11},  // APAC
		{Name: "DC 8", UTCOffset: 9 * time.Hour, Weight: 0.07},  // Japan
		{Name: "DC 9", UTCOffset: 10 * time.Hour, Weight: 0.05}, // Australia
	}
}
