// Package synth implements Step 3 of the capacity-planning methodology
// (§II-C of the paper): building a reproducible synthetic workload from
// production history and replaying it against an offline pool. Replay is
// the one loop that turns a profile into an offline pool's offered load;
// Step 4's A/B harness (internal/validate) replays the same profile to both
// of its pools.
package synth

import (
	"context"
	"errors"
	"fmt"
	"math"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/stats"
)

// Profile is a reproducible synthetic workload: a load sweep at a
// controlled offline pool size.
type Profile struct {
	// Loads is the per-server offered load of each level (RPS/server, at
	// least two levels, each above the one before by more than
	// LevelRatio(Servers)).
	Loads []float64
	// Servers is the offline pool size the profile runs at.
	Servers int
}

// Check holds the rules every replayed profile obeys: a positive server
// count and at least two levels, each above the one before by more than
// LevelRatio(Servers), so that the replay tells every two levels apart.
func (p Profile) Check() error {
	if p.Servers <= 0 {
		return fmt.Errorf("synth: non-positive server count %d", p.Servers)
	}
	if len(p.Loads) < 2 {
		return fmt.Errorf("synth: need >= 2 load levels, got %d", len(p.Loads))
	}
	ratio := LevelRatio(p.Servers)
	for i := 1; i < len(p.Loads); i++ {
		if !(p.Loads[i] > p.Loads[i-1]*ratio) {
			return fmt.Errorf("synth: each load must exceed the one before by a factor over %.17g at %d servers, got loads[%d]=%v after loads[%d]=%v",
				ratio, p.Servers, i, p.Loads[i], i-1, p.Loads[i-1])
		}
	}
	return nil
}

// LevelRatio is the least ratio of adjacent levels a replay at servers
// tells apart. A window's RPS/server is the level times servers (one
// rounding), shared out over the servers (one), skewed per server (one),
// summed back (servers − 1) and divided by servers (one): servers + 3
// roundings, each monotone and within a relative u = 2⁻⁵³. Levels whose
// ratio exceeds ((1+u)/(1−u))^(servers+3) ≈ exp(2u(servers+3)) therefore
// give windows of distinct RPS/server, and a fit over them has an x spread.
// Two more roundings cover the bound's own: the exponential and the product
// it is compared through.
func LevelRatio(servers int) float64 {
	return math.Exp(0x1p-52 * (float64(servers) + 5))
}

// BuildProfile derives a synthetic workload from production pool history:
// a load sweep covering the observed per-server range (plus optional
// extension for stress testing) at a controlled offline pool size.
//
// levels is the number of load steps; extendFrac stretches the sweep beyond
// the observed p99 load (0.25 = +25%), giving the "small workload increments
// over time to obtain a broad set of data" of §II-D.
func BuildProfile(series []metrics.TickStat, servers, levels int, extendFrac float64) (Profile, error) {
	if extendFrac < 0 {
		return Profile{}, fmt.Errorf("synth: negative extension %v", extendFrac)
	}
	var perServer []float64
	for _, t := range series {
		if t.Servers > 0 {
			perServer = append(perServer, t.RPSPerServer)
		}
	}
	if len(perServer) < 2 {
		return Profile{}, errors.New("synth: not enough production windows")
	}
	lo := stats.Percentile(perServer, 1)
	hi := stats.Percentile(perServer, 99) * (1 + extendFrac)
	if hi <= lo {
		return Profile{}, fmt.Errorf("synth: degenerate load range [%v, %v]", lo, hi)
	}
	p := Profile{Servers: servers}
	for i := 0; i < levels; i++ {
		frac := float64(i) / float64(levels-1)
		p.Loads = append(p.Loads, lo+(hi-lo)*frac)
	}
	if err := p.Check(); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// Replay drives an offline pool, named dc, through the profile: each level
// runs for ticksPerLevel windows at level × Servers total RPS. It returns
// the pool's per-window statistics, level by level; ctx is checked per
// simulated tick.
func Replay(ctx context.Context, pc sim.PoolConfig, dc string, p Profile, ticksPerLevel int, seed int64) ([]metrics.TickStat, error) {
	if err := p.Check(); err != nil {
		return nil, err
	}
	if ticksPerLevel <= 0 {
		return nil, fmt.Errorf("synth: non-positive ticks per level %d", ticksPerLevel)
	}
	offered := make([]float64, 0, len(p.Loads)*ticksPerLevel)
	for _, l := range p.Loads {
		for r := 0; r < ticksPerLevel; r++ {
			offered = append(offered, l*float64(p.Servers))
		}
	}
	return sim.SimulatePoolSeries(ctx, pc, dc, offered, p.Servers, seed)
}
