// Package synth implements Step 3 of the capacity-planning methodology
// (§II-C of the paper): building a reproducible synthetic workload from
// production history and replaying it against an offline pool, so that
// changes can be validated offline before deployment.
package synth

import (
	"context"
	"errors"
	"fmt"

	"headroom/internal/metrics"
	"headroom/internal/sim"
	"headroom/internal/stats"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// Profile is a reproducible synthetic workload derived from production
// observations: an offered-load sweep and the production request mix.
type Profile struct {
	// Offered is the total pool RPS per tick to replay.
	Offered []float64
	// Servers is the offline pool size the profile was built for.
	Servers int
	// Mix is the production request mix the replay must reproduce.
	Mix workload.Mix
}

// BuildProfile derives a synthetic workload from production pool history:
// a load sweep covering the observed per-server range (plus optional
// extension for stress testing) at a controlled offline pool size.
//
// levels is the number of load steps; extendFrac stretches the sweep beyond
// the observed p99 load (0.25 = +25%), giving the "small workload increments
// over time to obtain a broad set of data" of §II-D.
func BuildProfile(series []metrics.TickStat, mix workload.Mix, servers, levels int, extendFrac float64) (Profile, error) {
	if servers <= 0 {
		return Profile{}, fmt.Errorf("synth: non-positive server count %d", servers)
	}
	if levels < 2 {
		return Profile{}, fmt.Errorf("synth: need >= 2 load levels, got %d", levels)
	}
	if extendFrac < 0 {
		return Profile{}, fmt.Errorf("synth: negative extension %v", extendFrac)
	}
	if err := mix.Validate(); err != nil {
		return Profile{}, fmt.Errorf("synth: %w", err)
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
	offered := make([]float64, levels)
	for i := range offered {
		frac := float64(i) / float64(levels-1)
		offered[i] = (lo + (hi-lo)*frac) * float64(servers)
	}
	return Profile{Offered: offered, Servers: servers, Mix: mix}, nil
}

// ReplayContext drives an offline pool with the synthetic workload,
// returning the trace records. ticksPerLevel repeats each load step to
// accumulate statistics; ctx is checked per simulated tick.
func ReplayContext(ctx context.Context, pc sim.PoolConfig, p Profile, ticksPerLevel int, seed int64) ([]trace.Record, error) {
	if ticksPerLevel <= 0 {
		return nil, fmt.Errorf("synth: non-positive ticks per level %d", ticksPerLevel)
	}
	if len(p.Offered) == 0 {
		return nil, errors.New("synth: empty profile")
	}
	series := make([]float64, 0, len(p.Offered)*ticksPerLevel)
	for _, load := range p.Offered {
		for r := 0; r < ticksPerLevel; r++ {
			series = append(series, load)
		}
	}
	return sim.SimulatePoolContext(ctx, pc, "offline", series, p.Servers, seed)
}
