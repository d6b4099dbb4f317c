package baseline

import (
	"fmt"
	"math"
)

// AutoscalerConfig is a reactive utilisation-band autoscaler of the kind the
// paper's §I argues cannot serve large low-latency services: it reacts after
// the fact, and real capacity changes take minutes (service start-up, JIT,
// cache priming) to weeks (procurement), so during diurnal swings it either
// lags demand or holds excess.
type AutoscalerConfig struct {
	// TargetLow and TargetHigh bound the desired CPU utilisation band
	// (percent).
	TargetLow  float64
	TargetHigh float64
	// MinServers and MaxServers clamp the fleet size.
	MinServers int
	MaxServers int
	// ProvisionDelayTicks is how many ticks a scale-out takes to become
	// effective (start-up, JIT, cache priming).
	ProvisionDelayTicks int
	// CooldownTicks is the minimum spacing between scaling decisions.
	CooldownTicks int
}

// stepFrac is the relative size of each scaling step.
const stepFrac = 0.1

func (c AutoscalerConfig) validate() error {
	if c.TargetLow <= 0 || c.TargetHigh <= c.TargetLow || c.TargetHigh >= 100 {
		return fmt.Errorf("baseline: invalid utilisation band [%v, %v]", c.TargetLow, c.TargetHigh)
	}
	if c.MinServers <= 0 || c.MaxServers < c.MinServers {
		return fmt.Errorf("baseline: invalid server bounds [%d, %d]", c.MinServers, c.MaxServers)
	}
	if c.ProvisionDelayTicks < 0 || c.CooldownTicks < 0 {
		return fmt.Errorf("baseline: negative delays")
	}
	return nil
}

// ScaleDecision records one autoscaler action.
type ScaleDecision struct {
	Tick       int
	From, To   int
	Triggering float64 // observed CPU that triggered the action
}

// AutoscaleResult summarises a simulated autoscaler run.
type AutoscaleResult struct {
	Decisions []ScaleDecision
	// ServerTicks is the integral of provisioned servers over time (the
	// cost measure).
	ServerTicks int
	// SLOViolations counts ticks whose latency exceeded the SLO.
	SLOViolations int
	// PeakServers is the maximum fleet size reached.
	PeakServers int
}

// ResponseFunc maps (offered total RPS, active servers) to the pool's
// (cpu%, latency ms) — the plant the autoscaler steers. It abstracts the
// simulator for unit testing.
type ResponseFunc func(totalRPS float64, servers int) (cpuPct, latencyMs float64)

// SimulateAutoscaler runs the reactive loop over an offered-load series and
// scores cost and SLO compliance. Scale-outs only take effect after the
// provisioning delay; scale-ins are immediate (draining is fast).
func SimulateAutoscaler(cfg AutoscalerConfig, offered []float64, initial int, sloMs float64, respond ResponseFunc) (AutoscaleResult, error) {
	if err := cfg.validate(); err != nil {
		return AutoscaleResult{}, err
	}
	if respond == nil {
		return AutoscaleResult{}, fmt.Errorf("baseline: nil response function")
	}
	if len(offered) == 0 {
		return AutoscaleResult{}, fmt.Errorf("baseline: empty load series")
	}
	if initial < cfg.MinServers || initial > cfg.MaxServers {
		return AutoscaleResult{}, fmt.Errorf("baseline: initial %d outside [%d, %d]", initial, cfg.MinServers, cfg.MaxServers)
	}

	var res AutoscaleResult
	servers := initial
	pendingServers := 0 // scale-out in flight
	pendingUntil := -1
	lastDecision := -1 << 30

	for tick, load := range offered {
		if pendingServers > 0 && tick >= pendingUntil {
			servers += pendingServers
			pendingServers = 0
		}
		cpu, lat := respond(load, servers)
		res.ServerTicks += servers + pendingServers // in-flight capacity is paid for
		if servers > res.PeakServers {
			res.PeakServers = servers
		}
		if lat > sloMs {
			res.SLOViolations++
		}
		if tick-lastDecision < cfg.CooldownTicks {
			continue
		}
		step := int(math.Max(1, float64(servers)*stepFrac))
		switch {
		case cpu > cfg.TargetHigh && servers+pendingServers < cfg.MaxServers:
			add := step
			if servers+pendingServers+add > cfg.MaxServers {
				add = cfg.MaxServers - servers - pendingServers
			}
			if add > 0 {
				res.Decisions = append(res.Decisions, ScaleDecision{Tick: tick, From: servers, To: servers + add, Triggering: cpu})
				pendingServers += add
				pendingUntil = tick + cfg.ProvisionDelayTicks
				lastDecision = tick
			}
		case cpu < cfg.TargetLow && servers > cfg.MinServers && pendingServers == 0:
			remove := step
			if servers-remove < cfg.MinServers {
				remove = servers - cfg.MinServers
			}
			if remove > 0 {
				res.Decisions = append(res.Decisions, ScaleDecision{Tick: tick, From: servers, To: servers - remove, Triggering: cpu})
				servers -= remove
				lastDecision = tick
			}
		}
	}
	return res, nil
}

// StaticPlanCost returns the cost (server-ticks) and SLO violations of a
// fixed allocation over the same load series, for comparison with the
// autoscaler and with the black-box plan.
func StaticPlanCost(servers int, offered []float64, sloMs float64, respond ResponseFunc) (AutoscaleResult, error) {
	if servers <= 0 {
		return AutoscaleResult{}, fmt.Errorf("baseline: non-positive server count %d", servers)
	}
	if respond == nil {
		return AutoscaleResult{}, fmt.Errorf("baseline: nil response function")
	}
	var res AutoscaleResult
	res.PeakServers = servers
	for _, load := range offered {
		_, lat := respond(load, servers)
		res.ServerTicks += servers
		if lat > sloMs {
			res.SLOViolations++
		}
	}
	return res, nil
}
