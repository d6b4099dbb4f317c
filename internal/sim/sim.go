package sim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"headroom/internal/metrics"
	"headroom/internal/trace"
	"headroom/internal/workload"
)

// Action is a scheduled operational change applied to one pool in one
// datacenter at a tick. Actions model the paper's production experiments:
// server-count changes (§II-B2) and deployments that shift the CPU intercept
// (the confound observed during the pool B experiment).
type Action struct {
	Pool string
	DC   string
	Tick int
	// SetServers, when positive, caps the pool's active servers in this
	// datacenter at the given count.
	SetServers int
	// CPUInterceptDelta permanently shifts the CPU intercept from this
	// tick on (code/data deployments).
	CPUInterceptDelta float64
}

// serverState is the immutable identity of one simulated server.
type serverState struct {
	name       string
	gen        Generation
	maintStart int     // tick-of-day when its maintenance window opens
	rpsJitter  float64 // persistent per-server load-balance skew (~1.0)
}

// poolDCState is the mutable per-(pool, datacenter) simulation state.
type poolDCState struct {
	dc          workload.Datacenter
	servers     []serverState
	rng         *rand.Rand
	target      int // active server cap (<= len(servers))
	cpuDelta    float64
	latDelta    float64
	incidentEnd int // tick before which an incident holds servers down
	incidentN   int // servers taken by the incident
	actions     []Action
	nextAction  int
}

// poolState is one pool across all datacenters.
type poolState struct {
	cfg   PoolConfig
	gen   *workload.Generator
	perDC []*poolDCState // indexed like FleetConfig.DCs; nil when absent
}

// Simulator runs a configured fleet over a tick timeline.
type Simulator struct {
	cfg         FleetConfig
	tick        time.Duration
	ticksPerDay int
	pools       []*poolState
	step        []trace.Record // reused by fillStep
	online      []bool         // reused by decide
}

// New validates the configuration and builds a simulator. Actions are
// applied at their scheduled ticks in order.
func New(cfg FleetConfig, actions ...Action) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tick := cfg.Tick
	if tick <= 0 {
		tick = workload.TickDuration
	}
	s := &Simulator{cfg: cfg, tick: tick, ticksPerDay: workload.TicksPerDay(tick)}

	dcIndex := make(map[string]int, len(cfg.DCs))
	for i, dc := range cfg.DCs {
		dcIndex[dc.Name] = i
	}
	poolIndex := make(map[string]*poolState, len(cfg.Pools))

	for pi, pc := range cfg.Pools {
		gen, err := workload.NewGenerator(pc.Traffic, cfg.DCs, nil, tick,
			cfg.WorkloadNoiseFrac, deriveSeed(cfg.Seed, pc.Name, "workload"))
		if err != nil {
			return nil, fmt.Errorf("sim: pool %s: %w", pc.Name, err)
		}
		ps := &poolState{cfg: cfg.Pools[pi], gen: gen, perDC: make([]*poolDCState, len(cfg.DCs))}
		for dcName, n := range pc.Servers {
			di := dcIndex[dcName]
			st := &poolDCState{
				dc:       cfg.DCs[di],
				rng:      rand.New(rand.NewSource(deriveSeed(cfg.Seed, pc.Name, dcName))),
				target:   n,
				latDelta: pc.DCLatencyDelta[dcName],
			}
			st.servers = buildServers(pc, dcName, n, s.ticksPerDay, st.rng)
			ps.perDC[di] = st
		}
		poolIndex[pc.Name] = ps
		s.pools = append(s.pools, ps)
	}

	for _, a := range actions {
		ps, ok := poolIndex[a.Pool]
		if !ok {
			return nil, fmt.Errorf("sim: action references unknown pool %q", a.Pool)
		}
		di, ok := dcIndex[a.DC]
		if !ok || ps.perDC[di] == nil {
			return nil, fmt.Errorf("sim: action references pool %q absent from datacenter %q", a.Pool, a.DC)
		}
		if a.SetServers < 0 || a.SetServers > len(ps.perDC[di].servers) {
			return nil, fmt.Errorf("sim: action sets %d servers for pool %s@%s (max %d)",
				a.SetServers, a.Pool, a.DC, len(ps.perDC[di].servers))
		}
		ps.perDC[di].actions = append(ps.perDC[di].actions, a)
	}
	for _, ps := range s.pools {
		for _, st := range ps.perDC {
			if st == nil {
				continue
			}
			sort.SliceStable(st.actions, func(i, j int) bool { return st.actions[i].Tick < st.actions[j].Tick })
		}
	}
	return s, nil
}

// buildServers assigns names, hardware generations and staggered maintenance
// windows.
func buildServers(pc PoolConfig, dcName string, n, ticksPerDay int, rng *rand.Rand) []serverState {
	gens := pc.Generations
	if len(gens) == 0 {
		gens = []Generation{{Name: "gen1", Share: 1, CPUFactor: 1}}
	}
	var totalShare float64
	for _, g := range gens {
		totalShare += g.Share
	}
	servers := make([]serverState, n)
	// Assign generations in contiguous blocks proportional to share.
	gi, consumed := 0, 0.0
	for i := range servers {
		frac := float64(i) / float64(n)
		for gi < len(gens)-1 && frac >= (consumed+gens[gi].Share)/totalShare {
			consumed += gens[gi].Share
			gi++
		}
		servers[i] = serverState{
			name:       fmt.Sprintf("%s-%s-%04d", pc.Name, sanitize(dcName), i),
			gen:        gens[gi],
			maintStart: i * ticksPerDay / n,
			rpsJitter:  1 + 0.03*rng.NormFloat64(),
		}
		if servers[i].rpsJitter < 0.5 {
			servers[i].rpsJitter = 0.5
		}
	}
	return servers
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

// deriveSeed mixes the fleet seed with component names so every stream is
// independent yet reproducible.
func deriveSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return seed ^ int64(h.Sum64())
}

// TicksPerDay returns the number of windows per day at the configured tick.
func (s *Simulator) TicksPerDay() int { return s.ticksPerDay }

// RunContext is RunSteps for per-record callers: the same records in the same
// order, handed to emit one at a time. Emission order is deterministic: tick,
// then pool (configuration order), then datacenter (configuration order),
// then server.
func (s *Simulator) RunContext(ctx context.Context, ticks int, emit func(trace.Record) error) error {
	if emit == nil {
		return fmt.Errorf("sim: nil emit callback")
	}
	return s.RunSteps(ctx, ticks, trace.EachRecord(emit))
}

// RunSteps simulates [0, ticks) windows and emits the records of each
// (pool, datacenter, tick) step as one slice, in RunContext's order. The slice
// is the simulator's own buffer, overwritten by the next step: emit must not
// retain it. ctx is checked at every step; once it is done RunSteps returns
// ctx.Err(), leaving the simulator's remaining timeline unevaluated.
func (s *Simulator) RunSteps(ctx context.Context, ticks int, emit func(step []trace.Record) error) error {
	if emit == nil {
		return fmt.Errorf("sim: nil emit callback")
	}
	return s.forSteps(ctx, ticks, func(ps *poolState, di, _, tick int) error {
		step, err := s.stepPoolDC(ps, ps.perDC[di], di, tick)
		if err != nil {
			return err
		}
		return emit(step)
	})
}

// forSteps calls step for each (pool, datacenter) of each tick in [0,
// ticks), in RunContext's order, with the pool, the datacenter's index and
// the step's index within its tick. ctx is checked before every step; once
// it is done forSteps returns ctx.Err(), leaving the rest of the timeline
// unevaluated.
func (s *Simulator) forSteps(ctx context.Context, ticks int, step func(ps *poolState, di, at, tick int) error) error {
	if ticks <= 0 {
		return fmt.Errorf("sim: non-positive tick count %d", ticks)
	}
	for tick := 0; tick < ticks; tick++ {
		at := 0
		for _, ps := range s.pools {
			for di, st := range ps.perDC {
				if st == nil {
					continue
				}
				if err := ctx.Err(); err != nil {
					return err
				}
				if err := step(ps, di, at, tick); err != nil {
					return err
				}
				at++
			}
		}
	}
	return nil
}

// RunCollect simulates and returns all records in memory. Intended for
// small fleets and tests; large fleets should stream through RunSteps.
func (s *Simulator) RunCollect(ticks int) ([]trace.Record, error) {
	var out []trace.Record
	err := s.RunSteps(context.Background(), ticks, func(step []trace.Record) error {
		out = append(out, step...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stepPoolDC advances one pool in one datacenter by one tick and returns the
// step's records (see fillStep for the buffer's lifetime).
func (s *Simulator) stepPoolDC(ps *poolState, st *poolDCState, dcIdx, tick int) ([]trace.Record, error) {
	offered, err := s.advance(ps, st, dcIdx, tick)
	if err != nil {
		return nil, err
	}
	return s.fillStep(ps, st, tick, offered), nil
}

// advance moves one pool in one datacenter to tick — due actions applied,
// the day's incident rolled — and returns the load offered to it there.
func (s *Simulator) advance(ps *poolState, st *poolDCState, dcIdx, tick int) (float64, error) {
	// Apply due actions.
	for st.nextAction < len(st.actions) && st.actions[st.nextAction].Tick <= tick {
		a := st.actions[st.nextAction]
		st.nextAction++
		if a.SetServers > 0 {
			st.target = a.SetServers
		}
		st.cpuDelta += a.CPUInterceptDelta
	}

	// Roll pool-wide incidents at local day boundaries.
	av := ps.cfg.Availability
	if av.IncidentProb > 0 && tick%s.ticksPerDay == 0 {
		if st.rng.Float64() < av.IncidentProb {
			st.incidentEnd = tick + av.IncidentTicks
			st.incidentN = int(av.IncidentFrac * float64(st.target))
		}
	}

	// Offered load for this pool in this datacenter.
	offered, err := ps.gen.RPS(dcIdx, tick)
	if err != nil {
		return 0, err
	}
	return offered * ps.cfg.Schedule.Multiplier(st.dc.Name, tick), nil
}

// decide decides which of st's servers are online at tick and shares the
// offered load evenly over those (the pool's load balancer): online[i] is
// server i's flag, in the simulator's reused buffer (the next call
// overwrites it), and share each online server's load, 0 when none is
// online. A server is online below the capacity cap, past the incident's
// servers, outside its staggered maintenance window, and not while the
// repurposed pool is lent out around the local traffic trough. Every step
// is decided here — fillStep's records and writeStep's windows alike — and
// then its online servers are filled in server order, the order of the
// random draws.
func (s *Simulator) decide(ps *poolState, st *poolDCState, tick int, offered float64) (online []bool, share float64) {
	av := ps.cfg.Availability
	tod := tick % s.ticksPerDay
	maintLen := 0
	if av.PlannedDailyFrac > 0 {
		maintLen = int(av.PlannedDailyFrac * float64(s.ticksPerDay))
	}
	lent := false
	if av.RepurposedOffPeakFrac > 0 {
		troughFrac := ps.cfg.Traffic.PeakHour/24 + 0.5
		if troughFrac >= 1 {
			troughFrac -= 1
		}
		d := math.Abs(s.localDayFrac(st.dc, tick) - troughFrac)
		if d > 0.5 {
			d = 1 - d
		}
		lent = d < av.RepurposedOffPeakFrac/2
	}
	firstUp := 0
	if tick < st.incidentEnd {
		firstUp = st.incidentN
	}

	if cap(s.online) < len(st.servers) {
		s.online = make([]bool, len(st.servers))
	}
	online = s.online[:len(st.servers)]
	nOnline := 0
	for i := range online {
		up := !lent && i >= firstUp && i < st.target
		if up && maintLen > 0 {
			delta := tod - st.servers[i].maintStart
			if delta < 0 {
				delta += s.ticksPerDay
			}
			up = delta >= maintLen
		}
		online[i] = up
		if up {
			nOnline++
		}
	}
	if nOnline > 0 {
		share = offered / float64(nOnline)
	}
	return online, share
}

// fillStep writes one record per server of st for this tick into the
// simulator's reused step buffer and returns it; the next call overwrites it.
// The step is decided first (see decide), then each online record is filled
// in place, in server order.
func (s *Simulator) fillStep(ps *poolState, st *poolDCState, tick int, offered float64) []trace.Record {
	if cap(s.step) < len(st.servers) {
		s.step = make([]trace.Record, len(st.servers))
	}
	step := s.step[:len(st.servers)]
	online, share := s.decide(ps, st, tick, offered)
	for i := range step {
		srv := &st.servers[i]
		// Field by field through the pointer: clearing the whole record would
		// run the write barrier over its four strings a second time.
		rec := &step[i]
		rec.Tick, rec.DC, rec.Pool = tick, st.dc.Name, ps.cfg.Name
		rec.Server, rec.Generation, rec.Online = srv.name, srv.gen.Name, online[i]
		rec.RPS, rec.CPUPct, rec.LatencyMs = 0, 0, 0
		rec.NetBytes, rec.NetPkts, rec.MemPages, rec.DiskQueue, rec.DiskRead, rec.Errors = 0, 0, 0, 0, 0, 0
	}
	for i := range step {
		if online[i] {
			s.fillResponse(&step[i], &ps.cfg.Response, st, &st.servers[i], share, tick)
		}
	}
	return step
}

// Aggregate simulates [0, ticks) windows, as RunSteps does, straight into a
// new aggregator: each (pool, datacenter) through a metrics.PoolWriter, a
// step at a time (writeStep). No step is built and no record carries a name,
// yet the aggregator ends up holding what AddAll over RunSteps' steps leaves,
// bit for bit. It also returns the number of records the steps would have
// held (online or not); ctx is checked at every step, and once it is done
// Aggregate returns ctx.Err().
func (s *Simulator) Aggregate(ctx context.Context, ticks int) (*metrics.Aggregator, int64, error) {
	agg := s.newAggregator(ticks)
	var writers []*metrics.PoolWriter // by step within a tick
	var rec trace.Record
	var records int64
	err := s.forSteps(ctx, ticks, func(ps *poolState, di, at, tick int) error {
		st := ps.perDC[di]
		if at == len(writers) {
			writers = append(writers, st.writer(agg, ps.cfg.Name))
		}
		offered, err := s.advance(ps, st, di, tick)
		if err != nil {
			return err
		}
		s.writeStep(writers[at], ps, st, tick, offered, &rec)
		records += int64(len(st.servers))
		return nil
	})
	if err != nil {
		return nil, records, err
	}
	return agg, records, nil
}

// newAggregator returns an aggregator for a run of ticks windows, sized to at
// most a day of them: sized to a long horizon, each pool's first step would
// allocate all of it, out of reach of the check for cancellation between
// steps; past a day it grows instead.
func (s *Simulator) newAggregator(ticks int) *metrics.Aggregator {
	return metrics.NewAggregatorFor(min(ticks, s.ticksPerDay))
}

// writer returns agg's writer of the pool's windows in st's datacenter, its
// servers by index.
func (st *poolDCState) writer(agg *metrics.Aggregator, pool string) *metrics.PoolWriter {
	return agg.PoolWriter(metrics.PoolKey{DC: st.dc.Name, Pool: pool}, len(st.servers),
		func(i int) (string, string) { return st.servers[i].name, st.servers[i].gen.Name })
}

// writeStep writes one step of st at tick, under the offered load, into w:
// the window opened, the step decided (see decide), and each online server's
// response filled into rec and written by index, in server order.
func (s *Simulator) writeStep(w *metrics.PoolWriter, ps *poolState, st *poolDCState, tick int, offered float64, rec *trace.Record) {
	w.Window(tick)
	online, share := s.decide(ps, st, tick, offered)
	for i := range online {
		if online[i] {
			s.fillResponse(rec, &ps.cfg.Response, st, &st.servers[i], share, tick)
			w.Online(i, rec)
		}
	}
}

func (s *Simulator) localDayFrac(dc workload.Datacenter, tick int) float64 {
	local := time.Duration(tick)*s.tick + dc.UTCOffset
	day := local % (24 * time.Hour)
	if day < 0 {
		day += 24 * time.Hour
	}
	return float64(day) / float64(24*time.Hour)
}

// fillResponse computes the server's resource and QoS response to its share
// of the offered load, in place: every value field of rec is written.
func (s *Simulator) fillResponse(rec *trace.Record, rp *ResponseParams, st *poolDCState, srv *serverState, perServer float64, tick int) {
	rng := st.rng
	rps := perServer * srv.rpsJitter
	if rps < 0 {
		rps = 0
	}
	rec.RPS = rps

	cpu := srv.gen.CPUFactor*(rp.CPUSlope*rps+rp.CPUIntercept) + st.cpuDelta
	if rp.CPUNoise > 0 {
		cpu += rp.CPUNoise * rng.NormFloat64()
	}
	if rp.SpikeProb > 0 && rng.Float64() < rp.SpikeProb {
		cpu += rp.SpikeAmp * (0.5 + 0.5*rng.Float64())
	}
	var bgBytes float64
	if rp.BackgroundDurTicks > 0 && rp.BackgroundPeriodTicks > 0 {
		// Staggered per server like maintenance, so pool aggregates show
		// the rolling contamination the paper describes.
		phase := (tick + srv.maintStart) % rp.BackgroundPeriodTicks
		if phase < rp.BackgroundDurTicks {
			cpu += rp.BackgroundCPU * (0.7 + 0.6*rng.Float64())
			bgBytes = rp.BackgroundNetBytes
		}
	}
	rec.CPUPct = clamp(cpu, 0, 100)

	lat := rp.LatQuad[2]*rps*rps + rp.LatQuad[1]*rps + rp.LatQuad[0] + st.latDelta
	if rp.LatNoise > 0 {
		lat += rp.LatNoise * rng.NormFloat64()
	}
	if lat < 0 {
		lat = 0
	}
	rec.LatencyMs = lat

	rec.NetBytes = nonNeg(rp.NetBytesPerReq*rps*(1+0.08*rng.NormFloat64()) + bgBytes)
	rec.NetPkts = nonNeg(rp.NetPktsPerReq * rps * (1 + 0.08*rng.NormFloat64()))
	// Paging activity varies widely at any workload level ("vertical
	// patterns" in Figure 2): dominated by background behaviour.
	rec.MemPages = rng.Float64() * rp.MemPagesBase
	rec.DiskRead = rec.MemPages * rp.DiskBytesPerPage * (1 + 0.1*rng.NormFloat64())
	if rec.DiskRead < 0 {
		rec.DiskRead = 0
	}
	rec.DiskQueue = rp.DiskQueueBase * rng.ExpFloat64()
	rec.Errors = 0
	if rp.ErrorRate > 0 && rng.Float64() < rp.ErrorRate {
		rec.Errors = float64(1 + rng.Intn(3))
	}
}

// nonNeg is math.Max(0, x) — +0 for ±0 and negatives, NaN for NaN — in a
// form the compiler inlines.
func nonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SimulatePoolSeries runs one pool in one datacenter against an explicit
// offered-load series (total pool RPS per tick) with a fixed server count and
// returns the pool's per-tick series, in tick order: what an offline
// experiment observes. This is the controlled harness of the offline
// experiments, where the operator drives load precisely instead of receiving
// organic traffic: synth.Replay runs a synthetic workload through it for the
// offline validation of step 4, and core.SimPlant a reduction experiment's
// load. Each tick is written by server index into the series' aggregator
// (writeStep), so no record is kept. ctx is checked once per tick.
func SimulatePoolSeries(ctx context.Context, pc PoolConfig, dcName string, offered []float64, servers int, seed int64) ([]metrics.TickStat, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("sim: non-positive server count %d", servers)
	}
	if len(offered) == 0 {
		return nil, fmt.Errorf("sim: empty offered-load series")
	}
	if err := pc.Response.Validate(); err != nil {
		return nil, err
	}
	ticksPerDay := workload.TicksPerDay(workload.TickDuration)
	rng := rand.New(rand.NewSource(deriveSeed(seed, pc.Name, dcName, "offline")))
	st := &poolDCState{
		dc:      workload.Datacenter{Name: dcName, Weight: 1},
		rng:     rng,
		target:  servers,
		servers: buildServers(pc, dcName, servers, ticksPerDay, rng),
	}
	// The offline harness drives load precisely: no availability model, so
	// every server is online at every tick.
	ps := &poolState{cfg: PoolConfig{Name: pc.Name, Response: pc.Response}}
	sim := &Simulator{tick: workload.TickDuration, ticksPerDay: ticksPerDay}
	agg := sim.newAggregator(len(offered))
	w := st.writer(agg, pc.Name)
	var rec trace.Record
	for tick, load := range offered {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if load < 0 {
			return nil, fmt.Errorf("sim: negative offered load %v at tick %d", load, tick)
		}
		sim.writeStep(w, ps, st, tick, load, &rec)
	}
	return agg.PoolSeries(dcName, pc.Name)
}
