package main

import (
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/experiments"
	"autrascale/internal/flink"
	"autrascale/internal/kafka"
	"autrascale/internal/policy"
	"autrascale/internal/workloads"
)

// The tournament workload is the policy × schedule × chaos grid of
// `cmd/experiments tournament` at its default horizon, run on one
// goroutine with no metrics store, tracer or persistence — exactly as
// the command runs it. The benchmark builds every cell from public
// constructors and calls Controller.Step itself, so it can time steps
// and score each cell from a running total over the events Step returns
// (Controller.Events keeps only the last 512).

var (
	tournamentPolicies  = []string{"bo", "ds2", "ds2-online", "drs-true", "drs-observed"}
	tournamentSchedules = []string{"step", "diurnal", "flash-crowd", "sawtooth"}
	tournamentChaos     = []string{"none", "light", "heavy"}
)

const (
	tournamentWorkload   = "nexmark-q5"
	tournamentHorizonSec = 7200
	// tournamentSeeds is how many grids, at consecutive sub-seeds, make
	// one unit.
	tournamentSeeds = 8
	// policyIntervalSec is the controller's default policy interval; the
	// tournament's shared clock advances by one per round, as a fleet's
	// does by default.
	policyIntervalSec = 60
	// minTournamentUnits run in every run, whatever --seconds says: two to
	// check that a unit repeats exactly, three for a median.
	minTournamentUnits = 3
)

// cellSeed is the tournament's per-cell seed: the grid seed mixed with
// the cell's coordinates (checked against experiments.RunTournament).
func cellSeed(seed uint64, pol, sched, chaosName string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s", seed, pol, sched, chaosName)
	return h.Sum64()
}

// tournamentSchedule builds the tournament's rate shape around the
// workload's default rate (checked against experiments.RunTournament).
func tournamentSchedule(name string, rate, durationSec float64) (kafka.RateSchedule, error) {
	switch name {
	case "step":
		return kafka.StepSchedule{Steps: []kafka.Step{
			{FromSec: 0, Rate: 0.75 * rate},
			{FromSec: durationSec / 2, Rate: 1.25 * rate},
		}}, nil
	case "diurnal":
		return kafka.DiurnalRate{
			NightRate: 0.5 * rate, PeakRate: 1.25 * rate,
			PeriodSec: durationSec, PeakAtSec: durationSec / 2, Sharpness: 3,
		}, nil
	case "flash-crowd":
		return kafka.FlashCrowdRate{
			BaseRate: 0.6 * rate, PeakRate: 1.4 * rate,
			StartSec: durationSec / 3, RampSec: 120, HoldSec: 600, DecayTauSec: 600,
		}, nil
	case "sawtooth":
		return kafka.SawtoothRate{MinRate: 0.6 * rate, MaxRate: 1.3 * rate, PeriodSec: durationSec / 3}, nil
	}
	return nil, fmt.Errorf("unknown schedule %q", name)
}

// cellScore is one cell's quality outcome. Units compare them for exact
// equality: across repeats, traced against untraced, and against
// experiments.RunTournament.
type cellScore struct {
	policy, schedule, chaos string
	seed                    uint64
	steps, violations       int
	rescales                int
	coreSec                 float64
	finalPar                string
	err                     string
}

type tournamentCell struct {
	score  cellScore
	rates  kafka.RateSchedule
	engine *flink.Engine
	ctl    *core.Controller
	target float64
}

// tournamentUnit is one measured unit: the grid at every sub-seed.
type tournamentUnit struct {
	// setup and cpu are CPU time; wall is the wall time of the rounds.
	setup, cpu, wall time.Duration
	roundCPU         []float64
	scores           []cellScore
	simSec           float64
	steps            int
	// stepMS holds every Controller.Step time of a traced unit.
	stepMS []float64
	// ops are the operator cycles run after each grid.
	ops []gridOps
}

// gridSeeds are the tournament seeds one unit runs: the grid repeated
// over tournamentSeeds sub-seeds, so the quality totals average over
// enough runs to be steady from one --seed to the next.
func gridSeeds(seed uint64) []uint64 {
	out := make([]uint64, tournamentSeeds)
	for k := range out {
		out[k] = seed*tournamentSeeds + uint64(k)
	}
	return out
}

func buildTournament(seed uint64, pr *probe) ([]*tournamentCell, error) {
	spec, ok := workloads.ByName(tournamentWorkload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", tournamentWorkload)
	}
	var cells []*tournamentCell
	for _, pol := range tournamentPolicies {
		for _, sched := range tournamentSchedules {
			for _, ch := range tournamentChaos {
				c := &tournamentCell{
					score:  cellScore{policy: pol, schedule: sched, chaos: ch, seed: cellSeed(seed, pol, sched, ch)},
					target: spec.TargetLatencyMS,
				}
				var err error
				c.rates, err = tournamentSchedule(sched, spec.DefaultRateRPS, tournamentHorizonSec)
				if err != nil {
					return nil, err
				}
				profile, err := chaos.ByName(ch)
				if err != nil {
					return nil, err
				}
				var injector *chaos.Injector
				if profile.Enabled() {
					injector = chaos.New(profile, c.score.seed)
				}
				c.engine, err = workloads.NewEngine(spec, workloads.EngineOptions{
					Schedule: c.rates, Seed: c.score.seed, Chaos: injector,
				})
				if err != nil {
					return nil, err
				}
				p, err := policy.Build(pol, policy.Env{TargetLatencyMS: spec.TargetLatencyMS, Seed: c.score.seed})
				if err != nil {
					return nil, err
				}
				c.ctl, err = core.NewController(c.engine, core.ControllerConfig{
					TargetLatencyMS: spec.TargetLatencyMS, Seed: c.score.seed, Policy: pr.wrap(p),
				})
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// runTournamentUnit builds and runs every sub-seed's grid once. The
// cells of a grid advance in rounds of one policy interval on a shared
// clock, as a fleet round steps its due jobs: each cell steps until its
// engine catches up with the clock. Cells are independent, so the order
// changes no result (the RunTournament check proves it). pr is nil for
// an untraced unit.
func runTournamentUnit(seed uint64, pr *probe, heap *heapPeak) (*tournamentUnit, error) {
	spans := pr.log()
	u := &tournamentUnit{}
	for _, gs := range gridSeeds(seed) {
		var cells []*tournamentCell
		setup, err := timeCall(func() (err error) {
			cells, err = buildTournament(gs, pr)
			return err
		})
		if err != nil {
			return nil, err
		}
		u.setup += setup
		prev := make([]float64, len(cells))
		done := make([]bool, len(cells))
		for round := 1; ; round++ {
			clock := min(float64(round)*policyIntervalSec, tournamentHorizonSec)
			traceID := spans.newTrace()
			roundSpan := spans.begin("tournament.round", 0, traceID)
			rc := startClock()
			for i, c := range cells {
				for !done[i] && c.engine.Now() < clock {
					stepSpan := spans.begin("core.step", roundSpan, traceID)
					pr.enter(stepSpan, traceID)
					ts := time.Now()
					ev, err := c.ctl.Step()
					if spans != nil {
						u.stepMS = append(u.stepMS, ms(time.Since(ts)))
					}
					spans.end(stepSpan)
					if err != nil {
						c.score.err = err.Error()
						done[i] = true
						break
					}
					c.score.steps++
					if ev.ProcLatencyMS > c.target {
						c.score.violations++
					}
					c.score.coreSec += ev.CPUUsedCores * (ev.TimeSec - prev[i])
					prev[i] = ev.TimeSec
				}
			}
			wall, cpu := rc.stop()
			spans.end(roundSpan)
			u.wall += wall
			u.cpu += cpu
			u.roundCPU = append(u.roundCPU, ms(cpu))
			heap.take()
			if clock >= tournamentHorizonSec {
				break
			}
		}
		ops, err := runGridOps(cells)
		if err != nil {
			return nil, err
		}
		u.ops = append(u.ops, ops)
		for _, c := range cells {
			c.score.rescales = c.engine.Restarts()
			c.score.finalPar = c.engine.Parallelism().String()
			u.scores = append(u.scores, c.score)
			u.simSec += c.engine.Now()
			u.steps += c.score.steps
		}
	}
	return u, nil
}

// boQuality totals the quality metrics over the bo cells: the paper's
// contender, so a fidelity fix to a baseline cannot move them.
func boQuality(scores []cellScore) quality {
	var q quality
	for _, s := range scores {
		if s.policy == "bo" {
			q.windows += s.steps
			q.violations += s.violations
			q.rescales += s.rescales
			q.coreSec += s.coreSec
		}
	}
	return q
}

func runTournament(cfg config) (*report, error) {
	r := newReport()
	var heap heapPeak
	traced := newProbe(cfg.spans, cfg.planDelay)
	var plainProbe *probe
	if cfg.planDelay > 0 {
		// A planted Plan cost slows untraced grids too: it stands for a
		// slower planning layer, which the end-to-end metrics must show.
		plainProbe = newProbe(nil, cfg.planDelay)
	}
	var plainUnits, tracedUnits []*tournamentUnit
	usage, err := measureUnits(cfg, minTournamentUnits, &heap, func(isTraced bool) error {
		pr := plainProbe
		if isTraced {
			pr = traced
		}
		u, err := runTournamentUnit(cfg.seed, pr, &heap)
		if err != nil {
			return err
		}
		if isTraced {
			tracedUnits = append(tracedUnits, u)
		} else {
			plainUnits = append(plainUnits, u)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	first := plainUnits[0]
	r.attempted = len(first.scores)
	for _, s := range first.scores {
		if s.err != "" {
			r.failed++
		}
	}
	for i, u := range append(plainUnits[1:], tracedUnits...) {
		r.check(slices.Equal(first.scores, u.scores), "unit %d differs from the first unit of the run", i+2)
	}
	if err := checkAgainstRunTournament(r, cfg.seed, first.scores); err != nil {
		return nil, err
	}

	var s samples
	for _, u := range plainUnits {
		s.setup = append(s.setup, u.setup.Seconds())
		s.cpu = append(s.cpu, u.cpu.Seconds())
		s.rounds(u.roundCPU)
		for _, o := range u.ops {
			s.scrape = append(s.scrape, ms(o.scrape))
			s.checkpoint = append(s.checkpoint, ms(o.checkpoint))
			s.restore = append(s.restore, ms(o.restore))
			s.recovery = append(s.recovery, ms(o.recovery))
		}
	}
	r.reportEndToEnd(&s, &heap, boQuality(first.scores))
	if cfg.traced {
		tournamentLayers(r, traced, plainUnits, tracedUnits, usage)
	}
	return r, nil
}

// checkAgainstRunTournament runs every sub-seed's grid through the
// program's own tournament runner and requires every cell's seed, steps,
// violations, rescales and final configuration to match the benchmark's.
func checkAgainstRunTournament(r *report, seed uint64, scores []cellScore) error {
	want := map[cellScore]experiments.TournamentCell{}
	for _, gs := range gridSeeds(seed) {
		res, err := experiments.RunTournament(experiments.TournamentOptions{
			Seed: gs, Workload: tournamentWorkload,
			Policies: tournamentPolicies, Schedules: tournamentSchedules, Chaos: tournamentChaos,
			DurationSec: tournamentHorizonSec, Workers: 1,
		})
		if err != nil {
			return fmt.Errorf("reference tournament: %w", err)
		}
		for _, c := range res.Cells {
			want[cellScore{policy: c.Policy, schedule: c.Schedule, chaos: c.Chaos, seed: c.Seed}] = c
		}
	}
	r.check(len(want) == len(scores), "reference grids have %d cells, benchmark %d", len(want), len(scores))
	for _, s := range scores {
		w, ok := want[cellScore{policy: s.policy, schedule: s.schedule, chaos: s.chaos, seed: s.seed}]
		r.check(ok && w.Steps == s.steps && w.Violations == s.violations && w.Rescales == s.rescales &&
			w.FinalPar == s.finalPar && w.Err == s.err,
			"cell %s/%s/%s seed %d: benchmark steps=%d violations=%d rescales=%d, RunTournament steps=%d violations=%d rescales=%d",
			s.policy, s.schedule, s.chaos, s.seed, s.steps, s.violations, s.rescales, w.Steps, w.Violations, w.Rescales)
	}
	return nil
}

// tournamentLayers reports the per-layer metrics of a traced tournament
// run. Counts are per grid (every grid does the same work).
func tournamentLayers(r *report, probe *probe, plain, traced []*tournamentUnit, usage procUsage) {
	n := float64(len(traced))
	var simSec float64
	var steps int
	var stepMS, plainWall, tracedWall []float64
	var stepWall time.Duration
	for _, u := range traced {
		simSec += u.simSec
		steps += u.steps
		stepMS = append(stepMS, u.stepMS...)
		tracedWall = append(tracedWall, u.wall.Seconds())
		for _, m := range u.stepMS {
			stepWall += time.Duration(m * float64(time.Millisecond))
		}
	}
	for _, u := range plain {
		plainWall = append(plainWall, u.wall.Seconds())
	}
	planWall, planSim := probe.plans.totals()
	monitorNsPerSimS := float64(stepWall-planWall) / (simSec - planSim)

	r.perLayer("flink.sim_s", "s", simSec/n)
	r.perLayer("flink.monitor_ns_per_sim_s", "ns/s", monitorNsPerSimS)
	runtimeLayer(r, usage, simSec)
	r.perLayer("core.steps", "count", float64(steps)/n)
	r.perLayer("core.step_ms.p50", "ms", quantile(stepMS, 0.5))
	r.perLayer("core.step_ms.p99", "ms", quantile(stepMS, 0.99))
	probe.plans.report(r, n)

	// Simulator share: Step minus Plan, plus the engine time simulated
	// inside Plan priced at the monitor's wall cost per simulated second.
	self := probe.spans.selfTimes()
	simWall := self["core.step"].Seconds() + monitorNsPerSimS*planSim/1e9
	r.perLayer("share.simulator", "1", simWall/sumSeconds(tracedWall))
	r.perLayer("share.planning", "1", (planWall.Seconds()-monitorNsPerSimS*planSim/1e9)/sumSeconds(tracedWall))
	r.perLayer("bench.trace_overhead_frac", "1", median(tracedWall)/median(plainWall)-1)
	spanLayers(r, probe.spans, n)
}

func sumSeconds(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
