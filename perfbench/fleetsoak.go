package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/fleet"
	"autrascale/internal/metrics"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/trace"
	"autrascale/internal/workloads"
)

// The fleet-soak workload is the `autrascale -jobs` / `metricsd` shape:
// 64 staggered wordcount jobs, half submitted at t=0 and half at
// mid-horizon, under light chaos, on two workers, with a metrics store
// and a tracer with a flight recorder attached. After every round the
// benchmark scrapes the store once, as a /metrics scrape would.

const (
	soakJobs       = 64
	soakHorizonSec = 7200
	fleetWorkers   = 2
	// eventCap is the controller's event-history bound: a job whose
	// Fleet.Events reaches it could be scored from a truncated window.
	eventCap = 512
	// minSoakUnits: two soaks check repeatability, three give a median.
	minSoakUnits = 3
	// operatorCycles is how many checkpoint → restore → recovery cycles
	// follow each soak, so the short calls have samples enough for a
	// steady median.
	operatorCycles = 3
)

// boBuilder gives a job the BO policy the fleet builds by default,
// wrapped in the Plan timer.
func boBuilder(pr *probe) fleet.PolicyBuilder {
	return func(env fleet.PolicyEnv) (core.Policy, error) {
		inner, err := policy.Build("bo", policy.Env{
			TargetLatencyMS: env.TargetLatencyMS,
			Seed:            env.Seed,
			MaxIterations:   env.MaxIterations,
			Library:         env.Library,
			Tracer:          env.Tracer,
		})
		if err != nil {
			return nil, err
		}
		return pr.wrap(inner), nil
	}
}

// jobScore is one fleet job's quality outcome, compared for exact
// equality across repeats and between traced and untraced runs.
type jobScore struct {
	name                 string
	state                fleet.State
	steps, decisions     int
	violations, rescales int
	coreSec              float64
	parallelism          int
	events               int
}

// scoreJobs reads every job's outcome through the fleet's public
// surface. restartsBefore, when non-nil, holds each job's engine
// restarts at the time its engine was rebuilt (a restore), so rescales
// count only what happened since. (A restored controller starts with no
// event history, on an engine whose clock starts at 0.)
func scoreJobs(fl *fleet.Fleet, restartsBefore map[string]int) ([]jobScore, float64, error) {
	jobs, _ := fl.JobsPage(0, 0)
	out := make([]jobScore, 0, len(jobs))
	simSec := 0.0
	for _, js := range jobs {
		events, err := fl.Events(js.Name)
		if err != nil {
			return nil, 0, err
		}
		s := jobScore{
			name: js.Name, state: js.State, steps: js.Steps, decisions: js.Decisions,
			rescales: js.Restarts - restartsBefore[js.Name], parallelism: js.Parallelism, events: len(events),
		}
		spec, ok := workloads.ByName(js.Workload)
		if !ok {
			return nil, 0, fmt.Errorf("job %s: unknown workload %q", js.Name, js.Workload)
		}
		prev := 0.0
		for _, ev := range events {
			if ev.ProcLatencyMS > spec.TargetLatencyMS {
				s.violations++
			}
			s.coreSec += ev.CPUUsedCores * (ev.TimeSec - prev)
			prev = ev.TimeSec
		}
		out = append(out, s)
		simSec += js.SimulatedSec
	}
	return out, simSec, nil
}

// fleetQuality totals the quality metrics over jobs: every fleet job runs
// the BO policy.
func fleetQuality(runs ...[]jobScore) quality {
	var q quality
	for _, scores := range runs {
		for _, s := range scores {
			q.windows += s.events
			q.violations += s.violations
			q.rescales += s.rescales
			q.coreSec += s.coreSec
		}
	}
	return q
}

// observed is a fleet with the sinks metricsd attaches to it.
type observed struct {
	fl     *fleet.Fleet
	store  *metrics.Store
	tracer *trace.Tracer
	flight *trace.FlightRecorder
}

func newSinks(flightCap int) (*metrics.Store, *trace.Tracer, *trace.FlightRecorder) {
	tracer := trace.New(0)
	flight := trace.NewFlightRecorder(flightCap)
	tracer.AttachFlight(flight)
	return metrics.NewStore(), tracer, flight
}

// fleetRunner advances an observed fleet round by round, timing each round
// and the scrape that follows it.
type fleetRunner struct {
	obs   observed
	probe *probe // nil when untraced
	heap  *heapPeak
	// roundMS holds wall times (per-layer); roundCPU and scrapeCPU hold
	// CPU times (end-to-end).
	roundMS, roundCPU, scrapeCPU []float64
	exposition                   bytes.Buffer
}

// round runs one Fleet.Round, samples the heap, and returns the round's
// CPU time.
func (d *fleetRunner) round() time.Duration {
	spans := d.probe.log()
	traceID := spans.newTrace()
	id := spans.begin("fleet.round", 0, traceID)
	d.probe.enter(id, traceID)
	c := startClock()
	d.obs.fl.Round()
	wall, cpu := c.stop()
	spans.end(id)
	d.roundMS = append(d.roundMS, ms(wall))
	d.roundCPU = append(d.roundCPU, ms(cpu))
	d.heap.take()
	return cpu
}

// recoveryRound is a round of a restored fleet's first policy interval
// that stepped a job.
type recoveryRound struct {
	cpu time.Duration
	// planned: a job in the round decided or ran BO iterations, as the
	// round's flight records show.
	planned bool
}

// recover runs a restored fleet's first policy interval, in which every
// restored job takes its first step, and returns the rounds in it that
// stepped a job. (A restored job falls due a float rounding error after
// a round boundary, so the first round after a restore steps nothing.)
// The rounds are not kept with the others.
func (d *fleetRunner) recover() []recoveryRound {
	steps := d.obs.store.Counter("autrascale.fleet.steps", nil)
	var working []recoveryRound
	round := func() {
		before, records := steps.Value(), d.obs.flight.Len()
		took := d.round()
		if steps.Value() > before {
			working = append(working, recoveryRound{took, planned(d.obs.flight, records)})
		}
	}
	round()
	for limit := d.obs.fl.Now() + policyIntervalSec; d.obs.fl.Now() < limit; {
		round()
	}
	d.roundMS, d.roundCPU = d.roundMS[:0], d.roundCPU[:0]
	return working
}

// planned reports whether any record the flight recorder took after its
// first n is a decision or a BO iteration. Restored fleets build their
// own policies, so the flight records are how the benchmark sees a plan.
// The recorder must not have wrapped (restoreFlightCap holds a replay).
func planned(flight *trace.FlightRecorder, n int) bool {
	added := flight.Len() - n
	if added <= 0 {
		return false
	}
	for _, rec := range flight.Snapshot(added) {
		if rec.Kind == trace.KindDecision || rec.Kind == trace.KindBOIteration {
			return true
		}
	}
	return false
}

// medianRound is the median CPU time of the rounds.
func medianRound(rounds []recoveryRound) time.Duration {
	cpu := make([]float64, len(rounds))
	for i, r := range rounds {
		cpu[i] = ms(r.cpu)
	}
	return time.Duration(median(cpu) * float64(time.Millisecond))
}

// quietMeanMS is the mean CPU time, in ms, of the rounds in which no job
// planned; false when there are none.
func quietMeanMS(rounds []recoveryRound) (float64, bool) {
	var sum time.Duration
	n := 0
	for _, r := range rounds {
		if !r.planned {
			sum += r.cpu
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return ms(sum) / float64(n), true
}

// scrape renders the store's /metrics exposition once.
func (d *fleetRunner) scrape() error {
	spans := d.probe.log()
	id := spans.begin("metrics.scrape", 0, spans.lastTrace())
	d.exposition.Reset()
	cpu, err := timeCall(func() error { return d.obs.store.WriteExposition(&d.exposition) })
	d.scrapeCPU = append(d.scrapeCPU, ms(cpu))
	spans.end(id)
	return err
}

// runUntil alternates rounds and scrapes until the fleet clock reaches
// untilSec.
func (d *fleetRunner) runUntil(untilSec float64) error {
	for d.obs.fl.Now() < untilSec {
		d.round()
		if err := d.scrape(); err != nil {
			return err
		}
	}
	return nil
}

// soakUnit is one measured soak. It keeps summaries only: a soak's
// store is large, and units must not pile up in the heap.
type soakUnit struct {
	// setup and cpu are CPU time; wall is the soak's wall time.
	setup, cpu, wall             time.Duration
	roundMS, roundCPU, scrapeCPU []float64
	submitMS                     []float64
	rejected                     int
	scores                       []jobScore
	simSec                       float64
	layer                        fleetLayer
	// The operator cycles' CPU times, at the end of the soak and outside
	// cpu and wall.
	checkpoint, restore, recovery []time.Duration
}

// fleetLayer is what a fleet's public counters said at the end of a
// unit.
type fleetLayer struct {
	rounds                            int
	steps, jobsPerRound               float64
	warmstarts, published, quarantine float64
	points, series, expositionBytes   int
	spansDropped, flightDropped       uint64
	flightRecords                     int
}

// readFleetLayer reads the fleet's, store's and tracer's public
// counters. Store.Len counts series; points are summed over them.
// roundsBefore is the round count a restored fleet started from.
func readFleetLayer(d *fleetRunner, roundsBefore int) fleetLayer {
	st := d.obs.store
	h := st.Histogram("autrascale.fleet.round.jobs_stepped", nil, nil).Snapshot()
	l := fleetLayer{
		rounds:          d.obs.fl.Snapshot().Rounds - roundsBefore,
		steps:           st.Counter("autrascale.fleet.steps", nil).Value(),
		jobsPerRound:    h.Sum / float64(max(h.Count, 1)),
		warmstarts:      st.Counter("autrascale.fleet.warmstarts", nil).Value(),
		published:       st.Counter("autrascale.fleet.models_published", nil).Value(),
		quarantine:      st.Counter("autrascale.fleet.jobs_quarantined", nil).Value(),
		series:          st.Len(),
		expositionBytes: d.exposition.Len(),
		spansDropped:    d.obs.tracer.Dropped(),
		flightDropped:   d.obs.flight.Dropped(),
		flightRecords:   d.obs.flight.Len(),
	}
	for _, name := range st.SeriesNames() {
		for _, key := range st.SeriesMatching(name, nil) {
			l.points += len(st.WindowByKey(key, math.Inf(-1), math.Inf(1)))
		}
	}
	return l
}

func runSoakUnit(seed uint64, pr *probe, heap *heapPeak) (*soakUnit, error) {
	u := &soakUnit{}
	spans := pr.log()
	store, tracer, flight := newSinks(0)
	var fl *fleet.Fleet
	specs := fleet.StaggeredJobs(workloads.WordCount(), soakJobs, 0)
	submit := func(batch []fleet.JobSpec) {
		for _, js := range batch {
			if pr != nil {
				js.Policy = boBuilder(pr)
			}
			id := spans.begin("fleet.submit", 0, spans.newTrace())
			t := time.Now()
			err := fl.Submit(js)
			u.submitMS = append(u.submitMS, ms(time.Since(t)))
			spans.end(id)
			if err != nil {
				u.rejected++
			}
		}
	}
	// Set-up is what a daemon does before it serves: build the fleet and
	// admit the first wave.
	var err error
	u.setup, err = timeCall(func() (err error) {
		fl, err = fleet.New(fleet.Config{
			TotalCores: soakJobs * 32, // StaggeredJobs default: 2 machines × 16 cores
			Workers:    fleetWorkers,
			Seed:       seed,
			Chaos:      chaos.Light(),
			Store:      store,
			Tracer:     tracer,
		})
		if err == nil {
			submit(specs[:soakJobs/2])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	drv := &fleetRunner{obs: observed{fl, store, tracer, flight}, probe: pr, heap: heap}

	run := startClock()
	if err := drv.runUntil(soakHorizonSec / 2); err != nil {
		return nil, err
	}
	submit(specs[soakJobs/2:])
	if err := drv.runUntil(soakHorizonSec); err != nil {
		return nil, err
	}
	u.wall, u.cpu = run.stop()

	u.roundMS, u.roundCPU, u.scrapeCPU = drv.roundMS, drv.roundCPU, drv.scrapeCPU
	if u.scores, u.simSec, err = scoreJobs(fl, nil); err != nil {
		return nil, err
	}
	if pr != nil {
		u.layer = readFleetLayer(drv, 0)
	}
	for i := 0; i < operatorCycles; i++ {
		checkpoint, restore, recovery, err := operatorCycle(drv)
		if err != nil {
			return nil, err
		}
		u.checkpoint = append(u.checkpoint, checkpoint)
		u.restore = append(u.restore, restore)
		u.recovery = append(u.recovery, recovery)
	}
	return u, nil
}

func runFleetSoak(cfg config) (*report, error) {
	r := newReport()
	var heap heapPeak
	traced := newProbe(cfg.spans, cfg.planDelay)
	var plainUnits, tracedUnits []*soakUnit
	usage, err := measureUnits(cfg, minSoakUnits, &heap, func(isTraced bool) error {
		if isTraced {
			u, err := runSoakUnit(cfg.seed, traced, &heap)
			tracedUnits = append(tracedUnits, u)
			return err
		}
		u, err := runSoakUnit(cfg.seed, nil, &heap)
		plainUnits = append(plainUnits, u)
		return err
	})
	if err != nil {
		return nil, err
	}

	first := plainUnits[0]
	r.attempted = soakJobs
	for _, s := range first.scores {
		if s.state != fleet.StateRunning {
			r.failed++
		}
		r.check(s.state == fleet.StateRunning, "job %s ended %s", s.name, s.state)
		r.check(s.decisions >= 1, "job %s made no decision", s.name)
		r.check(s.events < eventCap, "job %s reached the %d-event cap; its score would be truncated", s.name, eventCap)
	}
	r.failed += first.rejected
	r.check(first.rejected == 0, "%d jobs rejected at admission", first.rejected)
	r.check(len(first.scores) == soakJobs, "%d jobs in the fleet, want %d", len(first.scores), soakJobs)
	for i, u := range append(plainUnits[1:], tracedUnits...) {
		r.check(slices.Equal(first.scores, u.scores), "unit %d differs from the first unit of the run", i+2)
	}

	var s samples
	for _, u := range plainUnits {
		s.setup = append(s.setup, u.setup.Seconds())
		s.cpu = append(s.cpu, u.cpu.Seconds())
		s.rounds(u.roundCPU)
		s.scrape = append(s.scrape, quantile(u.scrapeCPU, 0.5))
		for i := range u.checkpoint {
			s.checkpoint = append(s.checkpoint, ms(u.checkpoint[i]))
			s.restore = append(s.restore, ms(u.restore[i]))
			s.recovery = append(s.recovery, ms(u.recovery[i]))
		}
	}
	r.reportEndToEnd(&s, &heap, fleetQuality(first.scores))
	if cfg.traced {
		soakLayers(r, traced, plainUnits, tracedUnits, usage)
	}
	return r, nil
}

// soakLayers reports the per-layer metrics of a traced soak. Counts are
// per soak.
func soakLayers(r *report, probe *probe, plain, traced []*soakUnit, usage procUsage) {
	n := float64(len(traced))
	var simSec float64
	var roundWall time.Duration
	var submitMS, plainWall, tracedWall []float64
	for _, u := range traced {
		simSec += u.simSec
		tracedWall = append(tracedWall, u.wall.Seconds())
		submitMS = append(submitMS, u.submitMS...)
		for _, m := range u.roundMS {
			roundWall += time.Duration(m * float64(time.Millisecond))
		}
	}
	for _, u := range plain {
		plainWall = append(plainWall, u.wall.Seconds())
	}
	l := traced[0].layer
	fleetLayers(r, probe, l, simSec, n, roundWall, usage)
	r.perLayer("fleet.submit_ms.p50", "ms", quantile(submitMS, 0.5))
	r.perLayer("bench.trace_overhead_frac", "1", median(tracedWall)/median(plainWall)-1)
}

// fleetLayers reports the rows every fleet workload shares: simulator,
// runtime, store, policy, fleet scheduling and telemetry. Plans run on
// fleetWorkers workers at once, so the monitor's cost per simulated
// second is taken over the workers' combined round time.
func fleetLayers(r *report, probe *probe, l fleetLayer, simSec, units float64, roundWall time.Duration, usage procUsage) {
	planWall, planSim := probe.plans.totals()
	r.perLayer("flink.sim_s", "s", simSec/units)
	r.perLayer("flink.monitor_ns_per_sim_s", "ns/s", float64(fleetWorkers*roundWall-planWall)/(simSec-planSim))
	runtimeLayer(r, usage, simSec)
	r.perLayer("metrics.points", "count", float64(l.points))
	r.perLayer("metrics.points_per_sim_s", "1/s", float64(l.points)/(simSec/units))
	r.perLayer("metrics.series", "count", float64(l.series))
	r.perLayer("metrics.exposition_bytes", "B", float64(l.expositionBytes))
	r.perLayer("core.steps", "count", l.steps)
	probe.plans.report(r, units)
	r.perLayer("fleet.rounds", "count", float64(l.rounds))
	r.perLayer("fleet.jobs_stepped_per_round", "count", l.jobsPerRound)
	r.perLayer("fleet.warmstarts", "count", l.warmstarts)
	r.perLayer("fleet.models_published", "count", l.published)
	r.perLayer("fleet.quarantined", "count", l.quarantine)
	r.perLayer("trace.spans_dropped", "count", float64(l.spansDropped))
	r.perLayer("trace.flight_records", "count", float64(l.flightRecords))
	r.perLayer("trace.flight_dropped", "count", float64(l.flightDropped))
	spanLayers(r, probe.spans, units)
}

// operatorCycle checkpoints the fleet, restores it with fresh sinks the
// way `autrascale -restore` does, and runs the restored fleet's first
// policy interval: what restarting a daemon costs. It returns the CPU
// time of each step.
func operatorCycle(d *fleetRunner) (checkpoint, restore, recovery time.Duration, err error) {
	spans := d.probe.log()
	traceID := spans.newTrace()
	var snap bytes.Buffer
	checkpoint, err = settledCall(func() error {
		id := spans.begin("fleet.persist_state", 0, traceID)
		st := d.obs.fl.PersistState()
		spans.end(id)
		id = spans.begin("persist.encode", 0, traceID)
		defer spans.end(id)
		return persist.Encode(&snap, st)
	})
	if err != nil {
		return 0, 0, 0, err
	}
	rst, times, err := decodeRestore(snap.Bytes(), d.probe, traceID)
	if err != nil {
		return 0, 0, 0, err
	}
	rd := &fleetRunner{obs: rst, probe: d.probe, heap: d.heap}
	return checkpoint, times.cpu, medianRound(rd.recover()), nil
}

// restoreTimes are a decode-and-restore's wall times, per step, and its
// CPU time in total.
type restoreTimes struct {
	decode, restore, cpu time.Duration
}

// decodeRestore decodes a snapshot and restores it with fresh sinks.
func decodeRestore(snap []byte, pr *probe, traceID int) (observed, restoreTimes, error) {
	var times restoreTimes
	spans := pr.log()
	var st *persist.FleetState
	id := spans.begin("persist.decode", 0, traceID)
	t := time.Now()
	decodeCPU, err := settledCall(func() (err error) {
		st, err = persist.Decode(bytes.NewReader(snap))
		return err
	})
	times.decode = time.Since(t)
	spans.end(id)
	if err != nil {
		return observed{}, times, err
	}
	store, tracer, flight := newSinks(restoreFlightCap)
	var fl *fleet.Fleet
	id = spans.begin("fleet.restore", 0, traceID)
	t = time.Now()
	restoreCPU, err := timeCall(func() (err error) {
		fl, err = fleet.Restore(st, fleet.RestoreOptions{Workers: fleetWorkers, Store: store, Tracer: tracer})
		return err
	})
	times.restore, times.cpu = time.Since(t), decodeCPU+restoreCPU
	spans.end(id)
	if err != nil {
		return observed{}, times, err
	}
	return observed{fl, store, tracer, flight}, times, nil
}
