package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/flink"
	"autrascale/internal/policy"
	"autrascale/internal/transfer"
)

// planStats accumulates what the Plan wrappers measured, per policy.
type planStats struct {
	mu       sync.Mutex
	byPolicy map[string]*policyPlans
}

type policyPlans struct {
	ms       []float64
	simSec   float64
	degraded int
	trials   int
}

func newPlanStats() *planStats { return &planStats{byPolicy: map[string]*policyPlans{}} }

func (s *planStats) record(name string, d time.Duration, simSec float64, res core.PlanResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.byPolicy[name]
	if p == nil {
		p = &policyPlans{}
		s.byPolicy[name] = p
	}
	p.ms = append(p.ms, ms(d))
	p.simSec += simSec
	if errors.Is(err, flink.ErrRescaleFailed) {
		p.degraded++
	}
	if err == nil {
		p.trials += res.Report.Iterations + res.Report.BootstrapRuns
	}
}

// totals returns the wall time and engine time spent inside Plan across
// every policy.
func (s *planStats) totals() (wall time.Duration, simSec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.byPolicy {
		for _, m := range p.ms {
			wall += time.Duration(m * float64(time.Millisecond))
		}
		simSec += p.simSec
	}
	return wall, simSec
}

// report adds the policy row of the per-layer metrics for every
// registered policy, zero for the ones the workload never ran. Counts
// and engine time are per unit of the workload's fixed-size work.
func (s *planStats) report(r *report, units float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, name := range policy.Names() {
		p := s.byPolicy[name]
		if p == nil {
			p = &policyPlans{}
		}
		prefix := "policy." + name
		r.perLayer(prefix+".plans", "count", float64(len(p.ms))/units)
		r.perLayer(prefix+".plan_ms.p50", "ms", quantile(p.ms, 0.5))
		r.perLayer(prefix+".plan_ms.p90", "ms", quantile(p.ms, 0.9))
		r.perLayer(prefix+".plan_sim_s", "s", p.simSec/units)
		r.perLayer(prefix+".degraded", "count", float64(p.degraded)/units)
	}
	if p := s.byPolicy["bo"]; p != nil {
		r.perLayer("policy.bo.trials", "count", float64(p.trials)/units)
	}
}

// probe is a traced run's instrumentation: the benchmark's spans, the
// span Plan spans attach to, and the Plan wrappers' measurements.
type probe struct {
	spans *spanLog
	plans *planStats
	// parent and traceID name the span the benchmark has open around
	// calls that plan: the step in the tournament, the round in a fleet.
	// Plan wrappers on fleet workers read them concurrently.
	parent  atomic.Uint64
	traceID atomic.Int64
	// delay is spent inside each Plan (attribution self-test only).
	delay time.Duration
}

func newProbe(spans *spanLog, delay time.Duration) *probe {
	return &probe{spans: spans, plans: newPlanStats(), delay: delay}
}

// log returns the probe's span log; nil (records nothing) on the nil
// probe of an untraced unit.
func (p *probe) log() *spanLog {
	if p == nil {
		return nil
	}
	return p.spans
}

// enter makes span the parent of the Plan spans that follow.
func (p *probe) enter(span uint64, traceID int) {
	if p != nil {
		p.parent.Store(span)
		p.traceID.Store(int64(traceID))
	}
}

// wrap returns inner with Plan timed from outside (inner itself on the
// nil probe).
func (p *probe) wrap(inner core.Policy) core.Policy {
	if p == nil {
		return inner
	}
	tp := &timedPolicy{inner: inner, probe: p}
	if lib, ok := inner.(libraryPolicy); ok {
		return &timedLibraryPolicy{timedPolicy: tp, lib: lib}
	}
	return tp
}

// timedPolicy times Plan from outside the policy and records a
// policy.plan span under the probe's open span. It changes no decision: Name
// and Plan forward verbatim.
type timedPolicy struct {
	inner core.Policy
	probe *probe
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Plan(e *flink.Engine, req core.PlanRequest) (core.PlanResult, error) {
	pr := p.probe
	id := pr.spans.begin("policy.plan", pr.parent.Load(), int(pr.traceID.Load()))
	sim0 := e.Now()
	t0 := time.Now()
	for pr.delay > 0 && time.Since(t0) < pr.delay {
		// Busy-wait: a planted cost that burns CPU like planning does.
	}
	res, err := p.inner.Plan(e, req)
	d := time.Since(t0)
	pr.spans.end(id)
	pr.plans.record(p.inner.Name(), d, e.Now()-sim0, res, err)
	return res, err
}

// libraryPolicy is what core.NewController looks for to adopt a
// policy's model library and throughput base (the BO policy has both).
type libraryPolicy interface {
	Library() *transfer.ModelLibrary
	Base() dataflow.ParallelismVector
}

// timedLibraryPolicy is timedPolicy for a policy with a library: the
// controller must adopt the inner policy's library, or fleet model
// publication and warm starts would see an empty one.
type timedLibraryPolicy struct {
	*timedPolicy
	lib libraryPolicy
}

func (p *timedLibraryPolicy) Library() *transfer.ModelLibrary  { return p.lib.Library() }
func (p *timedLibraryPolicy) Base() dataflow.ParallelismVector { return p.lib.Base() }
