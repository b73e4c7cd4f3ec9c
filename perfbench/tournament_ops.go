package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"autrascale/internal/chaos"
	"autrascale/internal/core"
	"autrascale/internal/persist"
	"autrascale/internal/policy"
	"autrascale/internal/workloads"
)

// The tournament has no fleet and no metrics store, yet every workload
// reports the operator metrics. After each grid the benchmark runs the
// same operator cycle a daemon restart runs, on the grid's controllers:
// read every decision log as /debug/decisions serves it (the scrape),
// checkpoint each cell with the public persistence calls fleet.Restore
// uses per job, restore every cell on a fresh engine, and step each
// restored cell once (the recovery round). None of it is in wall_s.

// cellSnapshot is one tournament cell's restorable state.
type cellSnapshot struct {
	Policy     string                `json:"policy"`
	Chaos      string                `json:"chaos"`
	Seed       uint64                `json:"seed"`
	NowSec     float64               `json:"now_sec"`
	RNGState   uint64                `json:"rng_state"`
	Restarts   int                   `json:"restarts"`
	Par        []int                 `json:"par"`
	Schedule   persist.ScheduleState `json:"schedule"`
	Controller core.ControllerState  `json:"controller"`
}

// gridOps is one operator cycle's CPU times.
type gridOps struct {
	scrape, checkpoint, restore, recovery time.Duration
}

func runGridOps(cells []*tournamentCell) (gridOps, error) {
	var ops gridOps
	var buf bytes.Buffer
	var err error
	ops.scrape, err = timeCall(func() error {
		enc := json.NewEncoder(&buf)
		for _, c := range cells {
			if err := enc.Encode(c.ctl.Decisions()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return ops, err
	}

	buf.Reset()
	ops.checkpoint, err = timeCall(func() error {
		snaps := make([]cellSnapshot, len(cells))
		for i, c := range cells {
			sched, _ := persist.DescribeSchedule(c.rates, c.engine.Now())
			snaps[i] = cellSnapshot{
				Policy: c.score.policy, Chaos: c.score.chaos, Seed: c.score.seed,
				NowSec: c.engine.Now(), RNGState: c.engine.RNGState(), Restarts: c.engine.Restarts(),
				Par: c.engine.Parallelism(), Schedule: sched, Controller: c.ctl.PersistState(),
			}
		}
		return json.NewEncoder(&buf).Encode(snaps)
	})
	if err != nil {
		return ops, err
	}

	var restored []*core.Controller
	ops.restore, err = timeCall(func() error {
		var decoded []cellSnapshot
		if err := json.NewDecoder(&buf).Decode(&decoded); err != nil {
			return err
		}
		for _, s := range decoded {
			ctl, err := restoreCell(s)
			if err != nil {
				return fmt.Errorf("restore cell %s/%s: %w", s.Policy, s.Chaos, err)
			}
			restored = append(restored, ctl)
		}
		return nil
	})
	if err != nil {
		return ops, err
	}

	ops.recovery, err = timeCall(func() error {
		for _, ctl := range restored {
			if _, err := ctl.Step(); err != nil {
				return err
			}
		}
		return nil
	})
	return ops, err
}

// restoreCell rebuilds a cell's engine and controller from its snapshot
// the way fleet.Restore rebuilds a job: a fresh engine at the persisted
// configuration, seed and RNG position, the schedule shifted onto the
// original timeline, the controller's loop position restored.
func restoreCell(s cellSnapshot) (*core.Controller, error) {
	spec, ok := workloads.ByName(tournamentWorkload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", tournamentWorkload)
	}
	sched, err := persist.BuildSchedule(s.Schedule)
	if err != nil {
		return nil, err
	}
	profile, err := chaos.ByName(s.Chaos)
	if err != nil {
		return nil, err
	}
	var injector *chaos.Injector
	if profile.Enabled() {
		injector = chaos.New(profile, s.Seed)
	}
	engine, err := workloads.NewEngine(spec, workloads.EngineOptions{
		Schedule: sched, InitialParallelism: s.Par, Seed: s.Seed, Chaos: injector,
	})
	if err != nil {
		return nil, err
	}
	engine.RestoreRNGState(s.RNGState)
	engine.RestoreRestarts(s.Restarts)
	p, err := policy.Build(s.Policy, policy.Env{TargetLatencyMS: spec.TargetLatencyMS, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	ctl, err := core.NewController(engine, core.ControllerConfig{
		TargetLatencyMS: spec.TargetLatencyMS, Seed: s.Seed, Policy: p,
	})
	if err != nil {
		return nil, err
	}
	st := s.Controller
	st.SLO = st.SLO.Shifted(-s.NowSec)
	ctl.RestoreState(st)
	return ctl, nil
}
