package main

import (
	"bytes"
	"runtime"
	"slices"
	"time"

	"autrascale/internal/audit"
	"autrascale/internal/chaos"
	"autrascale/internal/fleet"
	"autrascale/internal/persist"
	"autrascale/internal/workloads"
)

// The crash-restore workload is the `make replay` shape, in process: a
// warm fleet of crashJobs wordcount jobs under heavy chaos, built the way
// the repository's 10k-job fleet benchmark builds its fleet (a few cold
// donors, the rest warm-started in batches). Set-up builds it from each
// of crashCheckpoints sub-seeds and checkpoints each build. Each cycle
// checkpoints the first sub-seed's fleet, restores one of the set-up
// checkpoints twice with a store, tracer and flight recorder attached
// (as `autrascale -restore` does), replays both restores for a short
// stretch, then writes each journal, reads it back and diffs the two.

const (
	crashJobs     = 1000
	crashDonors   = 4
	crashRoundSec = 0.6 // 1% of the policy interval: ~1% of jobs due per round
	// crashReplaySec is how far each restored fleet replays.
	crashReplaySec = 300
	// crashCheckpoints is how many fleets set-up builds, from sub-seeds
	// crashCheckpoints·seed … crashCheckpoints·seed+crashCheckpoints−1,
	// checkpointing each. Cycles restore the checkpoints in turn. One
	// replay holds only about 40 planning sessions, and the round tail
	// and recovery figures of a single fleet move by a fifth from one
	// seed to the next; three fleets give them three times the sessions
	// to rest on.
	crashCheckpoints = 3
	// crashSetups is how many times a run sets up; setup_s is their
	// median, and every set-up must take the same checkpoints, byte for
	// byte.
	crashSetups = 3
	// restoreFlightCap holds every record a replay journals, so the two
	// journals are complete and diffable.
	restoreFlightCap = 1 << 16
	// minCrashCycles restores every checkpoint twice: once to measure,
	// once more to check that a cycle repeats.
	minCrashCycles = 2 * crashCheckpoints
)

// buildCrashFleet builds and warms one sub-seed's fleet.
func buildCrashFleet(seed uint64) (*fleet.Fleet, error) {
	fl, err := fleet.New(fleet.Config{
		TotalCores: crashJobs * 32,
		RoundSec:   crashRoundSec,
		Seed:       seed,
		Chaos:      chaos.Heavy(),
		Workers:    fleetWorkers,
	})
	if err != nil {
		return nil, err
	}
	specs := fleet.StaggeredJobs(workloads.WordCount(), crashJobs, 0)
	// Cold donors run full planning sessions and publish their models, so
	// the rest warm-start with short sessions.
	for _, js := range specs[:crashDonors] {
		if err := fl.Submit(js); err != nil {
			return nil, err
		}
	}
	fl.RunUntil(1800)
	// Batches with a round between them spread the jobs' due times over
	// the policy interval, so about 1% of jobs fall due each round.
	for i := crashDonors; i < len(specs); {
		end := min(i+crashJobs/100, len(specs))
		for _, js := range specs[i:end] {
			if err := fl.Submit(js); err != nil {
				return nil, err
			}
		}
		i = end
		fl.Round()
	}
	// Run everyone past their warm-started planning session.
	fl.RunUntil(fl.Now() + 600)
	return fl, nil
}

// crashCheckpoint is a checkpoint set-up took, with what a cycle needs
// to know about it without decoding it again.
type crashCheckpoint struct {
	snapshot []byte
	nowSec   float64
	rounds   int
	// restarts holds each job's engine restarts at the checkpoint, so a
	// replay's rescales count only its own.
	restarts map[string]int
	// warm scores the fleet's life up to the checkpoint.
	warm []jobScore
}

// setUpCrash builds and checkpoints the warm fleet of every sub-seed of
// seed. It returns the first sub-seed's fleet, which cycles checkpoint.
func setUpCrash(seed uint64) (*fleet.Fleet, []crashCheckpoint, error) {
	var first *fleet.Fleet
	cps := make([]crashCheckpoint, crashCheckpoints)
	for k := range cps {
		fl, err := buildCrashFleet(crashCheckpoints*seed + uint64(k))
		if err != nil {
			return nil, nil, err
		}
		st := fl.PersistState()
		var snap bytes.Buffer
		if err := persist.Encode(&snap, st); err != nil {
			return nil, nil, err
		}
		restarts := make(map[string]int, len(st.Jobs))
		for _, js := range st.Jobs {
			restarts[js.Name] = js.Restarts
		}
		warm, _, err := scoreJobs(fl, nil)
		if err != nil {
			return nil, nil, err
		}
		cps[k] = crashCheckpoint{snap.Bytes(), st.NowSec, st.Rounds, restarts, warm}
		if k == 0 {
			first = fl
		}
	}
	return first, cps, nil
}

// crashCycle is one measured checkpoint → restore ×2 → replay → journal
// diff cycle.
type crashCycle struct {
	// checkpoint indexes the set-up checkpoint the cycle restored.
	checkpoint int
	// cpu, checkpointCPU, restoreCPU, recovery, roundCPU and scrapeCPU
	// are CPU times (end-to-end); the rest are wall times (per-layer).
	wall, cpu                    time.Duration
	checkpointCPU                []time.Duration
	persistState, encode         []time.Duration
	decode, restore, restoreCPU  []time.Duration
	recovery                     [][]recoveryRound
	roundMS, roundCPU, scrapeCPU []float64
	journalWrite, read           []time.Duration
	diff                         time.Duration
	// snapshotBytes is the size of the warm fleet's checkpoint;
	// snapshotsDiffer counts checkpoints whose bytes were not set-up's.
	snapshotBytes, snapshotsDiffer int
	journalBytes                   int
	identical                      bool
	flightDropped                  uint64
	scores                         [2][]jobScore
	simSec                         float64
	layer                          fleetLayer
}

// checkpointWarm checkpoints the first sub-seed's warm fleet, which is
// only read, and checks the bytes against want. A cycle does it before
// each restore and at its end, so the checkpoint times sample the whole
// cycle.
func (c *crashCycle) checkpointWarm(fl *fleet.Fleet, want []byte, spans *spanLog, traceID int) error {
	var snap bytes.Buffer
	var persistState, encode time.Duration
	cpu, err := settledCall(func() error {
		t := time.Now()
		id := spans.begin("fleet.persist_state", 0, traceID)
		st := fl.PersistState()
		persistState = time.Since(t)
		spans.end(id)
		id = spans.begin("persist.encode", 0, traceID)
		defer spans.end(id)
		err := persist.Encode(&snap, st)
		encode = time.Since(t) - persistState
		return err
	})
	if err != nil {
		return err
	}
	c.checkpointCPU = append(c.checkpointCPU, cpu)
	c.persistState = append(c.persistState, persistState)
	c.encode = append(c.encode, encode)
	c.snapshotBytes = snap.Len()
	if !bytes.Equal(snap.Bytes(), want) {
		c.snapshotsDiffer++
	}
	return nil
}

// runCrashCycle runs one cycle: it checkpoints fl, the first sub-seed's
// warm fleet, and restores checkpoint k of cps. Cycles of the same
// checkpoint do the same work.
func runCrashCycle(fl *fleet.Fleet, cps []crashCheckpoint, k int, pr *probe, heap *heapPeak) (*crashCycle, error) {
	spans := pr.log()
	c := &crashCycle{checkpoint: k}
	cp, want := cps[k], cps[0].snapshot
	traceID := spans.newTrace()
	cycle := startClock()
	var journals [2]*audit.Journal
	for i := range journals {
		if err := c.checkpointWarm(fl, want, spans, traceID); err != nil {
			return nil, err
		}
		obs, times, err := decodeRestore(cp.snapshot, pr, traceID)
		if err != nil {
			return nil, err
		}
		c.decode = append(c.decode, times.decode)
		c.restore = append(c.restore, times.restore)
		c.restoreCPU = append(c.restoreCPU, times.cpu)
		d := &fleetRunner{obs: obs, probe: pr, heap: heap}
		c.recovery = append(c.recovery, d.recover())
		for obs.fl.Now() < cp.nowSec+crashReplaySec {
			d.round()
		}
		// The replay's end is where its heap peaks: the store is at its
		// largest and the last journal is still held. A collection there
		// makes the sample the bytes live at that point, not whatever
		// the latest GC cycle happened to catch; it also settles the
		// collector before the scrape is timed.
		runtime.GC()
		heap.take()
		if err := d.scrape(); err != nil {
			return nil, err
		}
		c.roundMS = append(c.roundMS, d.roundMS...)
		c.roundCPU = append(c.roundCPU, d.roundCPU...)
		c.scrapeCPU = append(c.scrapeCPU, d.scrapeCPU...)

		var journal bytes.Buffer
		id := spans.begin("trace.journal_write", 0, traceID)
		t := time.Now()
		err = obs.flight.WriteJSONL(&journal, 0)
		c.journalWrite = append(c.journalWrite, time.Since(t))
		spans.end(id)
		if err != nil {
			return nil, err
		}
		c.journalBytes = journal.Len()
		id = spans.begin("audit.read", 0, traceID)
		t = time.Now()
		journals[i], err = audit.ReadJournal(&journal)
		c.read = append(c.read, time.Since(t))
		spans.end(id)
		if err != nil {
			return nil, err
		}
		c.flightDropped += obs.flight.Dropped()
		if c.scores[i], c.simSec, err = scoreJobs(obs.fl, cp.restarts); err != nil {
			return nil, err
		}
		if pr != nil && i == 0 {
			c.layer = readFleetLayer(d, cp.rounds)
		}
	}
	id := spans.begin("audit.diff", 0, traceID)
	t := time.Now()
	c.identical = audit.Diff(journals[0], journals[1]).Identical
	c.diff = time.Since(t)
	spans.end(id)
	if err := c.checkpointWarm(fl, want, spans, traceID); err != nil {
		return nil, err
	}
	c.wall, c.cpu = cycle.stop()
	return c, nil
}

func runCrashRestore(cfg config) (*report, error) {
	r := newReport()
	var heap heapPeak
	var fl *fleet.Fleet
	var cps []crashCheckpoint
	var setups []float64
	for i := 0; i < crashSetups; i++ {
		c := cpuTime()
		built, taken, err := setUpCrash(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c).Seconds())
		if i == 0 {
			fl, cps = built, taken
			continue
		}
		for k := range cps {
			r.check(bytes.Equal(taken[k].snapshot, cps[k].snapshot), "set-up %d takes checkpoint %d with different bytes than set-up 1", i+1, k+1)
			r.check(slices.Equal(taken[k].warm, cps[k].warm), "set-up %d scores warm fleet %d differently than set-up 1", i+1, k+1)
		}
	}
	// The quality metrics cover every warm fleet's life up to its
	// checkpoint and a replay of every checkpoint.
	var quality [][]jobScore
	for k, cp := range cps {
		quality = append(quality, cp.warm)
		for _, s := range cp.warm {
			r.check(s.state == fleet.StateRunning, "warm fleet %d job %s is %s at its checkpoint", k+1, s.name, s.state)
			r.check(s.events < eventCap, "warm fleet %d job %s reached the %d-event cap; its score would be truncated", k+1, s.name, eventCap)
		}
	}

	traced := newProbe(cfg.spans, cfg.planDelay)
	var plain, tracedCycles []*crashCycle
	usage, err := measureUnits(cfg, minCrashCycles, &heap, func(isTraced bool) error {
		if isTraced {
			c, err := runCrashCycle(fl, cps, len(tracedCycles)%crashCheckpoints, traced, &heap)
			tracedCycles = append(tracedCycles, c)
			return err
		}
		c, err := runCrashCycle(fl, cps, len(plain)%crashCheckpoints, nil, &heap)
		plain = append(plain, c)
		return err
	})
	if err != nil {
		return nil, err
	}

	// firsts holds the first untraced cycle of each checkpoint; a traced
	// run may not restore every checkpoint untraced.
	firsts := make([]*crashCycle, crashCheckpoints)
	for _, c := range append(plain, tracedCycles...) {
		if firsts[c.checkpoint] == nil {
			firsts[c.checkpoint] = c
		}
	}
	r.attempted = 2 * (len(plain) + len(tracedCycles))
	for i, c := range append(plain, tracedCycles...) {
		first := firsts[c.checkpoint]
		r.check(c.identical, "cycle %d: the two restores journaled different records", i+1)
		r.check(c.flightDropped == 0, "cycle %d: %d flight records dropped", i+1, c.flightDropped)
		r.check(slices.Equal(c.scores[0], c.scores[1]), "cycle %d: the two restores scored differently", i+1)
		r.check(slices.Equal(first.scores[0], c.scores[0]), "cycle %d differs from the run's first cycle of checkpoint %d", i+1, c.checkpoint+1)
		r.check(c.snapshotsDiffer == 0, "cycle %d: %d checkpoints of the warm fleet differ from set-up's", i+1, c.snapshotsDiffer)
		if !c.identical {
			r.failed += 2
		}
	}
	for _, first := range firsts {
		if first == nil {
			continue
		}
		quality = append(quality, first.scores[0])
		for _, s := range first.scores[0] {
			if s.state != fleet.StateRunning {
				r.failed++
			}
			r.check(s.state == fleet.StateRunning, "restored job %s ended the replay of checkpoint %d %s", s.name, first.checkpoint+1, s.state)
		}
	}
	for k, cp := range cps {
		decoded, err := persist.Decode(bytes.NewReader(cp.snapshot))
		if err != nil {
			return nil, err
		}
		var again bytes.Buffer
		if err := persist.Encode(&again, decoded); err != nil {
			return nil, err
		}
		r.check(bytes.Equal(again.Bytes(), cp.snapshot), "decoded checkpoint %d re-encodes to different bytes", k+1)
	}

	// Each checkpoint's replays do their own work, so a time is the mean
	// over checkpoints of each checkpoint's median: a run weighs every
	// checkpoint alike, however many cycles it fits in.
	var by [crashCheckpoints]samples
	for _, c := range plain {
		b := &by[c.checkpoint]
		b.cpu = append(b.cpu, c.cpu.Seconds())
		for _, d := range c.checkpointCPU {
			b.checkpoint = append(b.checkpoint, ms(d))
		}
		for i := range c.restoreCPU {
			b.restore = append(b.restore, ms(c.restoreCPU[i]))
			// Recovery is the mean round without planning: how many
			// restored jobs plan in the interval is the seed's, not the
			// program's, and a plan costs as much as twenty steps.
			if m, ok := quietMeanMS(c.recovery[i]); ok {
				b.recovery = append(b.recovery, m)
			}
		}
		b.rounds(c.roundCPU)
		b.scrape = append(b.scrape, c.scrapeCPU...)
	}
	s := meanOverCheckpoints(by[:])
	s.setup = setups
	r.reportEndToEnd(&s, &heap, fleetQuality(quality...))
	if cfg.traced {
		crashLayers(r, traced, plain, tracedCycles, usage)
	}
	return r, nil
}

// meanOverCheckpoints folds per-checkpoint samples into one sample per
// time: the mean of the checkpoints' medians, over the checkpoints that
// have one.
func meanOverCheckpoints(by []samples) samples {
	fold := func(field func(*samples) []float64) []float64 {
		var sum float64
		n := 0
		for i := range by {
			if xs := field(&by[i]); len(xs) > 0 {
				sum += median(xs)
				n++
			}
		}
		if n == 0 {
			return nil
		}
		return []float64{sum / float64(n)}
	}
	return samples{
		cpu:        fold(func(s *samples) []float64 { return s.cpu }),
		roundP50:   fold(func(s *samples) []float64 { return s.roundP50 }),
		roundP90:   fold(func(s *samples) []float64 { return s.roundP90 }),
		scrape:     fold(func(s *samples) []float64 { return s.scrape }),
		checkpoint: fold(func(s *samples) []float64 { return s.checkpoint }),
		restore:    fold(func(s *samples) []float64 { return s.restore }),
		recovery:   fold(func(s *samples) []float64 { return s.recovery }),
	}
}

// crashLayers reports the per-layer metrics of a traced crash-restore
// run. The store, fleet and trace counters describe the first restore of
// a cycle; engine time and self times are per cycle.
func crashLayers(r *report, probe *probe, plain, traced []*crashCycle, usage procUsage) {
	cycles := float64(len(traced))
	var simSec float64
	var roundWall time.Duration
	var plainWall, tracedWall, persistMS, encodeMS, diffMS, writeMS, readMS, decodeMS, restoreMS []float64
	for _, c := range traced {
		simSec += 2 * c.simSec
		tracedWall = append(tracedWall, c.wall.Seconds())
		for _, m := range c.roundMS {
			roundWall += time.Duration(m * float64(time.Millisecond))
		}
		for i := range c.persistState {
			persistMS = append(persistMS, ms(c.persistState[i]))
			encodeMS = append(encodeMS, ms(c.encode[i]))
		}
		diffMS = append(diffMS, ms(c.diff))
		for i := range c.journalWrite {
			writeMS = append(writeMS, ms(c.journalWrite[i]))
			readMS = append(readMS, ms(c.read[i]))
			decodeMS = append(decodeMS, ms(c.decode[i]))
			restoreMS = append(restoreMS, ms(c.restore[i]))
		}
	}
	for _, c := range plain {
		plainWall = append(plainWall, c.wall.Seconds())
	}
	fleetLayers(r, probe, traced[0].layer, simSec, cycles, roundWall, usage)
	r.perLayer("trace.journal_write_ms", "ms", median(writeMS))
	r.perLayer("trace.journal_bytes", "B", float64(traced[0].journalBytes))
	r.perLayer("audit.read_ms", "ms", median(readMS))
	r.perLayer("audit.diff_ms", "ms", median(diffMS))
	r.perLayer("fleet.persist_state_ms", "ms", median(persistMS))
	r.perLayer("persist.encode_ms", "ms", median(encodeMS))
	r.perLayer("persist.snapshot_bytes", "B", float64(traced[0].snapshotBytes))
	r.perLayer("persist.decode_ms", "ms", median(decodeMS))
	r.perLayer("fleet.restore_ms", "ms", median(restoreMS))
	r.perLayer("bench.trace_overhead_frac", "1", median(tracedWall)/median(plainWall)-1)
}
