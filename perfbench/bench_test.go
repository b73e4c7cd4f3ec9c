package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json must list exactly the workloads and metrics the
// benchmark reports, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadRuns))
	}
	for _, w := range bf.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("workload %s is not run by the benchmark", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEndUnits))
	}
	for _, m := range bf.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s (%s): benchmark reports unit %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	layer := perLayerUnits()
	if len(bf.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(layer))
	}
	for _, m := range bf.PerLayer {
		if layer[m.Name] != m.Unit {
			t.Errorf("per-layer %s (%s): benchmark reports unit %q", m.Name, m.Unit, layer[m.Name])
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	l := newSpanLog()
	l.spans = []span{
		{Name: "round", ID: 1, Start: 0, End: 100},
		// Two overlapping children on different workers, one running past
		// the parent's end: together they cover [10, 60) and [80, 100).
		{Name: "plan", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "plan", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "plan", ID: 4, Parent: 1, Start: 80, End: 120},
	}
	self := l.selfTimes()
	if self["round"] != 30 {
		t.Errorf("round self time = %v, want 30", self["round"])
	}
	if self["plan"] != 40+30+40 {
		t.Errorf("plan self time = %v, want 110", self["plan"])
	}
}

// A planted cost inside Plan must land where it belongs: on the policy
// layer's self time, not on the simulator's monitor cost, and the
// end-to-end comparison must flag cpu_s on the tournament.
func TestPlantedPlanDelayIsAttributedToPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tournament four times")
	}
	bound := 0.0
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == "cpu_s" {
			bound = m.Bound
		}
	}
	run := func(delay time.Duration) *report {
		t.Helper()
		cfg := config{seed: 1, seconds: 0.001, traced: true, spans: newSpanLog(), planDelay: delay}
		r, err := runTournament(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatalf("correctness checks failed: %v", r.problems)
		}
		if err := r.complete(true); err != nil {
			t.Fatal(err)
		}
		return r
	}
	const delay = 200 * time.Microsecond
	base, slow := run(0), run(delay)

	plans := 0.0
	for name, m := range slow.layer {
		if len(name) > 6 && name[len(name)-6:] == ".plans" {
			plans += m.Value
		}
	}
	planted := plans * delay.Seconds()
	gotPolicy := slow.layer["self_s.policy.plan"].Value - base.layer["self_s.policy.plan"].Value
	if gotPolicy < 0.8*planted {
		t.Errorf("policy self time grew by %.3fs per grid pass, want at least 80%% of the %.3fs planted", gotPolicy, planted)
	}
	baseMon, slowMon := base.layer["flink.monitor_ns_per_sim_s"].Value, slow.layer["flink.monitor_ns_per_sim_s"].Value
	if slowMon > 1.25*baseMon {
		t.Errorf("monitor cost rose from %.0f to %.0f ns per simulated second: the planted delay leaked into the simulator row", baseMon, slowMon)
	}
	if baseSim, slowSim := base.layer["share.simulator"].Value, slow.layer["share.simulator"].Value; slowSim >= baseSim {
		t.Errorf("simulator share did not fall (%.3f -> %.3f) although planning got slower", baseSim, slowSim)
	}
	if !regressed(base.e2e["cpu_s"].Value, slow.e2e["cpu_s"].Value, bound) {
		t.Errorf("cpu_s %.3fs -> %.3fs is not flagged at bound %.2f", base.e2e["cpu_s"].Value, slow.e2e["cpu_s"].Value, bound)
	}
	for _, name := range []string{"violation_frac", "core_hours", "rescales"} {
		if base.e2e[name] != slow.e2e[name] {
			t.Errorf("%s changed with a delay that changes no decision: %v -> %v", name, base.e2e[name], slow.e2e[name])
		}
	}
}

// regressed is the comparison BENCHMARK.json's bounds are made for: a
// lower-is-better metric regressed when the change's value exceeds the
// parent's by more than the bound's share of it.
func regressed(parent, change, bound float64) bool { return change > parent*(1+bound) }
