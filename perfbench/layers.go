package main

import (
	"fmt"

	"autrascale/internal/policy"
)

// endToEndUnits lists every end-to-end metric with its unit. Each
// workload reports all of them; BENCHMARK.json lists the same names.
var endToEndUnits = map[string]string{
	"setup_s":               "s",
	"cpu_s":                 "s",
	"peak_heap_mb":          "MB",
	"ok_frac":               "1",
	"violation_frac":        "1",
	"core_hours":            "h",
	"rescales":              "count",
	"round_cpu_ms.p50":      "ms",
	"round_cpu_ms.p90":      "ms",
	"scrape_cpu_ms.p50":     "ms",
	"checkpoint_cpu_ms":     "ms",
	"restore_cpu_ms":        "ms",
	"recovery_round_cpu_ms": "ms",
}

// spanNames are the spans the benchmark records around calls into the
// program. self_s.<name> is their self time per unit of work.
var spanNames = []string{
	"tournament.round", "core.step", "policy.plan",
	"fleet.submit", "fleet.round", "metrics.scrape",
	"fleet.persist_state", "persist.encode", "persist.decode", "fleet.restore",
	"trace.journal_write", "audit.read", "audit.diff",
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a metric a workload cannot measure from outside
// reads 0 (the tournament has no store, the fleets' steps run inside
// Fleet.Round, restored fleets build their own policies).
func perLayerUnits() map[string]string {
	units := map[string]string{
		"flink.sim_s":                   "s",
		"flink.monitor_ns_per_sim_s":    "ns/s",
		"runtime.cpu_ns_per_sim_s":      "ns/s",
		"runtime.alloc_bytes_per_sim_s": "B/s",
		"runtime.gc_cycles":             "count",
		"metrics.points":                "count",
		"metrics.points_per_sim_s":      "1/s",
		"metrics.series":                "count",
		"metrics.exposition_bytes":      "B",
		"core.steps":                    "count",
		"core.step_ms.p50":              "ms",
		"core.step_ms.p99":              "ms",
		"policy.bo.trials":              "count",
		"fleet.rounds":                  "count",
		"fleet.jobs_stepped_per_round":  "count",
		"fleet.submit_ms.p50":           "ms",
		"fleet.warmstarts":              "count",
		"fleet.models_published":        "count",
		"fleet.quarantined":             "count",
		"trace.spans_dropped":           "count",
		"trace.flight_records":          "count",
		"trace.flight_dropped":          "count",
		"trace.journal_write_ms":        "ms",
		"trace.journal_bytes":           "B",
		"audit.read_ms":                 "ms",
		"audit.diff_ms":                 "ms",
		"fleet.persist_state_ms":        "ms",
		"persist.encode_ms":             "ms",
		"persist.snapshot_bytes":        "B",
		"persist.decode_ms":             "ms",
		"fleet.restore_ms":              "ms",
		"share.simulator":               "1",
		"share.planning":                "1",
		"bench.trace_overhead_frac":     "1",
	}
	for _, name := range policy.Names() {
		p := "policy." + name
		units[p+".plans"] = "count"
		units[p+".plan_ms.p50"] = "ms"
		units[p+".plan_ms.p90"] = "ms"
		units[p+".plan_sim_s"] = "s"
		units[p+".degraded"] = "count"
	}
	for _, name := range spanNames {
		units["self_s."+name] = "s"
	}
	return units
}

// complete checks that the report names only listed metrics with their
// listed units, that every end-to-end metric is present, and fills the
// per-layer metrics a workload does not measure with 0.
func (r *report) complete(traced bool) error {
	layer := perLayerUnits()
	for name, m := range r.e2e {
		if endToEndUnits[name] != m.Unit {
			return fmt.Errorf("end-to-end metric %s (%s) is not listed", name, m.Unit)
		}
	}
	for name := range endToEndUnits {
		if _, ok := r.e2e[name]; !ok {
			return fmt.Errorf("end-to-end metric %s not measured", name)
		}
	}
	if !traced {
		return nil
	}
	for name, m := range r.layer {
		if layer[name] != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not listed", name, m.Unit)
		}
	}
	for name, unit := range layer {
		if _, ok := r.layer[name]; !ok {
			r.perLayer(name, unit, 0)
		}
	}
	return nil
}

// spanLayers reports each span's self time per unit of work.
func spanLayers(r *report, spans *spanLog, units float64) {
	self := spans.selfTimes()
	for _, name := range spanNames {
		r.perLayer("self_s."+name, "s", self[name].Seconds()/units)
	}
}
