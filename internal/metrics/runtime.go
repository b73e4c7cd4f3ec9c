package metrics

// Go runtime self-telemetry for metricsd: the daemon that watches a
// 10k-job fleet needs to be watchable itself. WriteRuntimeExposition
// renders goroutine count, heap occupancy, and a GC pause histogram
// under the autrascale.runtime.* namespace in the same text exposition
// format WriteExposition uses, so one scrape serves both the simulation
// and the process running it.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
)

// gcPauseBucketsNs is the fixed bucket layout of the GC pause histogram
// (upper bounds in nanoseconds: 10µs … 100ms).
var gcPauseBucketsNs = []float64{1e4, 5e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8}

// WriteRuntimeExposition renders the process's runtime metrics:
//
//	autrascale_runtime_goroutines            current goroutine count
//	autrascale_runtime_heap_alloc_bytes      live heap bytes
//	autrascale_runtime_heap_sys_bytes        heap bytes held from the OS
//	autrascale_runtime_gc_pause_ns_bucket    recent GC pauses (≤256) bucketed
//	autrascale_runtime_gc_pause_ns_sum       total pause ns since start
//	autrascale_runtime_gc_pause_ns_count     GC cycles since start
//
// The pause buckets cover the runtime's recent-pause ring (up to the
// last 256 cycles); sum and count cover the whole process lifetime, the
// same split Prometheus's own Go collector makes.
func WriteRuntimeExposition(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if _, err := fmt.Fprintf(w, "autrascale_runtime_goroutines %d\n", runtime.NumGoroutine()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "autrascale_runtime_heap_alloc_bytes %d\n", ms.HeapAlloc); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "autrascale_runtime_heap_sys_bytes %d\n", ms.HeapSys); err != nil {
		return err
	}

	// Bucket the recent pauses. PauseNs is a ring of the last 256 GC
	// pause durations; only NumGC of them are meaningful.
	recent := int(ms.NumGC)
	if recent > len(ms.PauseNs) {
		recent = len(ms.PauseNs)
	}
	pauses := make([]float64, 0, recent)
	for i := 0; i < recent; i++ {
		pauses = append(pauses, float64(ms.PauseNs[(int(ms.NumGC)-1-i+len(ms.PauseNs))%len(ms.PauseNs)]))
	}
	sort.Float64s(pauses)
	cumulative := 0
	for _, bound := range gcPauseBucketsNs {
		for cumulative < len(pauses) && pauses[cumulative] <= bound {
			cumulative++
		}
		if _, err := fmt.Fprintf(w, "autrascale_runtime_gc_pause_ns_bucket{le=%q} %d\n",
			strconv.FormatFloat(bound, 'g', -1, 64), cumulative); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "autrascale_runtime_gc_pause_ns_bucket{le=\"+Inf\"} %d\n", len(pauses)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "autrascale_runtime_gc_pause_ns_sum %d\n", ms.PauseTotalNs); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "autrascale_runtime_gc_pause_ns_count %d\n", ms.NumGC)
	return err
}
