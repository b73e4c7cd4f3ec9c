package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// measureUnits runs unit at least minUnits times and keeps going until
// the measuring time has passed. Every unit does the same fixed-size
// work, so the number of units changes only how many timings the medians
// are taken over, never a reported total. A traced run alternates
// untraced and traced units, so the tracing overhead is measured under
// the same conditions; the process counters of the traced units are
// summed and returned.
func measureUnits(cfg config, minUnits int, heap *heapPeak, unit func(traced bool) error) (procUsage, error) {
	var usage procUsage
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		traced := cfg.traced && i%2 == 1
		before := readUsage()
		if err := unit(traced); err != nil {
			return usage, err
		}
		if traced {
			usage = usage.add(readUsage().sub(before))
		}
		heap.endUnit(traced)
	}
	return usage, nil
}

// samples collects, over a run's untraced units, the CPU times the
// end-to-end timings are medians of.
type samples struct {
	setup, cpu, roundP50, roundP90        []float64
	scrape, checkpoint, restore, recovery []float64
}

// rounds adds the percentiles of one unit's round CPU times.
func (s *samples) rounds(roundMS []float64) {
	s.roundP50 = append(s.roundP50, quantile(roundMS, 0.5))
	s.roundP90 = append(s.roundP90, quantile(roundMS, 0.9))
}

// quality is what the quality metrics total over the bo runs of a unit.
type quality struct {
	windows, violations, rescales int
	coreSec                       float64
}

// reportEndToEnd adds every end-to-end metric.
func (r *report) reportEndToEnd(s *samples, heap *heapPeak, q quality) {
	r.endToEnd("setup_s", "s", median(s.setup))
	r.endToEnd("cpu_s", "s", median(s.cpu))
	r.endToEnd("peak_heap_mb", "MB", heap.mb())
	r.endToEnd("ok_frac", "1", float64(r.attempted-r.failed)/float64(r.attempted))
	r.endToEnd("violation_frac", "1", float64(q.violations)/float64(max(q.windows, 1)))
	r.endToEnd("core_hours", "h", q.coreSec/3600)
	r.endToEnd("rescales", "count", float64(q.rescales))
	r.endToEnd("round_cpu_ms.p50", "ms", median(s.roundP50))
	r.endToEnd("round_cpu_ms.p90", "ms", median(s.roundP90))
	r.endToEnd("scrape_cpu_ms.p50", "ms", median(s.scrape))
	r.endToEnd("checkpoint_cpu_ms", "ms", median(s.checkpoint))
	r.endToEnd("restore_cpu_ms", "ms", median(s.restore))
	r.endToEnd("recovery_round_cpu_ms", "ms", median(s.recovery))
}

// cpuTime returns the CPU time the process has used, user plus system,
// over all its threads. The end-to-end timings are CPU time: on a shared
// virtual machine, wall time also counts the time the host gave the CPU
// to someone else, and that swings by a quarter from one minute to the
// next (README.md, "Why CPU time").
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rusageCPU(ru)
}

// timeCall runs f on a locked OS thread and returns the thread's CPU
// time. Calls that run on one goroutine are timed this way, so the
// garbage collector's background workers on the other CPU are not
// charged to them; work the call itself does for the collector is.
func timeCall(f func() error) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := threadCPU()
	err := f()
	return threadCPU() - before, err
}

// settledCall is timeCall after a full collection, as testing.B
// collects before it starts the clock: the assist work the call is
// charged then depends on its own allocations, not on where an earlier
// phase left the GC cycle. It times the one-off operator calls
// (checkpoint, restore), not calls made every round.
func settledCall(f func() error) (time.Duration, error) {
	runtime.GC()
	return timeCall(f)
}

// threadCPU reads the calling thread's CPU clock. getrusage's per-thread
// figure is only as fine as the scheduler tick; this clock is exact.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// Cannot fail: the clock id is valid and ts is writable.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func rusageCPU(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock times one interval in wall and CPU time.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func startClock() clock { return clock{time.Now(), cpuTime()} }

func (c clock) stop() (wall, cpu time.Duration) { return time.Since(c.wall), cpuTime() - c.cpu }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// heapPeak tracks the largest live heap seen at samples taken between
// cells or rounds: the bytes the latest GC marked live, which unlike
// HeapAlloc does not swing with how much garbage awaits collection. How
// much garbage a GC happens to catch still moves a single unit's peak,
// so the metric is the median over untraced units of each unit's peak.
type heapPeak struct {
	peak   uint64
	peaks  []float64
	sample [1]metrics.Sample
}

func (h *heapPeak) take() {
	h.sample[0].Name = "/gc/heap/live:bytes"
	metrics.Read(h.sample[:])
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

// endUnit closes a unit's peak; traced units' peaks are not kept.
func (h *heapPeak) endUnit(traced bool) {
	if !traced {
		h.peaks = append(h.peaks, float64(h.peak)/(1<<20))
	}
	h.peak = 0
}

func (h *heapPeak) mb() float64 { return median(h.peaks) }

// procUsage is a reading of the process-wide counters the runtime layer
// is measured with.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
}

func readUsage() procUsage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procUsage{
		cpu:        cpuTime(),
		allocBytes: m.TotalAlloc,
		gcCycles:   m.NumGC,
	}
}

func (u procUsage) add(v procUsage) procUsage {
	return procUsage{u.cpu + v.cpu, u.allocBytes + v.allocBytes, u.gcCycles + v.gcCycles}
}

func (u procUsage) sub(v procUsage) procUsage {
	return procUsage{u.cpu - v.cpu, u.allocBytes - v.allocBytes, u.gcCycles - v.gcCycles}
}

// runtimeLayer reports the Go runtime row: CPU and allocation per
// simulated engine-second, and GC cycles, over the measured units.
func runtimeLayer(r *report, u procUsage, simSec float64) {
	r.perLayer("runtime.cpu_ns_per_sim_s", "ns/s", float64(u.cpu)/simSec)
	r.perLayer("runtime.alloc_bytes_per_sim_s", "B/s", float64(u.allocBytes)/simSec)
	r.perLayer("runtime.gc_cycles", "count", float64(u.gcCycles))
}
