package metrics

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The store's series are gauge-style time series (every sample kept).
// Controllers also need cheap *instruments*: monotonically increasing
// counters (how many rescales, how many replans) and bucketed
// histograms (BO iteration counts, decision margins, step durations)
// whose cost does not grow with run length. Counters and histograms are
// registered on the Store so WriteExposition renders everything —
// series, counters, buckets — through one endpoint.

// Counter is a monotonically increasing count. Safe for concurrent use;
// Inc/Add are lock-free.
type Counter struct {
	bits atomic.Uint64 // float64 bits
	expo expoName
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta float64) {
	if delta <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket i counts observations <= Buckets[i], plus an
// implicit +Inf bucket).
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	counts  []uint64  // len(bounds)+1; last is the +Inf bucket
	sum     float64
	samples uint64
	expo    expoName
}

// newHistogram copies and sorts the bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
// CumulativeCounts[i] counts observations <= Bounds[i]; the final entry
// (the +Inf bucket) equals Count.
type HistogramSnapshot struct {
	Bounds           []float64
	CumulativeCounts []uint64
	Sum              float64
	Count            uint64
}

// Snapshot returns the cumulative view WriteExposition renders.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{
		Bounds:           append([]float64(nil), h.bounds...),
		CumulativeCounts: make([]uint64, len(h.counts)),
		Sum:              h.sum,
		Count:            h.samples,
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		snap.CumulativeCounts[i] = cum
	}
	return snap
}

// appendExposition renders the histogram's cumulative buckets, sum and
// count under the given exposition name and labels.
func (h *Histogram) appendExposition(b []byte, name, labels string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, c := range h.counts {
		cum += c
		b = append(b, name...)
		b = append(b, "_bucket{"...)
		if labels != "" {
			b = append(b, labels...)
			b = append(b, ',')
		}
		b = append(b, `le="`...)
		if i < len(h.bounds) {
			b = strconv.AppendFloat(b, h.bounds[i], 'g', -1, 64)
		} else {
			b = append(b, "+Inf"...)
		}
		b = append(b, `"} `...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = appendSample(b, name, "_sum", labels)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, h.sum, 'g', -1, 64)
	b = append(b, '\n')
	b = appendSample(b, name, "_count", labels)
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.samples, 10)
	return append(b, '\n')
}

// Counter returns (creating on first use) the counter with the given
// name and tags. Existing instruments resolve with a lock-free read.
func (s *Store) Counter(name string, tags map[string]string) *Counter {
	key := SeriesKey{Name: name, Tags: EncodeTags(tags)}
	if c, ok := s.counters.Load(key); ok {
		return c.(*Counter)
	}
	c, _ := s.counters.LoadOrStore(key, &Counter{})
	return c.(*Counter)
}

// Histogram returns (creating on first use) the histogram with the
// given name, tags, and bucket upper bounds. Bounds are fixed at
// creation; later calls with different bounds reuse the existing
// instrument unchanged. Existing instruments resolve with a lock-free
// read.
func (s *Store) Histogram(name string, tags map[string]string, bounds []float64) *Histogram {
	key := SeriesKey{Name: name, Tags: EncodeTags(tags)}
	if h, ok := s.histograms.Load(key); ok {
		return h.(*Histogram)
	}
	h, _ := s.histograms.LoadOrStore(key, newHistogram(bounds))
	return h.(*Histogram)
}

// instPair is one (key, instrument) entry collected for exposition.
type instPair[V any] struct {
	key SeriesKey
	val V
}

// sortedInstruments snapshots a registry sorted by (name, tags).
func sortedInstruments[V any](m *sync.Map) []instPair[V] {
	var out []instPair[V]
	m.Range(func(k, v any) bool {
		out = append(out, instPair[V]{key: k.(SeriesKey), val: v.(V)})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key.less(out[j].key) })
	return out
}
