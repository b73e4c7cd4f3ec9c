// Package metrics is the in-memory substitute for the paper's InfluxDB
// deployment: a tagged time-series store with windowed queries, plus the
// Metric Aggregator of the paper's Analyze stage, which rolls per-instance
// series up to per-operator totals and averages.
//
// Series names follow the Flink metric path convention the paper cites,
// e.g. "taskmanager.job.task.trueProcessingRate".
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Point is one sample of a series.
type Point struct {
	TimeSec float64
	Value   float64
}

// SeriesKey identifies a series: a metric name plus sorted tag pairs.
type SeriesKey struct {
	Name string
	Tags string // canonical "k1=v1,k2=v2" encoding
}

// EncodeTags canonicalizes a tag map.
func EncodeTags(tags map[string]string) string {
	if len(tags) == 0 {
		return ""
	}
	keys := make([]string, 0, len(tags))
	for k := range tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + tags[k]
	}
	return strings.Join(parts, ",")
}

// Store is a concurrency-safe time-series database. Besides gauge-style
// series it registers counter/histogram instruments (see instruments.go)
// so one exposition pass covers both.
//
// Hot paths resolve a *Series (or *Counter/*Histogram) handle once and
// record through it: an append then locks only its own series, and the
// registry lock is taken only to register a series, drop one, or list
// them. Record, and the instrument lookups, re-encode the tag map on
// every call.
//
// The instrument registries are sync.Maps: instruments are created once
// and then looked up without a mutex for fleet workers to contend on.
type Store struct {
	mu     sync.RWMutex
	series map[SeriesKey]*Series

	counters   sync.Map // SeriesKey -> *Counter
	histograms sync.Map // SeriesKey -> *Histogram
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{series: map[SeriesKey]*Series{}}
}

// Chunk sizes of a series' point storage: the first chunk holds
// minChunk points and each next one twice its predecessor, up to
// maxChunk. Appends never move stored points, and a series wastes less
// than one chunk of capacity however long it grows.
const (
	minChunk = 8
	maxChunk = 128
)

// Series is one registered time series: the handle a hot path resolves
// once with Store.Series and then records through.
type Series struct {
	key  SeriesKey
	expo expoName

	mu sync.Mutex
	// chunks hold the points in time order; every chunk is non-empty and
	// only the last has spare capacity.
	chunks [][]Point
}

// Series returns the handle of the series with the given name and tags,
// registering it on first use. Every call with the same name and tags
// returns the same handle until the series is dropped. A registered
// series shows in the read APIs once it holds a point.
func (s *Store) Series(name string, tags map[string]string) *Series {
	key := SeriesKey{Name: name, Tags: EncodeTags(tags)}
	s.mu.RLock()
	h := s.series[key]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.series[key]; h == nil {
		h = &Series{key: key}
		s.series[key] = h
	}
	return h
}

// Drop unregisters the given series and frees their points. Handles to a
// dropped series stay usable but record into nothing the store can see;
// the next Series call for the same name and tags registers a fresh,
// empty series. Nil handles, and handles already replaced by a newer
// registration, are ignored.
func (s *Store) Drop(series ...*Series) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range series {
		if h != nil && s.series[h.key] == h {
			delete(s.series, h.key)
		}
	}
}

// Record appends a sample. Samples are expected in non-decreasing time
// order (the simulator guarantees this); an out-of-order sample is
// rejected with an error.
func (h *Series) Record(t, v float64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	last := len(h.chunks) - 1
	size := minChunk
	if last >= 0 {
		tail := h.chunks[last]
		if prev := tail[len(tail)-1].TimeSec; prev > t {
			return fmt.Errorf("metrics: out-of-order sample for %s@%s: %v after %v",
				h.key.Name, h.key.Tags, t, prev)
		}
		if len(tail) < cap(tail) {
			h.chunks[last] = append(tail, Point{TimeSec: t, Value: v})
			return nil
		}
		size = min(2*cap(tail), maxChunk)
	}
	chunk := make([]Point, 1, size)
	chunk[0] = Point{TimeSec: t, Value: v}
	h.chunks = append(h.chunks, chunk)
	return nil
}

// latest returns the most recent sample, or false for an empty series.
func (h *Series) latest() (Point, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.chunks) == 0 {
		return Point{}, false
	}
	tail := h.chunks[len(h.chunks)-1]
	return tail[len(tail)-1], true
}

// empty reports whether the series holds no point yet.
func (h *Series) empty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.chunks) == 0
}

// window copies the samples with TimeSec in [from, to]. A nil series
// reads as empty.
func (h *Series) window(from, to float64) []Point {
	if h == nil {
		return []Point{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, c := range h.chunks {
		n += len(clip(c, from, to))
	}
	out := make([]Point, 0, n)
	for _, c := range h.chunks {
		out = append(out, clip(c, from, to)...)
	}
	return out
}

// clip returns the points of a time-ordered chunk with TimeSec in
// [from, to].
func clip(c []Point, from, to float64) []Point {
	lo := sort.Search(len(c), func(i int) bool { return c[i].TimeSec >= from })
	hi := sort.Search(len(c), func(i int) bool { return c[i].TimeSec > to })
	return c[lo:max(lo, hi)]
}

// lookup returns the registered series for key, or nil. Reads never
// register a series.
func (s *Store) lookup(key SeriesKey) *Series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.series[key]
}

// Record appends a sample to the series with the given name and tags;
// see Series.Record. Callers that record the same series repeatedly
// should hold its handle from Store.Series instead.
func (s *Store) Record(name string, tags map[string]string, t, v float64) error {
	return s.Series(name, tags).Record(t, v)
}

// MustRecord is Record but panics on error (simulator-internal writes are
// ordered by construction).
func (s *Store) MustRecord(name string, tags map[string]string, t, v float64) {
	if err := s.Record(name, tags, t, v); err != nil {
		panic(err)
	}
}

// Latest returns the most recent sample of the series, or false.
func (s *Store) Latest(name string, tags map[string]string) (Point, bool) {
	h := s.lookup(SeriesKey{Name: name, Tags: EncodeTags(tags)})
	if h == nil {
		return Point{}, false
	}
	return h.latest()
}

// Window returns the samples with TimeSec in [from, to].
func (s *Store) Window(name string, tags map[string]string, from, to float64) []Point {
	return s.WindowByKey(SeriesKey{Name: name, Tags: EncodeTags(tags)}, from, to)
}

// WindowMean returns the mean value over [from, to] and the sample count.
func (s *Store) WindowMean(name string, tags map[string]string, from, to float64) (float64, int) {
	pts := s.Window(name, tags, from, to)
	if len(pts) == 0 {
		return 0, 0
	}
	var sum float64
	for _, p := range pts {
		sum += p.Value
	}
	return sum / float64(len(pts)), len(pts)
}

// listed returns the registered series that hold at least one point and
// satisfy keep, in no particular order.
func (s *Store) listed(keep func(SeriesKey) bool) []*Series {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Series, 0, len(s.series))
	for k, h := range s.series {
		if keep(k) && !h.empty() {
			out = append(out, h)
		}
	}
	return out
}

func all(SeriesKey) bool { return true }

// SeriesNames returns the distinct metric names currently stored.
func (s *Store) SeriesNames() []string {
	set := map[string]bool{}
	for _, h := range s.listed(all) {
		set[h.key.Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SeriesMatching returns the keys whose name equals name and whose tags
// contain all of the filter pairs.
func (s *Store) SeriesMatching(name string, filter map[string]string) []SeriesKey {
	var out []SeriesKey
	for _, h := range s.listed(func(k SeriesKey) bool { return k.Name == name }) {
		if matchesTags(h.key.Tags, filter) {
			out = append(out, h.key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tags < out[j].Tags })
	return out
}

func matchesTags(encoded string, filter map[string]string) bool {
	if len(filter) == 0 {
		return true
	}
	have := map[string]string{}
	if encoded != "" {
		for _, part := range strings.Split(encoded, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) == 2 {
				have[kv[0]] = kv[1]
			}
		}
	}
	for k, v := range filter {
		if have[k] != v {
			return false
		}
	}
	return true
}

// WindowByKey returns samples for an exact series key in [from, to].
func (s *Store) WindowByKey(key SeriesKey, from, to float64) []Point {
	return s.lookup(key).window(from, to)
}

// Len returns the number of stored series.
func (s *Store) Len() int {
	return len(s.listed(all))
}

// Canonical metric names (Flink-style paths as exposed in the paper §V-E).
const (
	MetricTrueProcessingRate = "taskmanager.job.task.trueProcessingRate"
	MetricObservedRate       = "taskmanager.job.task.observedProcessingRate"
	MetricInputRate          = "taskmanager.job.task.numRecordsInPerSecond"
	MetricOutputRate         = "taskmanager.job.task.numRecordsOutPerSecond"
	MetricLatencyMS          = "taskmanager.job.latency"
	MetricEventTimeLatencyMS = "taskmanager.job.eventTimeLatency"
	MetricThroughput         = "taskmanager.job.throughput"
	MetricKafkaLag           = "kafka.consumer.recordsLag"
	MetricBusyFraction       = "taskmanager.job.task.busyTimeMsPerSecond"
)
