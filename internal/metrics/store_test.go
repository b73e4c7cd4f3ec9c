package metrics

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"autrascale/internal/stat"
)

func TestEncodeTags(t *testing.T) {
	if EncodeTags(nil) != "" {
		t.Fatal("nil tags should encode empty")
	}
	got := EncodeTags(map[string]string{"b": "2", "a": "1"})
	if got != "a=1,b=2" {
		t.Fatalf("EncodeTags = %q", got)
	}
}

func TestRecordAndLatest(t *testing.T) {
	s := NewStore()
	tags := map[string]string{"job": "wc"}
	if err := s.Record("m", tags, 1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Record("m", tags, 2, 20); err != nil {
		t.Fatal(err)
	}
	p, ok := s.Latest("m", tags)
	if !ok || p.Value != 20 || p.TimeSec != 2 {
		t.Fatalf("Latest = %v, %v", p, ok)
	}
	if _, ok := s.Latest("missing", nil); ok {
		t.Fatal("missing series should not be found")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	s := NewStore()
	_ = s.Record("m", nil, 5, 1)
	if err := s.Record("m", nil, 4, 1); err == nil {
		t.Fatal("expected out-of-order error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRecord should panic on error")
		}
	}()
	s.MustRecord("m", nil, 3, 1)
}

func TestWindowQueries(t *testing.T) {
	s := NewStore()
	for i := 0; i < 10; i++ {
		s.MustRecord("m", nil, float64(i), float64(i)*10)
	}
	w := s.Window("m", nil, 2, 5)
	if len(w) != 4 || w[0].TimeSec != 2 || w[3].TimeSec != 5 {
		t.Fatalf("Window = %v", w)
	}
	mean, n := s.WindowMean("m", nil, 2, 5)
	if n != 4 || math.Abs(mean-35) > 1e-9 {
		t.Fatalf("WindowMean = %v, %d", mean, n)
	}
	if mean, n := s.WindowMean("m", nil, 100, 200); n != 0 || mean != 0 {
		t.Fatal("empty window should be (0, 0)")
	}
}

func TestSeriesDiscovery(t *testing.T) {
	s := NewStore()
	s.MustRecord("rate", map[string]string{"job": "wc", "operator": "map", "instance": "0"}, 0, 1)
	s.MustRecord("rate", map[string]string{"job": "wc", "operator": "map", "instance": "1"}, 0, 2)
	s.MustRecord("rate", map[string]string{"job": "wc", "operator": "sink", "instance": "0"}, 0, 3)
	s.MustRecord("lat", map[string]string{"job": "wc"}, 0, 4)

	names := s.SeriesNames()
	if len(names) != 2 || names[0] != "lat" || names[1] != "rate" {
		t.Fatalf("SeriesNames = %v", names)
	}
	keys := s.SeriesMatching("rate", map[string]string{"operator": "map"})
	if len(keys) != 2 {
		t.Fatalf("SeriesMatching = %v", keys)
	}
	all := s.SeriesMatching("rate", nil)
	if len(all) != 3 {
		t.Fatalf("SeriesMatching(nil) = %v", all)
	}
	none := s.SeriesMatching("rate", map[string]string{"operator": "nope"})
	if len(none) != 0 {
		t.Fatalf("expected no matches, got %v", none)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	pts := s.WindowByKey(keys[0], 0, 10)
	if len(pts) != 1 {
		t.Fatalf("WindowByKey = %v", pts)
	}
}

func TestConcurrentRecord(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tags := map[string]string{"instance": fmt.Sprint(w)}
			for i := 0; i < 500; i++ {
				s.MustRecord("m", tags, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for w := 0; w < 8; w++ {
		pts := s.Window("m", map[string]string{"instance": fmt.Sprint(w)}, 0, 1e9)
		if len(pts) != 500 {
			t.Fatalf("instance %d has %d points", w, len(pts))
		}
	}
}

// Handles record while other series register and a scraper renders the
// store: two goroutines append through handles, one registers new
// series, one loops WriteExposition. Run under -race (make race includes
// this package) it is the locking proof for the registry and the
// per-series appends.
func TestConcurrentHandlesRegisterScrape(t *testing.T) {
	s := NewStore()
	const samples = 2000
	var writers, others sync.WaitGroup
	for w := 0; w < 2; w++ {
		h := s.Series("m", map[string]string{"writer": fmt.Sprint(w)})
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < samples; i++ {
				if err := h.Record(float64(i), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	others.Add(2)
	go func() {
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			s.MustRecord("registered", map[string]string{"i": fmt.Sprint(i)}, 0, float64(i))
		}
	}()
	go func() {
		defer others.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.WriteExposition(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	others.Wait()
	for w := 0; w < 2; w++ {
		pts := s.Window("m", map[string]string{"writer": fmt.Sprint(w)}, 0, samples)
		if len(pts) != samples {
			t.Fatalf("writer %d kept %d of %d samples", w, len(pts), samples)
		}
		for i, p := range pts {
			if p.TimeSec != float64(i) || p.Value != float64(i) {
				t.Fatalf("writer %d sample %d = %+v", w, i, p)
			}
		}
	}
}

// Chunked storage must keep every sample in order across chunk
// boundaries, answer windows that straddle them, and keep rejecting
// out-of-order samples with the same error.
func TestSeriesChunkBoundaries(t *testing.T) {
	s := NewStore()
	h := s.Series("m", map[string]string{"job": "wc"})
	if h != s.Series("m", map[string]string{"job": "wc"}) {
		t.Fatal("same name and tags resolved to two handles")
	}
	if s.Len() != 0 {
		t.Fatal("a series with no points is listed")
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if err := h.Record(float64(i), float64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	err := h.Record(3, 0)
	if err == nil || err.Error() != "metrics: out-of-order sample for m@job=wc: 3 after 999" {
		t.Fatalf("out-of-order error = %v", err)
	}
	for _, w := range [][2]int{{0, n - 1}, {7, 8}, {100, 400}, {119, 121}, {500, 500}, {990, 2000}, {-5, -1}} {
		pts := s.Window("m", map[string]string{"job": "wc"}, float64(w[0]), float64(w[1]))
		lo, hi := max(w[0], 0), min(w[1], n-1)
		if len(pts) != max(hi-lo+1, 0) {
			t.Fatalf("window %v: %d points, want %d", w, len(pts), max(hi-lo+1, 0))
		}
		for i, p := range pts {
			if p.TimeSec != float64(lo+i) || p.Value != -float64(lo+i) {
				t.Fatalf("window %v point %d = %+v", w, i, p)
			}
		}
	}
	if p, ok := s.Latest("m", map[string]string{"job": "wc"}); !ok || p.TimeSec != n-1 {
		t.Fatalf("Latest = %+v, %v", p, ok)
	}
}

// Dropping a series removes it from every read API, and the next lookup
// registers a fresh one; a stale handle cannot drop its successor.
func TestDropSeries(t *testing.T) {
	s := NewStore()
	old := s.Series("m", nil)
	if err := old.Record(5, 1); err != nil {
		t.Fatal(err)
	}
	s.Drop(old, nil)
	if s.Len() != 0 || len(s.SeriesNames()) != 0 {
		t.Fatal("dropped series still listed")
	}
	if _, ok := s.Latest("m", nil); ok {
		t.Fatal("dropped series still readable")
	}
	fresh := s.Series("m", nil)
	if fresh == old {
		t.Fatal("lookup after Drop returned the dropped handle")
	}
	if err := fresh.Record(1, 2); err != nil {
		t.Fatalf("fresh series inherited the dropped one's clock: %v", err)
	}
	s.Drop(old)
	if p, ok := s.Latest("m", nil); !ok || p.Value != 2 {
		t.Fatalf("stale handle dropped its successor: %+v, %v", p, ok)
	}
}

// Property: WindowMean over the full range equals the mean of all writes.
func TestWindowMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stat.NewRNG(seed)
		s := NewStore()
		n := 1 + r.Intn(50)
		var sum float64
		for i := 0; i < n; i++ {
			v := r.Float64() * 100
			sum += v
			s.MustRecord("m", nil, float64(i), v)
		}
		mean, cnt := s.WindowMean("m", nil, 0, float64(n))
		return cnt == n && math.Abs(mean-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregator(t *testing.T) {
	s := NewStore()
	agg := NewAggregator(s)
	// Two instances of "map" with rates 100 and 200; one "sink" at 50.
	for tick := 0; tick < 5; tick++ {
		ts := float64(tick)
		s.MustRecord(MetricTrueProcessingRate, map[string]string{"job": "wc", "operator": "map", "instance": "0"}, ts, 100)
		s.MustRecord(MetricTrueProcessingRate, map[string]string{"job": "wc", "operator": "map", "instance": "1"}, ts, 200)
		s.MustRecord(MetricTrueProcessingRate, map[string]string{"job": "wc", "operator": "sink", "instance": "0"}, ts, 50)
		s.MustRecord(MetricLatencyMS, map[string]string{"job": "wc"}, ts, 80+ts)
	}
	if total := agg.OperatorTotal(MetricTrueProcessingRate, "wc", "map", 0, 4); math.Abs(total-300) > 1e-9 {
		t.Fatalf("OperatorTotal = %v, want 300", total)
	}
	mean, n := agg.OperatorMean(MetricTrueProcessingRate, "wc", "map", 0, 4)
	if n != 2 || math.Abs(mean-150) > 1e-9 {
		t.Fatalf("OperatorMean = %v, %d", mean, n)
	}
	if mean, n := agg.OperatorMean(MetricTrueProcessingRate, "wc", "missing", 0, 4); n != 0 || mean != 0 {
		t.Fatal("missing operator should be (0, 0)")
	}
	jm, n := agg.JobMean(MetricLatencyMS, "wc", 0, 4)
	if n != 5 || math.Abs(jm-82) > 1e-9 {
		t.Fatalf("JobMean = %v, %d", jm, n)
	}
	p, ok := agg.JobLatest(MetricLatencyMS, "wc")
	if !ok || p.Value != 84 {
		t.Fatalf("JobLatest = %v, %v", p, ok)
	}
	// Window past the data is empty → totals are zero.
	if total := agg.OperatorTotal(MetricTrueProcessingRate, "wc", "map", 50, 60); total != 0 {
		t.Fatalf("stale window total = %v", total)
	}
}
