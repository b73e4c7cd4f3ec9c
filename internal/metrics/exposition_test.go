package metrics

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteExposition(t *testing.T) {
	s := NewStore()
	tags := map[string]string{"job": "wc", "operator": "Count"}
	s.MustRecord("taskmanager.job.task.trueProcessingRate", tags, 1, 100)
	s.MustRecord("taskmanager.job.task.trueProcessingRate", tags, 2, 29700)
	s.MustRecord("kafka.consumer.recordsLag", map[string]string{"job": "wc"}, 2, 12345)

	var buf bytes.Buffer
	if err := s.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `taskmanager_job_task_trueProcessingRate{job="wc",operator="Count"} 29700 2000`
	if !strings.Contains(out, want) {
		t.Fatalf("missing %q in:\n%s", want, out)
	}
	if !strings.Contains(out, `kafka_consumer_recordsLag{job="wc"} 12345 2000`) {
		t.Fatalf("missing lag line in:\n%s", out)
	}
	// Only the latest sample per series.
	if strings.Contains(out, " 100 ") {
		t.Fatalf("stale sample exposed:\n%s", out)
	}
	// Deterministic ordering: lag (k...) before taskmanager (t...).
	if strings.Index(out, "kafka_consumer") > strings.Index(out, "taskmanager_") {
		t.Fatalf("series not sorted:\n%s", out)
	}
}

// A 10k-series store must render the exact same byte stream every time:
// a scraper diffing two exposures of identical state must see no churn
// from map iteration order.
func TestWriteExposition10kDeterministic(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		for i := 0; i < 10000; i++ {
			s.MustRecord("autrascale.fleet.lag",
				map[string]string{"job": fmt.Sprintf("job-%05d", i), "shard": fmt.Sprintf("%d", i%4)},
				float64(i), float64(i*3))
		}
		for i := 0; i < 64; i++ {
			s.Counter("autrascale.decisions", map[string]string{"job": fmt.Sprintf("job-%05d", i)}).Add(float64(i))
			h := s.Histogram("autrascale.bo.iterations",
				map[string]string{"job": fmt.Sprintf("job-%05d", i)}, []float64{1, 2, 5, 10, 20})
			for k := 0; k <= i%7; k++ {
				h.Observe(float64(k * 3))
			}
		}
		return s
	}
	var a, b bytes.Buffer
	if err := build().WriteExposition(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteExposition(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two identical 10k-series stores rendered different expositions")
	}

	// Sorted output: every series line's (name, labels) prefix must be
	// non-decreasing.
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) < 10000 {
		t.Fatalf("only %d lines for a 10k-series store", len(lines))
	}
	gauges := 0
	for i := 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "autrascale_fleet_lag") {
			gauges++
			if strings.HasPrefix(lines[i-1], "autrascale_fleet_lag") && lines[i-1] > lines[i] {
				t.Fatalf("series out of order:\n%s\n%s", lines[i-1], lines[i])
			}
		}
	}
	if gauges < 9999 {
		t.Fatalf("exposition dropped series: %d lag lines, want 10000", gauges+1)
	}
}

// Histogram buckets must come out in ascending bound order with
// monotonically non-decreasing cumulative counts, +Inf last.
func TestWriteExpositionHistogramBucketOrder(t *testing.T) {
	s := NewStore()
	h := s.Histogram("autrascale.bo.iterations", nil, []float64{1, 5, 10, 50, 100})
	for _, v := range []float64{0.5, 3, 7, 7, 60, 999} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := s.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	var bounds []float64
	var counts []uint64
	infSeen := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "autrascale_bo_iterations_bucket") {
			continue
		}
		if infSeen {
			t.Fatalf("bucket after +Inf: %s", line)
		}
		var le string
		var n uint64
		if _, err := fmt.Sscanf(line, `autrascale_bo_iterations_bucket{le=%q} %d`, &le, &n); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if le == "+Inf" {
			infSeen = true
			if n != 6 {
				t.Fatalf("+Inf bucket = %d, want 6 (all samples)", n)
			}
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, b)
		counts = append(counts, n)
	}
	if !infSeen {
		t.Fatal("no +Inf bucket")
	}
	if len(bounds) != 5 {
		t.Fatalf("got %d finite buckets, want 5", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bucket bounds not ascending: %v", bounds)
		}
		if counts[i] < counts[i-1] {
			t.Fatalf("cumulative counts decreased: %v", counts)
		}
	}
	if want := []uint64{1, 2, 4, 4, 5}; fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Fatalf("cumulative counts = %v, want %v", counts, want)
	}
}

func TestWriteExpositionEmptyStore(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty store should write nothing, got %q", buf.String())
	}
}

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"a.b.c":      "a_b_c",
		"9lives":     "_9lives",
		"ok_name:x2": "ok_name:x2",
		"sp ace":     "sp_ace",
	}
	for in, want := range cases {
		if got := string(appendSanitized(nil, in)); got != want {
			t.Fatalf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatLabels(t *testing.T) {
	if len(appendLabels(nil, "")) != 0 {
		t.Fatal("no tags should render empty")
	}
	got := string(appendLabels(nil, "a=1,b=two"))
	if got != `a="1",b="two"` {
		t.Fatalf("appendLabels = %q", got)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition_golden.txt")

// goldenStore holds the inputs a renderer is most likely to get wrong:
// names that need sanitizing, label values that need quoting, float
// values at the edges of %g, and instruments with and without tags.
func goldenStore() *Store {
	s := NewStore()
	s.MustRecord("taskmanager.job.task.trueProcessingRate",
		map[string]string{"job": "wc", "operator": "Count"}, 1, 29700)
	s.MustRecord("9lives.rate", nil, 2, 1)
	s.MustRecord("sp ace-dash/slash", map[string]string{"0key": "v", "dotted.key": "v"}, 3, 2)
	s.MustRecord("quoting", map[string]string{"q": `say "hi"`}, 4, 3)
	s.MustRecord("quoting", map[string]string{"q": `back\slash`}, 4, 4)
	s.MustRecord("quoting", map[string]string{"q": "new\nline"}, 4, 5)
	s.MustRecord("quoting", map[string]string{"q": "tab\tand µé"}, 4, 6)
	s.MustRecord("quoting", map[string]string{"q": "a=b"}, 4, 7)
	s.MustRecord("quoting", map[string]string{"q": ""}, 4, 8)
	values := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 1e20, 123456789,
		1e-5, 1e-4, 0.1, 1.0 / 3, -2.5e-300, 29700, 7,
	}
	for i, v := range values {
		s.MustRecord("edge.values", map[string]string{"i": fmt.Sprintf("%02d", i)}, float64(i)+0.5, v)
	}
	s.MustRecord("edge.times", nil, 1e12+0.123, 1)
	s.Counter("autrascale.decisions", map[string]string{"job": "wc"}).Add(3)
	s.Counter("autrascale.decisions", map[string]string{"job": `o"dd`}).Add(0.25)
	s.Counter("plain.counter", nil).Inc()
	s.Counter("huge.counter", nil).Add(1e22)
	tagged := s.Histogram("autrascale.bo.iterations", map[string]string{"job": "wc", "policy": "bo"},
		[]float64{1e-5, 0.5, 1, 2.5, 1e6, 1e21})
	for _, v := range []float64{1e-6, 0.25, 0.5, 2, 3, 1e7, 1e30} {
		tagged.Observe(v)
	}
	plain := s.Histogram("9plain.hist", nil, []float64{0.1, 1})
	plain.Observe(0.05)
	plain.Observe(math.Inf(1))
	s.Histogram("empty.hist", map[string]string{"job": "x\ny"}, []float64{1})
	return s
}

// The exposition is pinned byte for byte: a scraper diffing two builds
// must see no change. Regenerate with `go test ./internal/metrics -run
// Golden -update` only for a deliberate format change.
func TestWriteExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStore().WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n--- got\n%s\n--- want\n%s", path, buf.Bytes(), want)
	}
}
