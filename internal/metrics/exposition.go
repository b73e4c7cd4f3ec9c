package metrics

import (
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// flushAt is the buffered size at which WriteExposition hands its buffer
// to the writer and reuses it, so a scrape of any size holds one buffer
// of about this size.
const flushAt = 64 << 10

// WriteExposition renders the latest sample of every series in the
// Prometheus text exposition format (the interface the paper's Monitor
// stage would expose to an external scraper). Metric names are sanitized
// to the Prometheus charset; tags become labels.
//
// Example output line:
//
//	taskmanager_job_task_trueProcessingRate{job="wc",operator="Count"} 29700 1234000
func (s *Store) WriteExposition(w io.Writer) error {
	list := s.listed(all)
	sort.Slice(list, func(i, j int) bool { return list[i].key.less(list[j].key) })
	e := expoWriter{w: w}
	for _, h := range list {
		last, _ := h.latest()
		name, labels := h.expo.render(h.key)
		e.buf = appendSample(e.buf, name, "", labels)
		e.buf = append(e.buf, ' ')
		e.buf = strconv.AppendFloat(e.buf, last.Value, 'g', -1, 64)
		e.buf = append(e.buf, ' ')
		e.buf = strconv.AppendInt(e.buf, int64(last.TimeSec*1000), 10)
		e.buf = append(e.buf, '\n')
		if err := e.flush(false); err != nil {
			return err
		}
	}
	return s.writeInstruments(&e)
}

// writeInstruments renders registered counters (as `name_total`) and
// histograms (Prometheus `name_bucket{le=...}` / `_sum` / `_count`
// triplets) after the series gauges.
func (s *Store) writeInstruments(e *expoWriter) error {
	for _, p := range sortedInstruments[*Counter](&s.counters) {
		name, labels := p.val.expo.render(p.key)
		e.buf = appendSample(e.buf, name, "_total", labels)
		e.buf = append(e.buf, ' ')
		e.buf = strconv.AppendFloat(e.buf, p.val.Value(), 'g', -1, 64)
		e.buf = append(e.buf, '\n')
		if err := e.flush(false); err != nil {
			return err
		}
	}
	for _, p := range sortedInstruments[*Histogram](&s.histograms) {
		name, labels := p.val.expo.render(p.key)
		e.buf = p.val.appendExposition(e.buf, name, labels)
		if err := e.flush(false); err != nil {
			return err
		}
	}
	return e.flush(true)
}

// expoWriter batches exposition lines into one reused buffer.
type expoWriter struct {
	w   io.Writer
	buf []byte
}

// flush writes the buffer out once it reaches flushAt, or when final.
func (e *expoWriter) flush(final bool) error {
	if len(e.buf) == 0 || (!final && len(e.buf) < flushAt) {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// appendSample appends `name+suffix{labels}`, or `name+suffix` for an
// untagged entry.
func appendSample(b []byte, name, suffix, labels string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	return b
}

// less orders keys by name, then by canonical tags.
func (k SeriesKey) less(o SeriesKey) bool {
	if k.Name != o.Name {
		return k.Name < o.Name
	}
	return k.Tags < o.Tags
}

// expoName is an entry's sanitized metric name and rendered label pairs
// (`k="v",...`, no braces). The entry renders them on its first scrape
// and reuses them on every later one.
type expoName struct {
	once         sync.Once
	name, labels string
}

// render returns the entry's exposition name and labels for key.
func (x *expoName) render(key SeriesKey) (name, labels string) {
	x.once.Do(func() {
		b := appendSanitized(nil, key.Name)
		n := len(b)
		b = appendLabels(b, key.Tags)
		// One allocation holds both strings.
		all := string(b)
		x.name, x.labels = all[:n], all[n:]
	})
	return x.name, x.labels
}

// appendSanitized maps a dotted metric path onto the Prometheus charset
// [a-zA-Z0-9_:].
func appendSanitized(b []byte, name string) []byte {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b = append(b, byte(r))
		case r >= '0' && r <= '9':
			if i == 0 {
				b = append(b, '_')
			}
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// appendLabels renders the canonical tag encoding as comma-separated
// Prometheus label pairs, without the enclosing braces. A part without
// "=" is skipped.
func appendLabels(b []byte, encoded string) []byte {
	first := true
	for _, part := range strings.Split(encoded, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = appendSanitized(b, k)
		b = append(b, '=')
		b = strconv.AppendQuote(b, v)
	}
	return b
}
