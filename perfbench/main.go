// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload — tournament, fleet-soak or crash-restore — for a fixed
// measuring time, checks the program's outputs, and prints every metric
// by name and unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload tournament --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured by timing calls
// into each module's public functions and reading public counters.
// Nothing inside the program is instrumented. README.md records why each
// workload was chosen and what the traced runs measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// config is what a workload run receives.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	// spans, when traced, receives the benchmark's own spans.
	spans *spanLog
	// planDelay is slept inside the Plan wrapper of traced runs. Only the
	// attribution self-test sets it.
	planDelay time.Duration
}

// workloadRuns maps a workload name to its run function.
var workloadRuns = map[string]func(config) (*report, error){
	"tournament":    runTournament,
	"fleet-soak":    runFleetSoak,
	"crash-restore": runCrashRestore,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "tournament | fleet-soak | crash-restore")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "measuring time in seconds")
	traced := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spansDir := fs.String("spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloadRuns[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1}
	if cfg.traced {
		cfg.spans = newSpanLog()
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rep.complete(cfg.traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced && *spansDir != "" {
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", *spansDir, *name, *seed)
		if err := cfg.spans.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return rep.print(stdout, stderr, cfg.traced)
}

func workloadNames() []string {
	out := make([]string, 0, len(workloadRuns))
	for n := range workloadRuns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a workload run's outcome: operation counts, failed
// correctness checks, and the metrics of both kinds.
type report struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) endToEnd(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *report) perLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes the metrics one per line, the failed checks to stderr,
// and the JSON result as the last line of stdout. It returns the exit
// code: non-zero when any correctness check failed.
func (r *report) print(stdout, stderr io.Writer, traced bool) int {
	metrics := r.e2e
	if traced {
		metrics = r.layer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}
