package workloads

import (
	"math"
	"testing"

	"autrascale/internal/core"
	"autrascale/internal/dataflow"
	"autrascale/internal/kafka"
	"autrascale/internal/metrics"
)

func TestAllSpecsBuildAndValidate(t *testing.T) {
	specs := append(All(), WordCountCaseStudy())
	names := map[string]bool{}
	for _, spec := range specs {
		if spec.Name == "" || spec.DefaultRateRPS <= 0 || spec.TargetLatencyMS <= 0 || spec.Partitions <= 0 {
			t.Fatalf("incomplete spec %+v", spec)
		}
		if names[spec.Name] {
			t.Fatalf("duplicate workload name %q", spec.Name)
		}
		names[spec.Name] = true
		g := spec.BuildGraph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// Fresh graphs per call (no shared mutable state).
		if spec.BuildGraph() == g {
			t.Fatalf("%s: BuildGraph must return a fresh graph", spec.Name)
		}
	}
	if len(All()) != 4 {
		t.Fatalf("All() = %d workloads, want 4", len(All()))
	}
}

func TestNewEngineDefaults(t *testing.T) {
	e, err := NewEngine(WordCount(), EngineOptions{NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cluster().TotalCores() != 60 {
		t.Fatalf("default cluster cores = %d, want the 60-core paper testbed", e.Cluster().TotalCores())
	}
	if !e.Parallelism().Equal(dataflow.Uniform(4, 1)) {
		t.Fatalf("default initial parallelism = %v", e.Parallelism())
	}
	// Schedule override is honored.
	e2, err := NewEngine(WordCount(), EngineOptions{Schedule: kafka.ConstantRate(123), NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Topic().InputRateAt(0); got != 123 {
		t.Fatalf("schedule override ignored: %v", got)
	}
	// Metrics store is wired through.
	store := metrics.NewStore()
	e3, err := NewEngine(WordCount(), EngineOptions{Store: store, NoNoise: true})
	if err != nil {
		t.Fatal(err)
	}
	e3.Run(5)
	if store.Len() == 0 {
		t.Fatal("metrics not recorded")
	}
}

// The headline calibration points from the paper (§V-B, Fig. 5a):
// throughput optimization lands on the published parallelism vectors in
// at most 4 iterations.
func TestThroughputOptimizationMatchesPaperOperatingPoints(t *testing.T) {
	cases := []struct {
		spec       Spec
		wantBase   dataflow.ParallelismVector
		wantReach  bool
		wantRepeat bool
	}{
		{WordCount(), dataflow.ParallelismVector{3, 4, 12, 10}, true, false},
		{Yahoo(), dataflow.ParallelismVector{4, 2, 1, 1, 34}, false, true},
		{NexmarkQ5(), dataflow.ParallelismVector{1, 18, 2}, true, false},
		{NexmarkQ11(), dataflow.ParallelismVector{1, 12, 2}, true, false},
	}
	for _, c := range cases {
		e, err := NewEngine(c.spec, EngineOptions{NoNoise: true, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.OptimizeThroughput(e, core.ThroughputOptions{TargetRate: c.spec.DefaultRateRPS})
		if err != nil {
			t.Fatalf("%s: %v", c.spec.Name, err)
		}
		if !res.Base.Equal(c.wantBase) {
			t.Fatalf("%s: base = %v, want %v", c.spec.Name, res.Base, c.wantBase)
		}
		if res.ReachedTarget != c.wantReach {
			t.Fatalf("%s: ReachedTarget = %v, want %v", c.spec.Name, res.ReachedTarget, c.wantReach)
		}
		if res.TerminatedByRepeat != c.wantRepeat {
			t.Fatalf("%s: TerminatedByRepeat = %v, want %v", c.spec.Name, res.TerminatedByRepeat, c.wantRepeat)
		}
		if res.Iterations > 4 {
			t.Fatalf("%s: %d iterations, paper reports at most 4", c.spec.Name, res.Iterations)
		}
	}
}

// Yahoo's Redis cap (Fig. 5b): throughput stuck near 34k regardless of
// parallelism.
func TestYahooRedisCap(t *testing.T) {
	spec := Yahoo()
	for _, k5 := range []int{34, 50, 60} {
		par := dataflow.ParallelismVector{5, 3, 1, 1, k5}
		e, err := NewEngine(spec, EngineOptions{NoNoise: true, Seed: 3, InitialParallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		m := e.MeasureSteady(30, 60)
		if m.ThroughputRPS > 34e3*1.01 {
			t.Fatalf("k5=%d: throughput %v exceeds the Redis cap", k5, m.ThroughputRPS)
		}
		if m.ThroughputRPS < 33e3 {
			t.Fatalf("k5=%d: throughput %v below the cap it should saturate", k5, m.ThroughputRPS)
		}
	}
}

// The case-study curve (Fig. 2a): strongly sublinear throughput growth
// that saturates well below linear scaling, and a U-shaped latency
// (Fig. 2b / Observations 2.1, 2.2).
func TestCaseStudyFigure2Shape(t *testing.T) {
	spec := WordCountCaseStudy()
	thr := make([]float64, 7)
	lat := make([]float64, 7)
	for k := 1; k <= 6; k++ {
		e, err := NewEngine(spec, EngineOptions{NoNoise: true, Seed: 1,
			InitialParallelism: dataflow.Uniform(4, k)})
		if err != nil {
			t.Fatal(err)
		}
		m := e.RunAndMeasure(30, 120)
		thr[k] = m.ThroughputRPS
		lat[k] = m.ProcLatencyMS
	}
	if math.Abs(thr[1]-150e3) > 5e3 {
		t.Fatalf("k=1 throughput = %v, want ~150k", thr[1])
	}
	if thr[2] < 230e3 || thr[2] > 260e3 {
		t.Fatalf("k=2 throughput = %v, want ~250k", thr[2])
	}
	if thr[2] >= 2*thr[1] {
		t.Fatal("scaling must be sublinear (Obs. 2.1)")
	}
	if thr[3] < thr[2] {
		t.Fatalf("k=3 should still improve: %v -> %v", thr[2], thr[3])
	}
	// Saturation: k=6 is no better than the peak.
	peak := math.Max(thr[3], math.Max(thr[4], thr[5]))
	if thr[6] > peak {
		t.Fatalf("k=6 throughput %v should not exceed the plateau %v", thr[6], peak)
	}
	// Latency: decreasing at first, higher again at k=6 than at the
	// minimum (Obs. 2.2).
	if !(lat[1] > lat[2] && lat[2] > lat[3]) {
		t.Fatalf("latency should fall with early parallelism: %v", lat[1:])
	}
	minLat := math.Min(lat[3], lat[4])
	if lat[6] <= minLat {
		t.Fatalf("latency should rise again at k=6: %v vs min %v", lat[6], minLat)
	}
}

// True vs observed rates on a real workload: over-provisioned WordCount
// shows the observed metric far below the true metric (the paper's core
// argument for the new metric).
func TestObservedUnderestimatesWhenOverProvisioned(t *testing.T) {
	e, err := NewEngine(WordCount(), EngineOptions{NoNoise: true, Seed: 4,
		InitialParallelism: dataflow.ParallelismVector{10, 12, 40, 30}})
	if err != nil {
		t.Fatal(err)
	}
	m := e.MeasureSteady(30, 60)
	count := 2 // Count operator index
	if m.ObservedRatePerInstance[count] > 0.5*m.TrueRatePerInstance[count] {
		t.Fatalf("observed %v should be well under true %v",
			m.ObservedRatePerInstance[count], m.TrueRatePerInstance[count])
	}
}

// Recording a tick into a store must not allocate per sample: the
// engine records through series handles resolved once, and a series
// allocates only a new chunk of points, one per 128 samples once its
// chunks reach full size. WordCount's 16 series then cost 0.125
// allocations per tick; a per-sample allocation would cost 16.
func TestTickWithStoreAllocations(t *testing.T) {
	perTick := func(store *metrics.Store) float64 {
		e, err := NewEngine(WordCount(), EngineOptions{
			Seed:               3,
			InitialParallelism: dataflow.ParallelismVector{3, 4, 12, 10},
			Store:              store,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(2048) // resolve the handles and grow past the small chunks
		const ticks = 1024
		return testing.AllocsPerRun(4, func() {
			for i := 0; i < ticks; i++ {
				e.Tick()
			}
		}) / ticks
	}
	without, with := perTick(nil), perTick(metrics.NewStore())
	if with > without+0.25 {
		t.Fatalf("a tick allocates %.3f times with a store, %.3f without", with, without)
	}
	t.Logf("allocations per tick: %.3f with a store, %.3f without", with, without)
}
