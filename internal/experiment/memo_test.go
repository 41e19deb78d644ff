package experiment

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
	"micromama/internal/workload"
)

func simRuns() *telemetry.Counter {
	return telemetry.Default().Counter("mama_sim_runs_total", "Simulations started (System.RunContext entries).")
}

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	sp, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// directIPC is the reference the memo is held to: sim.New and
// RunContext with nothing of this package's Runner in between.
func directIPC(t *testing.T, mix workload.Mix, cfg sim.Config, scale Scale) []float64 {
	t.Helper()
	cfg.Cores = len(mix.Specs)
	sys, err := sim.New(cfg, mix.Traces(), sim.NoPrefetchController())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background(), scale.Target, scale.MaxCycles())
	sys.Close()
	if err != nil {
		t.Fatal(err)
	}
	ipc := make([]float64, len(res.Cores))
	for i, cr := range res.Cores {
		ipc[i] = cr.IPC
	}
	return ipc
}

// TestBaselineAndProfileAreNoCells: a baseline is IPC[0] of the
// one-core "no" run and a profile is the Speedups of the n-core "no"
// run, bit for bit — against the Runner's own RunMixContext and against
// a direct simulation — and neither costs a simulation once that "no"
// cell has run.
func TestBaselineAndProfileAreNoCells(t *testing.T) {
	ctx := context.Background()
	mix := workload.Mixes(2, 1, 3)[0]
	cfg := sim.DefaultConfig(2)

	r := NewRunner(concurrencyScale)
	prof, err := r.profiles(ctx, mix, cfg, r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	no, err := r.RunMixContext(ctx, mix, cfg, "no", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, no.Speedups) {
		t.Errorf("profiles = %v, the \"no\" run's Speedups = %v", prof, no.Speedups)
	}
	multi := directIPC(t, mix, cfg, concurrencyScale)
	for i, sp := range mix.Specs {
		base, err := r.BaselineIPCContext(ctx, sp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		one := workload.Mix{Specs: []workload.Spec{sp}}
		alone, err := r.RunMixContext(ctx, one, cfg, "no", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if base != alone.Result.Cores[0].IPC {
			t.Errorf("%s: baseline %v, the one-core \"no\" run's IPC %v", sp.Name, base, alone.Result.Cores[0].IPC)
		}
		if want := directIPC(t, one, cfg, concurrencyScale)[0]; base != want {
			t.Errorf("%s: baseline %v, direct simulation %v", sp.Name, base, want)
		}
		if want := multi[i] / base; prof[i] != want {
			t.Errorf("%s: profile %v, direct multicore IPC / direct baseline = %v", sp.Name, prof[i], want)
		}
		if len(alone.Speedups) != 1 || alone.Speedups[0] != 1 || alone.WS != 1 {
			t.Errorf("%s: one-core \"no\" run has speedups %v, WS %v; it is its own baseline", sp.Name, alone.Speedups, alone.WS)
		}
	}

	// The other way round: after RunCells has run the "no" cells, the
	// baseline and the profile are memo reads.
	r = NewRunner(concurrencyScale)
	cells := []sweep.Cell{
		CellFor(mix, "no", "tiny", concurrencyScale.Target, 0),
		CellFor(workload.Mix{Specs: mix.Specs[:1]}, "no", "tiny", concurrencyScale.Target, 0),
	}
	res, err := r.RunCells(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	r.Scale = ScaleTiny
	r.Scale.Target = concurrencyScale.Target
	before := simRuns().Value()
	prof2, err := r.profiles(ctx, mix, cfg, r.Scale)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := r.BaselineIPCContext(ctx, mix.Specs[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := simRuns().Value() - before; got != 0 {
		t.Errorf("reading a profile and a baseline their \"no\" cells already measured started %d simulations", got)
	}
	if !reflect.DeepEqual(prof2, res[0].Speedups) || base2 != res[1].IPC[0] {
		t.Errorf("profile %v / baseline %v differ from the cells' %v / %v", prof2, base2, res[0].Speedups, res[1].IPC[0])
	}
}

// TestOneCoreNoRunSimulatesOnce: a one-core "no" run is its own
// baseline, so it starts one simulation, not two.
func TestOneCoreNoRunSimulatesOnce(t *testing.T) {
	r := NewRunner(concurrencyScale)
	mix := workload.Mix{Specs: []workload.Spec{mustSpec(t, "spec06.libquantum")}}
	before := simRuns().Value()
	res, err := r.RunMixContext(context.Background(), mix, sim.DefaultConfig(1), "no", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := simRuns().Value() - before; got != 1 {
		t.Errorf("a one-core \"no\" run started %d simulations, want 1", got)
	}
	if res.Speedups[0] != 1 || res.WS != 1 || res.HS != 1 {
		t.Errorf("speedups %v WS %v HS %v, want all 1", res.Speedups, res.WS, res.HS)
	}
}

// TestMemoKeyedByBudget: one Runner serving two budgets never shares a
// baseline between them, while at one budget and system a trace's
// baseline is shared across mixes, seeds and steps.
func TestMemoKeyedByBudget(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(ScaleTiny)
	cell := func(seed, target, step uint64, traces ...string) sweep.Cell {
		return sweep.Cell{Mix: traces, Controller: "bandit", Scale: "tiny", Seed: seed, Target: target, Step: step}
	}
	const a, b = "spec06.libquantum", "spec06.mcf"
	before := baselineStats.misses.Value()
	res, err := r.RunCells(ctx, []sweep.Cell{
		cell(0, 30_000, 0, a, b),
		cell(1, 30_000, 0, b, a),  // another mix and seed
		cell(0, 30_000, 60, a, b), // another step
		cell(0, 30_000, 0, a),     // another core count of the same system
		cell(0, 45_000, 0, a, b),  // another budget
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := baselineStats.misses.Value() - before; got != 4 {
		t.Errorf("%d baselines simulated, want 4: two traces at each of two budgets", got)
	}
	for i := 0; i < 4; i++ {
		for core, name := range res[i].Sim.Cores {
			first := 0
			if name.Trace != a {
				first = 1
			}
			got, want := res[i].IPC[core]/res[i].Speedups[core], res[0].IPC[first]/res[0].Speedups[first]
			if !near(got, want) {
				t.Errorf("cell %d core %d (%s): normalised by %v, cell 0 by %v", i, core, name.Trace, got, want)
			}
		}
	}
	if short, long := res[0].IPC[0]/res[0].Speedups[0], res[4].IPC[0]/res[4].Speedups[0]; near(short, long) {
		t.Errorf("%s has baseline %v at 30k and at 45k instructions: budgets share a baseline", a, short)
	}

	// The same through the mix entry points, whose budget is r.Scale.
	spec := mustSpec(t, a)
	r.Scale.Target = 30_000
	before = simRuns().Value()
	if _, err := r.BaselineIPCContext(ctx, spec, sim.DefaultConfig(4)); err != nil {
		t.Fatal(err)
	}
	if got := simRuns().Value() - before; got != 0 {
		t.Errorf("the 30k baseline the cells measured was simulated again (%d runs)", got)
	}
	r.Scale.Target = 60_000
	if _, err := r.BaselineIPCContext(ctx, spec, sim.DefaultConfig(4)); err != nil {
		t.Fatal(err)
	}
	if got := simRuns().Value() - before; got != 1 {
		t.Errorf("a never-seen budget started %d simulations, want 1", got)
	}
}

// TestResolveSpellings: however a cell is spelled, it resolves to one
// plan under one memo key, and the cell comes back normalized.
func TestResolveSpellings(t *testing.T) {
	canon := sweep.Cell{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama", Scale: "tiny", Seed: 2}
	want, err := Resolve(&canon)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []sweep.Cell{
		{Mix: []string{" spec06.mcf", "ligra.BFS\t"}, Controller: " mumama ", Scale: "Tiny", Seed: 2},
		{Mix: canon.Mix, Controller: "mumama", Scale: " TINY ", Seed: 2, Target: ScaleTiny.Target, Step: ScaleTiny.Step},
	} {
		written, spelled := c.Mix, c.Mix[0]
		got, err := Resolve(&c)
		if err != nil {
			t.Errorf("%+v: %v", c, err)
			continue
		}
		// (workload.Spec holds a func, so the mixes are compared by name.)
		if got.Mix.Name() != want.Mix.Name() || got.Config != want.Config || got.Controller != want.Controller ||
			got.Scale != want.Scale || got.key() != want.key() {
			t.Errorf("%+v resolves to %s on %+v at %+v (key %s), want key %s", c, got.Mix.Name(), got.Config, got.Scale, got.key(), want.key())
		}
		if !reflect.DeepEqual(c.Mix, canon.Mix) || c.Controller != "mumama" || c.Scale != "tiny" {
			t.Errorf("cell left as %+v", c)
		}
		// A mix that needed trimming is a fresh slice; a clean one is kept.
		if written[0] != spelled || (spelled != canon.Mix[0]) == (&written[0] == &c.Mix[0]) {
			t.Errorf("mix %q normalized through the caller's slice, or a clean one copied", written)
		}
	}
	def := sweep.Cell{Mix: canon.Mix, Controller: "mumama"}
	if p, err := Resolve(&def); err != nil || p.Scale != ScaleDefault || def.Scale != "default" {
		t.Errorf("an empty scale resolves to %+v, %v (cell scale %q)", p.Scale, err, def.Scale)
	}
}

// parkedCtx parks the simulation that polls it: the first Err call
// closes entered and blocks until release is closed, then reports err
// (nil lets the run finish).
type parkedCtx struct {
	context.Context
	entered, release chan struct{}
	once             sync.Once
	err              error
}

func newParkedCtx(err error) *parkedCtx {
	return &parkedCtx{Context: context.Background(), entered: make(chan struct{}), release: make(chan struct{}), err: err}
}

func (c *parkedCtx) Err() error {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return c.err
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMemoMergesConcurrentCallers: callers that arrive while a plan is
// being simulated wait for that one run; every lookup counts as exactly
// one of miss, merge or hit.
func TestMemoMergesConcurrentCallers(t *testing.T) {
	r := NewRunner(concurrencyScale)
	spec, cfg := mustSpec(t, "spec06.mcf"), sim.DefaultConfig(1)
	hits, misses, merges := baselineStats.hits.Value(), baselineStats.misses.Value(), baselineStats.merges.Value()
	runs := simRuns().Value()

	leader := newParkedCtx(nil)
	const waiters = 6
	out := make([]float64, 1+waiters)
	errs := make([]error, 1+waiters)
	var wg sync.WaitGroup
	call := func(i int, ctx context.Context) {
		defer wg.Done()
		out[i], errs[i] = r.BaselineIPCContext(ctx, spec, cfg)
	}
	wg.Add(1)
	go call(0, leader)
	<-leader.entered
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go call(i, context.Background())
	}
	waitFor(t, "every waiter to merge", func() bool { return baselineStats.merges.Value()-merges == waiters })
	close(leader.release)
	wg.Wait()
	for i := range out {
		if errs[i] != nil || out[i] != out[0] || out[i] <= 0 {
			t.Errorf("caller %d: %v, %v; leader got %v", i, out[i], errs[i], out[0])
		}
	}
	if _, err := r.BaselineIPCContext(context.Background(), spec, cfg); err != nil {
		t.Fatal(err)
	}
	if h, m, g := baselineStats.hits.Value()-hits, baselineStats.misses.Value()-misses, baselineStats.merges.Value()-merges; h != 1 || m != 1 || g != waiters {
		t.Errorf("hits %d misses %d merges %d, want 1, 1, %d", h, m, g, waiters)
	}
	if got := simRuns().Value() - runs; got != 1 {
		t.Errorf("%d simulations for one plan", got)
	}
}

// TestMemoCancelledLeader: a leader whose context is cancelled fails
// alone; its failure is not remembered, and the waiter it leaves behind
// simulates the plan under its own context.
func TestMemoCancelledLeader(t *testing.T) {
	r := NewRunner(concurrencyScale)
	spec, cfg := mustSpec(t, "spec06.mcf"), sim.DefaultConfig(1)
	misses, merges := baselineStats.misses.Value(), baselineStats.merges.Value()

	leader := newParkedCtx(context.Canceled)
	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, leaderErr = r.BaselineIPCContext(leader, spec, cfg)
	}()
	<-leader.entered
	var waiterIPC float64
	var waiterErr error
	go func() {
		defer wg.Done()
		waiterIPC, waiterErr = r.BaselineIPCContext(context.Background(), spec, cfg)
	}()
	waitFor(t, "the waiter to merge", func() bool { return baselineStats.merges.Value()-merges == 1 })
	close(leader.release)
	wg.Wait()
	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader: %v, want context.Canceled", leaderErr)
	}
	if waiterErr != nil || waiterIPC <= 0 {
		t.Errorf("waiter: %v, %v; want its own successful run", waiterIPC, waiterErr)
	}
	if got := baselineStats.misses.Value() - misses; got != 2 {
		t.Errorf("%d computations, want 2: the cancelled one was not cached and the waiter recomputed", got)
	}

	// A waiter gives up on its own context without disturbing the leader.
	r = NewRunner(concurrencyScale)
	leader = newParkedCtx(nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, leaderErr = r.BaselineIPCContext(leader, spec, cfg)
	}()
	<-leader.entered
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.BaselineIPCContext(gone, spec, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: %v, want context.Canceled", err)
	}
	close(leader.release)
	wg.Wait()
	if leaderErr != nil {
		t.Errorf("leader after its waiter left: %v", leaderErr)
	}
}

// TestForEachContract: at most Workers calls at once on Workers
// goroutines, the lowest-index error wins, and calls not started when
// the context ends are skipped with its error.
func TestForEachContract(t *testing.T) {
	r := &Runner{Workers: 3}
	var live, peak, calls atomic.Int64
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := r.forEach(context.Background(), 200, func(i int) error {
		n := live.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		calls.Add(1)
		time.Sleep(50 * time.Microsecond)
		live.Add(-1)
		switch i {
		case 40:
			return errLow
		case 150:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
	if calls.Load() != 200 || peak.Load() > 3 {
		t.Errorf("%d calls, %d at once; want 200 and at most 3", calls.Load(), peak.Load())
	}

	// A call already past its context check when the cancel lands may
	// still start: at most one per other worker.
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled atomic.Bool
	var late atomic.Int64
	calls.Store(0)
	err = r.forEach(ctx, 200, func(i int) error {
		if cancelled.Load() {
			late.Add(1)
		}
		if calls.Add(1) == 5 {
			cancel()
			cancelled.Store(true)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || late.Load() > 2 || calls.Load() == 200 {
		t.Errorf("err = %v, %d calls of which %d started after the cancel; want context.Canceled and the rest skipped", err, calls.Load(), late.Load())
	}
	if err := (&Runner{}).forEach(context.Background(), 0, nil); err != nil {
		t.Errorf("empty work list: %v", err)
	}
}
