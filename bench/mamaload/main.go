// Command mamaload is the repository's benchmark: a closed-loop load
// generator and harness that drives the real stack — experiment.Runner
// directly, an in-process server behind loopback HTTP through
// internal/client, and a three-node gossip cluster — over six workloads,
// checks that results are correct, and prints every metric by name with
// its unit. bench/README.md has the tables; BENCHMARK.json at the root
// of the repository names the same workloads and metrics.
//
// Every workload runs in a child process of its own (the command
// re-executes itself), so the process-wide trace pool, set-up time and
// peak memory of one workload do not depend on which ran before it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"time"

	"micromama/internal/experiment"
)

// metricDef names one metric. The two lists below are the benchmark's
// vocabulary; BENCHMARK.json repeats them and a test keeps them equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricDef{
	{Name: "trace.materialize_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "trace.replay_ns_per_instr", Unit: "ns", Better: "lower"},
	{Name: "trace.pool_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.pool_fallbacks", Unit: "count", Better: "lower"},
	{Name: "sim.new_us", Unit: "us", Better: "lower"},
	{Name: "sim.minstr_per_s.1c.stream", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.1c.stride", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.1c.chase", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.1c.graph", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.4c.no", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.4c.bandit", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.4c.mumama", Unit: "M/s", Better: "higher"},
	{Name: "sim.minstr_per_s.4c.pythia", Unit: "M/s", Better: "higher"},
	{Name: "model.instructions", Unit: "count", Better: "lower"},
	{Name: "model.cycles", Unit: "count", Better: "lower"},
	{Name: "model.l2_misses", Unit: "count", Better: "lower"},
	{Name: "model.llc_misses", Unit: "count", Better: "lower"},
	{Name: "model.dram_reads", Unit: "count", Better: "lower"},
	{Name: "model.dram_row_hits", Unit: "count", Better: "higher"},
	{Name: "model.prefetches", Unit: "count", Better: "lower"},
	{Name: "experiment.baseline_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.baseline_hit_us", Unit: "us", Better: "lower"},
	{Name: "experiment.baseline_share_cold", Unit: "ratio", Better: "lower"},
	{Name: "experiment.runmix_ms.no", Unit: "ms", Better: "lower"},
	{Name: "experiment.runmix_ms.bandit", Unit: "ms", Better: "lower"},
	{Name: "experiment.runmix_ms.mumama", Unit: "ms", Better: "lower"},
	{Name: "experiment.runmix_ms.pythia", Unit: "ms", Better: "lower"},
	{Name: "server.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.result_get_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_miss_us", Unit: "us", Better: "lower"},
	{Name: "server.stats_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.sim_share", Unit: "ratio", Better: "higher"},
	{Name: "server.start_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_load_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "server.shutdown_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.notify_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.notify_lag_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "sweep.expand_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "sweep.admit_warm_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "sweep.admit_cold_us_per_cell", Unit: "us", Better: "lower"},
	{Name: "sweep.stream_us_per_event", Unit: "us", Better: "lower"},
	{Name: "sweep.first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.deduped_frac", Unit: "ratio", Better: "higher"},
	{Name: "sweep.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "sweep.persist_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.ring_build_us", Unit: "us", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.converge_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.remote_cells", Unit: "1/op", Better: "lower"},
	{Name: "cluster.stolen_cells", Unit: "1/op", Better: "lower"},
	{Name: "cluster.writebacks", Unit: "1/op", Better: "lower"},
	{Name: "cluster.remote_cache_hits", Unit: "1/op", Better: "higher"},
	{Name: "cluster.proxied", Unit: "1/op", Better: "lower"},
	{Name: "cluster.internal_rpcs", Unit: "1/op", Better: "lower"},
	{Name: "cluster.internal_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.node_sim_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.scrape_us", Unit: "us", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// metric is a value with its unit, as printed and as stored.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is one run of one workload: what the parent prints and what
// -out stores.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	N         int               `json:"n"`
	Epochs    int               `json:"epochs"`
	Metrics   map[string]metric `json:"metrics"`
	// FailedFrac is failed ÷ attempted. It is not among the metrics the
	// regression check compares, which must never read 0; any value
	// above 0 makes the run incorrect instead.
	FailedFrac   float64             `json:"failed_frac"`
	CellsPerS    float64             `json:"cells_per_s,omitempty"`
	SetupSamples []float64           `json:"setup_samples_s,omitempty"`
	ResultDigest string              `json:"result_digest,omitempty"`
	PairDigests  map[string]string   `json:"pair_digests,omitempty"`
	Spans        map[string]spanStat `json:"spans,omitempty"`
	Errors       []string            `json:"errors,omitempty"`
}

// report is the -out file: every run of an invocation.
type report struct {
	Host hostInfo    `json:"host"`
	Runs []runReport `json:"runs"`
}

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	smoke     bool
	out       string
	spans     string
	compare   bool
	child     bool
	setupOnly bool
	probes    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 11, "seed of the bench's own generator: draws the mixes, the op order and the cache namespaces")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and the layer probes and reports the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny fixed-size run of the plumbing; not a measurement")
	flag.StringVar(&o.out, "out", "", "add every run as JSON to this file, creating it if need be")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans of every workload as NDJSON to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments: mamaload -compare a.json b.json")
	flag.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "internal: stop after set-up")
	flag.BoolVar(&o.probes, "probes", false, "internal: run the layer probes and nothing else")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		err = compareMain(flag.Args())
	case o.child:
		err = childMain(o)
	default:
		err = parentMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamaload:", err)
		os.Exit(1)
	}
}

// ------------------------------------------------------------------- parent

// setupRuns is how many processes set a workload up in one run; set-up
// time is their median.
const setupRuns = 3

func parentMain(o options) error {
	if err := checkEnv(); err != nil {
		return err
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if _, ok := workloadWhy[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (known: %v)", o.workload, workloadNames)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Host: readHost()}
	fmt.Printf("# mamaload: GOMAXPROCS=%d nproc=%d %s kernel=%s commit=%s clients=%d\n",
		rep.Host.GOMAXPROCS, rep.Host.NProc, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.Commit, rep.Host.Clients)
	if o.spans != "" {
		if err := os.WriteFile(o.spans, nil, 0o644); err != nil {
			return err
		}
	}
	allCorrect := true
	digests := map[string]string{}
	for _, name := range names {
		r, err := runWorkload(self, o, name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printRun(r)
		rep.Runs = append(rep.Runs, r)
		allCorrect = allCorrect && r.Correct
		if r.ResultDigest != "" {
			digests[name] = r.ResultDigest
		}
	}
	// Check 2 across processes: the paths that simulate the pair set must
	// agree on every result.
	if err := sameDigest(digests); err != nil {
		fmt.Println("# FAILED:", err)
		allCorrect = false
	}
	if o.out != "" {
		// An existing file is added to, so that two builds can be measured
		// in alternation — a, b, a, b — each into its own file: on a host
		// whose speed drifts that is the only comparison that holds.
		all := rep
		if old, err := readReport(o.out); err == nil {
			all.Host, all.Runs = old.Host, append(old.Runs, rep.Runs...)
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		b, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(rep.Runs) == 1 {
		// The one-line form a driver reads: always the last line.
		r := rep.Runs[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

func sameDigest(digests map[string]string) error {
	var first string
	for _, name := range workloadNames {
		d, ok := digests[name]
		if !ok {
			continue
		}
		if first == "" {
			first = name
		} else if d != digests[first] {
			return fmt.Errorf("result_digest of %s (%s) differs from %s (%s): the paths do not give bit-identical results",
				name, d, first, digests[first])
		}
	}
	return nil
}

// runWorkload runs one workload once: setupRuns-1 children that only set
// up, then the child that sets up and measures; for a traced run, one
// more child for the layer probes, which want a process of their own —
// a workload leaves a heap behind (sweep_warm: hundreds of MB) that
// slows whatever allocates after it.
func runWorkload(self string, o options, name string) (runReport, error) {
	setups := setupRuns
	if o.smoke || o.trace != 0 {
		setups = 1 // set-up time is not reported by these runs
	}
	var samples []float64
	for i := 0; i < setups-1; i++ {
		c, err := runChild(self, o, name, "-setup-only")
		if err != nil {
			return runReport{}, err
		}
		samples = append(samples, c.SetupS)
	}
	c, err := runChild(self, o, name, "")
	if err != nil {
		return runReport{}, err
	}
	samples = append(samples, c.SetupS)
	if o.trace != 0 {
		p, err := runChild(self, o, name, "-probes")
		if err != nil {
			return runReport{}, err
		}
		for k, v := range p.PerLayer {
			c.PerLayer[k] = v
		}
		c.Errors = append(c.Errors, p.Errors...)
		c.Correct = c.Correct && len(p.Errors) == 0
	}

	r := c.runReport
	r.SetupSamples = samples
	if r.Attempted > 0 {
		r.FailedFrac = float64(r.Failed) / float64(r.Attempted)
	}
	defs, values := endToEnd, c.EndToEnd
	if o.trace != 0 {
		defs, values = perLayer, c.PerLayer
	} else {
		values["setup_s"] = median(samples)
	}
	r.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return r, nil
}

// childReport is the one JSON line a child prints.
type childReport struct {
	runReport
	SetupS   float64            `json:"setup_s"`
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// runChild runs one child process; mode is "", "-setup-only" or
// "-probes".
func runChild(self string, o options, name, mode string) (childReport, error) {
	args := []string{"-child", "-workload", name,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if mode != "" {
		args = append(args, mode)
	}
	// The child leaves its spans in a file of its own; they are copied
	// into the invocation's span file under the workload's name.
	var spanFile string
	if o.spans != "" && o.trace != 0 && mode == "" {
		spanFile = o.spans + "." + name
		args = append(args, "-spans", spanFile)
		defer os.Remove(spanFile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	var c childReport
	if err != nil {
		return c, fmt.Errorf("child process: %w", err)
	}
	if err := json.Unmarshal(outBytes, &c); err != nil {
		return c, fmt.Errorf("child process printed no report: %w: %q", err, outBytes)
	}
	if spanFile != "" {
		if err := appendSpans(o.spans, spanFile, name); err != nil {
			return c, err
		}
	}
	return c, nil
}

// appendSpans copies a child's spans into the invocation's span file,
// labelling each with its workload: span IDs are per child.
func appendSpans(dst, src, workload string) error {
	spans, err := readSpans(src)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(dst, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		s.Workload = workload
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func printRun(r runReport) {
	fmt.Printf("\n## %s  seed=%d  %s\n", r.Workload, r.Seed, workloadWhy[r.Workload])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-34s %14.6g %s\n", r.Workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("%-14s ops_attempted=%d ops_failed=%d failed_frac=%g N=%d epochs=%d correct=%v\n",
		r.Workload, r.Attempted, r.Failed, r.FailedFrac, r.N, r.Epochs, r.Correct)
	if r.CellsPerS > 0 {
		fmt.Printf("%-14s cells_per_s=%.6g\n", r.Workload, r.CellsPerS)
	}
	if r.ResultDigest != "" {
		fmt.Printf("%-14s result_digest=%s\n", r.Workload, r.ResultDigest)
	}
	if r.Traced {
		names = names[:0]
		for n := range r.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := r.Spans[n]
			fmt.Printf("%-14s span %-40s n=%-6d mean=%.4gms self=%.4gms\n", r.Workload, n, s.Count, s.MeanMs, s.SelfMs)
		}
	}
	for _, e := range r.Errors {
		fmt.Printf("%-14s FAILED: %s\n", r.Workload, e)
	}
}

// -------------------------------------------------------------------- child

// smokeTarget and smokeOps size a -smoke run: simulations an order of
// magnitude shorter and a fixed, small number of ops.
const smokeTarget = 20_000

var smokeOps = map[string]int{
	"sim_direct": 2 * numPairs, "jobs_cold": numPairs, "jobs_warm": 200,
	"sweep_cold": 2 * numMixes, "sweep_warm": 8, "cluster3_cold": 2 * numMixes,
}

func childMain(o options) error {
	if err := checkEnv(); err != nil {
		return err
	}
	ps, err := newPairSet(o.seed)
	if err != nil {
		return err
	}
	// Scratch lives under the working directory: a benchmark run writes
	// nothing outside the checkout it was started in.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+o.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{name: o.workload, ps: ps, target: pairTarget, smoke: o.smoke, clients: numClients(), dir: dir}
	if o.smoke {
		e.target = smokeTarget
	}
	e.scale = experiment.ScaleTiny
	e.scale.Target = e.target
	if o.probes {
		return probeMain(e)
	}
	var tr *tracer
	if o.trace != 0 {
		tr = &tracer{}
		e.mw = newMiddleware(tr)
	}
	w, err := newImpl(e)
	if err != nil {
		return err
	}
	defer w.close()

	var c childReport
	c.Workload, c.Seed, c.Seconds, c.Traced = o.workload, o.seed, o.seconds, o.trace != 0
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	c.SetupS = time.Since(processStart).Seconds()
	if o.setupOnly {
		return emit(c)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	fail := func(format string, args ...any) {
		c.Errors = append(c.Errors, fmt.Sprintf(format, args...))
	}

	// The untraced phase: every end-to-end number comes from here.
	dur, minOps, maxOps := time.Duration(o.seconds)*time.Second, minSamples, 0
	if tr != nil {
		dur, minOps = dur/3, 0
	}
	if o.smoke {
		dur, minOps, maxOps = time.Hour, 0, smokeOps[o.workload] // ends on the op count
	}
	plain := w.work(nil)
	ph := runLoop(ctx, plain, 0, dur, minOps, maxOps, nil)
	if ph.rssMB == 0 {
		return fmt.Errorf("peak memory could not be read from /proc/self/status")
	}
	c.Errors = append(c.Errors, ph.errs...)
	// A failed op leaves too few samples for a percentile. That is a
	// failed run, reported with its counts and errors, not an abort.
	sum, err := summarize(ph, plain.opsPerEpoch, !o.smoke && tr == nil)
	if err != nil {
		fail("%v", err)
	}
	c.Attempted, c.Failed, c.N, c.Epochs = ph.attempted, ph.failed, sum.N, sum.Epochs
	c.EndToEnd = map[string]float64{
		"ops_per_s": sum.OpsPerS, "latency_p50_ms": sum.P50Ms, "latency_p90_ms": sum.P90Ms,
		"cpu_ms_per_op": sum.CPUMsPerOp, "peak_rss_mb": ph.rssMB,
	}
	switch o.workload {
	case "sweep_cold", "cluster3_cold":
		c.CellsPerS = sum.OpsPerS * float64(len(controllers))
	case "sweep_warm":
		c.CellsPerS = sum.OpsPerS * float64(len(w.(*sweepWarm).want))
	}

	// The traced phase: the same ops again with spans recorded, then the
	// layer probes.
	attempted := ph.attempted
	if tr != nil {
		c.PerLayer = map[string]float64{}
		for _, d := range perLayer {
			c.PerLayer[d.Name] = 0
		}
		e.mw.on.Store(true)
		traced := w.work(tr)
		tph := runLoop(ctx, traced, ph.attempted, dur, minOps, maxOps, tr)
		e.mw.on.Store(false)
		attempted += tph.attempted
		c.Attempted, c.Failed = c.Attempted+tph.attempted, c.Failed+tph.failed
		c.Errors = append(c.Errors, tph.errs...)
		if tsum, err := summarize(tph, traced.opsPerEpoch, false); err != nil {
			fail("traced phase: %v", err)
		} else if sum.CPUMsPerOp > 0 {
			c.PerLayer["trace_overhead_frac"] = tsum.CPUMsPerOp/sum.CPUMsPerOp - 1
		}
		w.layer(tph, c.PerLayer)
		for _, rs := range e.mw.snapshot() {
			c.PerLayer["client.retries"] += float64(rs.Retryable)
		}
		spans := tr.snapshot()
		if c.Spans, err = checkForest(spans); err != nil {
			fail("span forest: %v", err)
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, spans); err != nil {
				return err
			}
		}
	}
	if err := w.verify(attempted); err != nil {
		fail("%v", err)
	}
	// Check 2 inside the process: what this path returned for every pair
	// is what experiment.Runner returns when called directly. It runs
	// last, after peak memory was read, so it is in no metric.
	if o.workload != "sweep_warm" {
		if o.workload != "sim_direct" {
			if err := checkAgainstDirect(ctx, e); err != nil {
				fail("%v", err)
			}
		}
		c.PairDigests = e.pairDigests()
		c.ResultDigest = digestOf(c.PairDigests)
	}
	c.Correct = c.Failed == 0 && len(c.Errors) == 0
	return emit(c)
}

// probeMain is the child that runs the layer probes. It first runs every
// pair once, untimed, so that the probes meet a materialised trace pool
// as the workloads' own ops do.
func probeMain(e *env) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var c childReport
	c.PerLayer = map[string]float64{}
	err := (&simDirect{e: e}).setup()
	if err == nil {
		err = runProbes(ctx, e, c.PerLayer)
	}
	if err != nil {
		c.Errors = append(c.Errors, fmt.Sprintf("layer probes: %v", err))
	}
	return emit(c)
}

// checkAgainstDirect runs every pair through a fresh experiment.Runner
// and compares with the digests the served path produced.
func checkAgainstDirect(ctx context.Context, e *env) error {
	direct := &simDirect{e: &env{name: "direct", ps: e.ps, target: e.target, scale: e.scale}}
	if err := direct.setup(); err != nil {
		return fmt.Errorf("direct reference: %w", err)
	}
	served, want := e.pairDigests(), direct.e.pairDigests()
	for pair, d := range want {
		if served[pair] != d {
			return fmt.Errorf("pair %s: the served path gave digest %q, experiment.Runner called directly gives %s", pair, served[pair], d)
		}
	}
	return nil
}

func emit(c childReport) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}
