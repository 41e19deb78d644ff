// Command mamasim runs one multicore simulation: a workload mix under a
// chosen prefetch controller, printing per-core and system statistics.
//
// Usage:
//
//	mamasim -controller mumama -traces spec06.libquantum,spec06.mcf \
//	        -instructions 2000000
//	mamasim -controller mumama@jav=4,mumama,bandit -traces ...   # compare
//	mamasim -list                # list catalog traces
//	mamasim -controllers         # list controllers and their key parameters
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"micromama/internal/dram"
	"micromama/internal/experiment"
	"micromama/internal/metrics"
	"micromama/internal/profiling"
	"micromama/internal/sim"
	"micromama/internal/telemetry"
	"micromama/internal/workload"
)

func main() {
	var (
		controller = flag.String("controller", "mumama", "prefetch controller key, name[@param=value…], or a comma-separated list to compare (see -controllers)")
		traces     = flag.String("traces", "", "comma-separated trace names, one per core (see -list)")
		instr      = flag.Uint64("instructions", 2_000_000, "instruction target per core")
		step       = flag.Uint64("step", 250, "agent timestep in L2 demand accesses")
		maxFactor  = flag.Uint64("maxcycles-factor", 14, "cycle guard = instructions x factor")
		dramMTps   = flag.Int("dram", 2400, "DDR4 speed grade (MT/s)")
		channels   = flag.Int("channels", 1, "DRAM channels")
		list       = flag.Bool("list", false, "list catalog traces and exit")
		ctrls      = flag.Bool("controllers", false, "list controllers with the parameters their keys accept and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file at exit")
		metricsOut = flag.String("metrics-dump", "", "write telemetry in Prometheus text format to this file at exit (\"-\" for stdout)")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamasim:", err)
		os.Exit(1)
	}
	defer stopProf()
	dumpMetrics := func() {
		if *metricsOut == "" {
			return
		}
		if err := telemetry.DumpToFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "mamasim: metrics-dump:", err)
		}
	}
	defer dumpMetrics()
	// os.Exit skips deferred calls; flush profiles and metrics on the
	// error paths too.
	fatal := func(code int, args ...any) {
		fmt.Fprintln(os.Stderr, args...)
		dumpMetrics()
		stopProf()
		os.Exit(code)
	}

	if *list {
		for _, s := range workload.Catalog() {
			sens := "insensitive"
			if s.Sensitive {
				sens = "sensitive"
			}
			fmt.Printf("%-24s %-8s %s\n", s.Name, s.Class, sens)
		}
		return
	}
	if *ctrls {
		for _, k := range experiment.ControllerKeys {
			fmt.Println(k)
			for _, p := range experiment.ControllerParams[k] {
				fmt.Printf("    @%s\n", p)
			}
		}
		return
	}
	if *traces == "" {
		fatal(2, "mamasim: -traces is required (try -list)")
	}

	names := strings.Split(*traces, ",")
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.ByName(strings.TrimSpace(n))
		if err != nil {
			fatal(2, "mamasim:", err)
		}
		specs[i] = sp
	}
	mix := workload.Mix{Specs: specs}

	cfg := sim.DefaultConfig(len(specs))
	if *dramMTps != 2400 || *channels != 1 {
		cfg.DRAM = dram.DDR4(*dramMTps, *channels)
	}

	// Ctrl-C stops the simulation at its next epoch boundary, so the
	// profiles and metrics requested above are still flushed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	scale := experiment.Scale{Target: *instr, MaxCyclesFactor: *maxFactor, MixCount: 1, Seed: 7, Step: *step}
	runner := experiment.NewRunner(scale)

	keys := strings.Split(*controller, ",")
	for _, key := range keys {
		if err := experiment.CheckController(key); err != nil {
			fatal(2, "mamasim:", err)
		}
	}
	if len(keys) > 1 {
		// Comparison mode: one summary row per controller.
		fmt.Printf("system: %d cores, %s (%.1f GB/s)\n\n", cfg.Cores, cfg.DRAM.Name, cfg.DRAM.PeakGBps())
		fmt.Printf("%-16s %8s %8s %8s %10s %12s\n", "controller", "WS", "HS", "GM", "unfairness", "L2 prefetches")
		for _, key := range keys {
			res, err := runner.RunMixContext(ctx, mix, cfg, key, experiment.Options{})
			if err != nil {
				fatal(1, "mamasim:", err)
			}
			fmt.Printf("%-16s %8.3f %8.3f %8.3f %10.2f %12d\n",
				res.Controller, res.WS, res.HS, metrics.GM(res.Speedups), res.Unfairness,
				res.Result.TotalL2Prefetches())
		}
		return
	}

	res, err := runner.RunMixContext(ctx, mix, cfg, *controller, experiment.Options{})
	if err != nil {
		fatal(1, "mamasim:", err)
	}

	fmt.Printf("controller: %s   system: %d cores, %s (%.1f GB/s)\n\n",
		res.Result.Controller, cfg.Cores, cfg.DRAM.Name, cfg.DRAM.PeakGBps())
	fmt.Printf("%-24s %10s %12s %8s %10s %10s\n", "trace", "IPC", "speedup", "L2 MPKI", "L2 pf", "pf useful")
	for i, c := range res.Result.Cores {
		fmt.Printf("%-24s %10.3f %12.3f %8.1f %10d %10d\n",
			c.Trace, c.IPC, res.Speedups[i], c.L2MPKI(), c.L2PrefIssued, c.L2.PrefetchUseful)
	}
	fmt.Printf("\nWS=%.3f  HS=%.3f  GM=%.3f  Unfairness=%.2f\n",
		res.WS, res.HS, metrics.GM(res.Speedups), res.Unfairness)
	d := res.Result.DRAM
	fmt.Printf("DRAM: %d reads, %d writes, %.0f%% row hits, %d prefetches rejected\n",
		d.Reads, d.Writes, 100*float64(d.RowHits)/float64(d.RowHits+d.RowMisses+1), d.PrefetchesRejected)
}
