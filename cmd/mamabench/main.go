// Command mamabench regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md).
//
// Usage:
//
//	mamabench -scale small fig9 fig13
//	mamabench -scale default all
//	mamabench tab2 overheads fig1
//	mamabench -server http://localhost:8077 fig11 fig13
//
// With -server, supported figures run as server-side sweeps (see
// internal/sweep): the driver expands the same deterministic cells the
// local path would simulate, submits them once, and streams results —
// so a warm server answers a repeated figure without re-simulating.
//
// Experiment ids: tab1 tab2 tab3 fig1 fig2 fig3 fig4 fig9 fig10 fig11
// fig12 fig13 fig14 fig15a fig15b fig16 overheads tournament, or "all".
//
// The tournament id races controller families head-to-head over the
// workload catalog (see internal/tournament):
//
//	mamabench -scale small tournament
//	mamabench -controllers bandit,mumama,phase-select,coord-rl tournament
//	mamabench -server http://localhost:8077 tournament
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"micromama/internal/client"
	"micromama/internal/core"
	"micromama/internal/dram"
	"micromama/internal/experiment"
	"micromama/internal/prefetch"
	"micromama/internal/profiling"
	"micromama/internal/sim"
	"micromama/internal/telemetry"
	"micromama/internal/tournament"
)

var scales = map[string]experiment.Scale{
	"tiny":    experiment.ScaleTiny,
	"small":   experiment.ScaleSmall,
	"default": experiment.ScaleDefault,
	"full":    experiment.ScaleFull,
}

var (
	svgDir  string
	jsonDir string

	// Tournament knobs (the "tournament" experiment id).
	tournamentCtrls string
	tournamentCores string
	tournamentSeeds int
	curScaleName    string
)

// defaultTournamentControllers races one representative of every
// coordination family; "all" expands to every registry key that needs
// no extra options.
const defaultTournamentControllers = "no,ip_stride,bingo,pythia,spp,bandit,mumama,phase-select,coord-rl"

// buildTournamentSpec resolves the tournament flags into a spec.
func buildTournamentSpec(scale experiment.Scale, scaleName string) (tournament.Spec, error) {
	ctrls := tournamentCtrls
	if ctrls == "all" {
		keys := make([]string, 0, len(experiment.ControllerKeys))
		for _, k := range experiment.ControllerKeys {
			if k != "mumama-profiled" { // requires per-core profiles
				keys = append(keys, k)
			}
		}
		ctrls = strings.Join(keys, ",")
	}
	var cores []int
	for _, f := range strings.Split(tournamentCores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return tournament.Spec{}, fmt.Errorf("bad -tournament-cores entry %q", f)
		}
		cores = append(cores, n)
	}
	spec := tournament.Spec{
		Controllers: strings.Split(ctrls, ","),
		CoreCounts:  cores,
		Seeds:       tournamentSeeds,
		ScaleName:   scaleName,
		Scale:       scale,
	}
	for i := range spec.Controllers {
		spec.Controllers[i] = strings.TrimSpace(spec.Controllers[i])
	}
	return spec, spec.Validate()
}

func main() {
	scaleName := flag.String("scale", "small", "tiny | small | default | full")
	flag.StringVar(&svgDir, "svg", "", "also write figures as SVG files into this directory")
	flag.StringVar(&jsonDir, "json", "", "also write report data as JSON files into this directory")
	server := flag.String("server", "", "run experiments remotely as sweeps against this mamaserved URL (fig11, fig13, tournament)")
	flag.StringVar(&tournamentCtrls, "controllers", defaultTournamentControllers,
		"comma-separated controller keys for the tournament id (\"all\" = every registry key)")
	flag.StringVar(&tournamentCores, "tournament-cores", "4",
		"comma-separated core counts the tournament races")
	flag.IntVar(&tournamentSeeds, "tournament-seeds", 1,
		"seed replicas: replica i samples mixes with scale seed + i")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsOut := flag.String("metrics-dump", "", "write telemetry in Prometheus text format to this file at exit (\"-\" for stdout)")
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamabench:", err)
		os.Exit(1)
	}
	defer stopProf()
	dumpMetrics := func() {
		if *metricsOut == "" {
			return
		}
		if err := telemetry.DumpToFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "mamabench: metrics-dump:", err)
		}
	}
	defer dumpMetrics()

	for _, dir := range []string{svgDir, jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "mamabench:", err)
				os.Exit(1)
			}
		}
	}

	curScaleName = *scaleName
	scale, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "mamabench: unknown scale %q\n", *scaleName)
		stopProf()
		os.Exit(2)
	}
	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "mamabench: no experiments named (try `mamabench all`)")
		stopProf()
		os.Exit(2)
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = []string{"tab1", "tab2", "tab3", "overheads", "fig1", "fig2", "fig3", "fig4",
			"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "fig16", "sec63"}
	}

	// Ctrl-C cancels in-flight simulations at their next epoch boundary
	// instead of killing the process mid-report (and still flushes any
	// requested profiles).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	r := experiment.NewRunner(scale)
	r.BaseCtx = ctx
	var rr *remoteRunner
	if *server != "" {
		rr = &remoteRunner{
			ctx:       ctx,
			c:         client.New(*server, client.Options{}),
			scale:     scale,
			scaleName: *scaleName,
		}
	}
	for _, id := range ids {
		fmt.Printf("==== %s (scale %s) ====\n", id, *scaleName)
		exec := func() error { return run(r, id) }
		if rr != nil {
			exec = func() error { return rr.run(id) }
		}
		if err := exec(); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "mamabench: interrupted")
			} else {
				fmt.Fprintf(os.Stderr, "mamabench: %s: %v\n", id, err)
			}
			dumpMetrics() // os.Exit skips deferred calls
			stopProf()
			os.Exit(1)
		}
		fmt.Println()
	}
}

// emit prints a report and, with -svg/-json, writes its graphical and
// machine-readable forms.
func emit(id string, rep fmt.Stringer) {
	fmt.Print(rep)
	if svgDir != "" {
		if sv, ok := rep.(interface{ SVG() string }); ok {
			path := filepath.Join(svgDir, id+".svg")
			if err := os.WriteFile(path, []byte(sv.SVG()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "mamabench: svg:", err)
			} else {
				fmt.Printf("(wrote %s)\n", path)
			}
		}
	}
	if jsonDir != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mamabench: json:", err)
			return
		}
		path := filepath.Join(jsonDir, id+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mamabench: json:", err)
			return
		}
		fmt.Printf("(wrote %s)\n", path)
	}
}

func run(r *experiment.Runner, id string) error {
	switch id {
	case "tab1":
		printTable1()
	case "tab2":
		printTable2()
	case "tab3":
		printTable3()
	case "overheads":
		printOverheads()
	case "fig1":
		fmt.Print(experiment.PlayGame(4000, 11))
	case "fig2":
		rep, err := r.FigTimeline("bandit")
		if err != nil {
			return err
		}
		emit("fig2", rep)
	case "fig3":
		rep, err := r.Fig3PrefetchScaling([]int{1, 4, 8})
		if err != nil {
			return err
		}
		emit("fig3", rep)
	case "fig4":
		rep, err := r.FigTimeline("bandit-shared")
		if err != nil {
			return err
		}
		emit("fig4", rep)
	case "fig9":
		rep, err := r.Fig9Throughput([]int{1, 4, 8})
		if err != nil {
			return err
		}
		emit("fig9", rep)
	case "fig10":
		for _, c := range []int{4, 8} {
			for _, hs := range []bool{false, true} {
				key := "mumama"
				if hs {
					key = "mumama-fair"
				}
				rep, err := r.FigPerWorkload(c, key, hs)
				if err != nil {
					return err
				}
				emit(fmt.Sprintf("fig10-%s-%dC", rep.MetricName, c), rep)
			}
		}
	case "fig11":
		drams := []sim.Config{}
		for _, d := range []dram.Config{dram.DDR4(1866, 1), dram.DDR4(2400, 1), dram.DDR4(1866, 2), dram.DDR4(2400, 2)} {
			cfg := sim.DefaultConfig(4)
			cfg.DRAM = d
			drams = append(drams, cfg)
		}
		rep, err := r.Fig11Bandwidth([]int{4, 8}, drams)
		if err != nil {
			return err
		}
		emit("fig11", rep)
	case "fig12":
		rep, err := r.FigTimeline("mumama")
		if err != nil {
			return err
		}
		emit("fig12", rep)
	case "fig13":
		rep, err := r.Fig13Fairness([]int{4, 8})
		if err != nil {
			return err
		}
		emit("fig13", rep)
	case "fig14":
		rep, err := r.Fig14Frontier(4)
		if err != nil {
			return err
		}
		emit("fig14", rep)
	case "fig15a":
		rep, err := r.Fig15aAblation(8)
		if err != nil {
			return err
		}
		emit("fig15a", rep)
	case "fig15b":
		rep, err := r.Fig15bJAVSweep(4, []int{1, 2, 4, 8, 16})
		if err != nil {
			return err
		}
		emit("fig15b", rep)
	case "fig16":
		rep, err := r.FigPerWorkload(8, "mumama-profiled", false)
		if err != nil {
			return err
		}
		emit("fig16", rep)
	case "sec63":
		rep, err := r.Fig63Characteristics(4, 2.5)
		if err != nil {
			return err
		}
		fmt.Print(rep)
	case "tournament":
		spec, err := buildTournamentSpec(r.Scale, curScaleName)
		if err != nil {
			return err
		}
		ctx := r.BaseCtx
		if ctx == nil {
			ctx = context.Background()
		}
		rep, err := tournament.Run(ctx, r, spec)
		if err != nil {
			return err
		}
		emit("tournament", rep)
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}

func printTable1() {
	mm := core.DefaultMuMamaConfig()
	bb := core.DefaultBanditConfig()
	fmt.Println("Table 1: prefetcher parameters")
	fmt.Printf("  Bandit: c=%g gamma=%g step=%d accesses; 64-entry stride/streamer\n", bb.C, bb.Gamma, bb.Step)
	fmt.Printf("  µMama: step=%d theta_global=1-1.4/n k_step=%d\n", mm.Step, mm.KStep)
	fmt.Printf("    local agents: c=%g gamma=%g\n", mm.LocalC, mm.LocalGamma)
	fmt.Printf("    arbiter: c=%g gamma=%g T_arbit=%d\n", mm.ArbiterC, mm.ArbiterGamma, mm.TArbit)
	fmt.Printf("    JAV cache: %d entries, gamma=%g (selection LCB=%g, a scaled-step stabilizer)\n",
		mm.JAVSize, mm.JAVGamma, mm.JAVLCB)
}

func printTable2() {
	fmt.Println("Table 2: Bandit arms")
	fmt.Printf("%-6s %-9s %-12s %-12s\n", "arm", "next-line", "stride deg", "streamer deg")
	for i, a := range prefetch.Arms {
		nl := "no"
		if a.NextLine {
			nl = "yes"
		}
		fmt.Printf("%-6d %-9s %-12d %-12d\n", i, nl, a.StrideDeg, a.StreamDeg)
	}
}

func printTable3() {
	cfg := sim.DefaultConfig(8)
	fmt.Println("Table 3: default system configuration")
	fmt.Printf("  CPU: %d cores, 4 GHz, commit width %d, ROB %d, MLP %d\n",
		cfg.Cores, cfg.CommitWidth, cfg.ROB, cfg.MLP)
	fmt.Printf("  L1D: %d KB (%dx%d), %d-cycle hit, ip_stride prefetcher\n",
		cfg.L1D.SizeBytes()>>10, cfg.L1D.Sets, cfg.L1D.Ways, cfg.L1D.HitLatency)
	fmt.Printf("  L2:  %d KB (%dx%d), %d-cycle hit, experiment-specific prefetcher\n",
		cfg.L2.SizeBytes()>>10, cfg.L2.Sets, cfg.L2.Ways, cfg.L2.HitLatency)
	fmt.Printf("  LLC: %d KB shared (%dx%d), %d-cycle hit\n",
		cfg.LLC.SizeBytes()>>10, cfg.LLC.Sets, cfg.LLC.Ways, cfg.LLC.HitLatency)
	fmt.Printf("  DRAM: %s, %.1f GB/s peak\n", cfg.DRAM.Name, cfg.DRAM.PeakGBps())
}

func printOverheads() {
	fmt.Println("µMama design overheads (§4.4)")
	for _, o := range []core.Overheads{
		core.ComputeOverheads(8, 2, 150_000),
		core.ComputeOverheads(40, 64, 150_000),
	} {
		fmt.Printf("  %d cores, %d-entry JAV: aField %d bits, storage %d bits (%d bytes); "+
			"%d B/agent/step (%d B critical path); %.1f MB/s total at %d-cycle steps\n",
			o.Cores, o.JAVEntries, o.AFieldBits, o.JAVBits, o.JAVBytes,
			o.PerStepBytes, o.CriticalBytes, o.TotalDataRateMBs, o.TimestepCycles)
	}
}
