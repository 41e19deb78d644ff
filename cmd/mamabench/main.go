// Command mamabench regenerates the paper's tables and figures (see the
// experiment index in DESIGN.md).
//
// Usage:
//
//	mamabench -scale small fig9 fig13
//	mamabench -scale default all
//	mamabench tab2 overheads fig1
//	mamabench -server http://localhost:8077 all
//
// Experiment ids: tab1 tab2 tab3 fig1 fig2 fig3 fig4 fig9 fig10 fig11
// fig12 fig13 fig14 fig15a fig15b fig16 overheads sec63 abl-theta
// abl-tarbit abl-lcb abl-kstep tournament, or "all" (everything but the
// tournament).
//
// fig9, fig10, fig11, fig13, fig14, fig15a, fig15b, fig16, sec63, the
// four abl-* parameter ablations and tournament are cell figures
// (experiment.Figures): sweep cells in, a reducer out. With -server
// their cells run as one server-side sweep each (see internal/sweep)
// instead of in this process — the same cells either way, so a warm
// server answers a repeated figure without re-simulating, and the report
// is the same. The other ids run locally under -server too: tab1–tab3,
// overheads and fig1 simulate nothing, and fig2/fig4/fig12 and fig3 are
// probes of state no job result carries (a policy timeline, a chosen arm
// degree).
//
// A controller key is name[@param=value[@param=value…]]: fig15b's arms
// are mumama@jav=1 … mumama@jav=16 (mamasim -controllers lists each
// controller's parameters).
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
	"micromama/internal/experiment"
	"micromama/internal/prefetch"
	"micromama/internal/profiling"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
	"micromama/internal/tournament"
)

var (
	svgDir  string
	jsonDir string

	// Tournament knobs (the "tournament" experiment id).
	tournamentCtrls string
	tournamentCores string
	tournamentSeeds int
)

// defaultTournamentControllers races one representative of every
// coordination family; "all" expands to every registry key.
const defaultTournamentControllers = "no,ip_stride,bingo,pythia,spp,bandit,mumama,phase-select,coord-rl"

// buildTournamentSpec resolves the tournament flags into a spec.
func buildTournamentSpec() (tournament.Spec, error) {
	ctrls := tournamentCtrls
	if ctrls == "all" {
		ctrls = strings.Join(experiment.ControllerKeys, ",")
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
	}
	for i := range spec.Controllers {
		spec.Controllers[i] = strings.TrimSpace(spec.Controllers[i])
	}
	return spec, spec.Validate()
}

func main() {
	scaleName := flag.String("scale", "small", strings.Join(experiment.ScaleNames(), " | "))
	flag.StringVar(&svgDir, "svg", "", "also write figures as SVG files into this directory")
	flag.StringVar(&jsonDir, "json", "", "also write report data as JSON files into this directory")
	server := flag.String("server", "", "run the cells of every cell figure (fig9 fig10 fig11 fig13 fig14 fig15a fig15b fig16 sec63 abl-* tournament) as sweeps against this mamaserved URL; other ids still run locally")
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

	scale, err := experiment.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamabench:", err)
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
			"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "fig16", "sec63",
			"abl-theta", "abl-tarbit", "abl-lcb", "abl-kstep"}
	}

	// Ctrl-C cancels in-flight simulations at their next epoch boundary
	// instead of killing the process mid-report (and still flushes any
	// requested profiles).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	d := &driver{ctx: ctx, r: experiment.NewRunner(scale), scaleName: *scaleName}
	if *server != "" {
		d.remote = client.New(*server, client.Options{})
	}
	for _, id := range ids {
		fmt.Printf("==== %s (scale %s) ====\n", id, *scaleName)
		if err := d.run(id); err != nil {
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

// driver runs experiment ids: cell figures through one Executor — the
// local Runner's, or with -server a sweep client's — and everything
// else in this process.
type driver struct {
	ctx       context.Context
	r         *experiment.Runner
	remote    *client.Client // nil without -server
	scaleName string
}

// tables are the ids that print configuration and simulate nothing.
var tables = map[string]func(){
	"tab1":      printTable1,
	"tab2":      printTable2,
	"tab3":      printTable3,
	"overheads": printOverheads,
	"fig1":      func() { fmt.Print(experiment.PlayGame(4000, 11)) },
}

// timelines maps each policy-timeline probe to the controller it traces.
var timelines = map[string]string{"fig2": "bandit", "fig4": "bandit-shared", "fig12": "mumama"}

// probes are the simulating ids that cannot be cells (see
// experiment.Figures): they always run on the local Runner.
var probes = func() map[string]probe {
	p := map[string]probe{
		"fig3": func(ctx context.Context, r *experiment.Runner) (fmt.Stringer, error) {
			return r.Fig3PrefetchScaling(ctx, []int{1, 4, 8})
		},
	}
	for id, key := range timelines {
		p[id] = func(ctx context.Context, r *experiment.Runner) (fmt.Stringer, error) { return r.FigTimeline(ctx, key) }
	}
	return p
}()

type probe func(context.Context, *experiment.Runner) (fmt.Stringer, error)

// executor is the seam a figure's cells go through: the Runner's worker
// pool, or one named sweep on the server.
func (d *driver) executor(sweepName string) experiment.Executor {
	if d.remote == nil {
		return d.r.RunCells
	}
	return func(ctx context.Context, cells []sweep.Cell) ([]experiment.CellResult, error) {
		results, view, err := d.remote.RunSweep(ctx, sweep.Spec{Name: sweepName, Cells: cells})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "mamabench: sweep %s: %d cells (%d answered without simulating)\n",
			view.ID, view.Cells, view.Deduped)
		return results, nil
	}
}

func (d *driver) run(id string) error {
	if table, ok := tables[id]; ok {
		table()
		return nil
	}
	if probe, ok := probes[id]; ok {
		if d.remote != nil {
			fmt.Fprintf(os.Stderr, "mamabench: %s is a local probe, not a cell figure; running it in this process despite -server\n", id)
		}
		rep, err := probe(d.ctx, d.r)
		if err != nil {
			return err
		}
		emit(id, rep)
		return nil
	}
	figs := experiment.FiguresByID(id)
	if id == "tournament" {
		spec, err := buildTournamentSpec()
		if err != nil {
			return err
		}
		figs = []experiment.Figure{spec.Figure()}
	}
	if len(figs) == 0 {
		return fmt.Errorf("unknown experiment id %q", id)
	}
	for _, fig := range figs {
		rep, err := fig.Run(d.ctx, d.executor(fig.ID+"-"+d.scaleName), d.scaleName, 0, 0)
		if err != nil {
			return err
		}
		emit(fig.ID, rep)
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
