package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"micromama/internal/client"
	"micromama/internal/experiment"
	"micromama/internal/server"
	"micromama/internal/sweep"
	"micromama/internal/tournament"
)

// Every cell figure at the tiny scale with a 60k-instruction budget.
const (
	testScale  = "tiny"
	testTarget = 60_000
)

// newDriver is main's driver at the test budget; remote is nil for the
// in-process path.
func newDriver(remote *client.Client) *driver {
	scale := experiment.ScaleTiny
	scale.Target = testTarget
	return &driver{ctx: context.Background(), r: experiment.NewRunner(scale), remote: remote, scaleName: testScale}
}

// draw runs fig through the driver's executor under the given sweep
// name and returns the report's JSON. fig9's two §6.1 maps are cleared
// first: they are read from the full simulator result, which only the
// in-process path has.
func draw(t *testing.T, d *driver, fig experiment.Figure, sweepName string) []byte {
	t.Helper()
	rep, err := fig.Run(d.ctx, d.executor(sweepName), testScale, testTarget, 0)
	if err != nil {
		t.Fatalf("%s: %v", fig.ID, err)
	}
	if th, ok := rep.(*experiment.ThroughputReport); ok {
		th.PrefetchReduction, th.MoreAggressive = map[int]float64{}, map[int]float64{}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("%s: %v", fig.ID, err)
	}
	return data
}

// TestFiguresLocalEqualsRemote: a cell figure is the same report —
// byte for byte in its JSON form — whether its cells ran on the
// in-process Runner or as a sweep on a mamaserved, cold or warm; a warm
// pass simulates nothing; and one bad cell fails the whole figure on
// both paths.
func TestFiguresLocalEqualsRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	srv, err := server.New(server.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	local := newDriver(nil)
	remote := newDriver(client.New(ts.URL, client.Options{}))

	figs := append([]experiment.Figure{}, experiment.Figures...)
	figs = append(figs, tournament.Spec{
		Controllers: []string{"bandit", "mumama", "pythia"}, CoreCounts: []int{4}, Seeds: 1,
	}.Figure())

	for _, fig := range figs {
		want := draw(t, local, fig, "")
		if got := draw(t, remote, fig, fig.ID+"-cold"); string(got) != string(want) {
			t.Errorf("%s: remote report differs from local\nlocal  %s\nremote %s", fig.ID, want, got)
		}
	}

	// The same figures under new sweep names: every cell answered from
	// the result cache, nothing simulated, reports unchanged.
	for _, fig := range figs {
		cells, err := fig.Cells(testScale, testTarget, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		got := draw(t, remote, fig, fig.ID+"-warm")
		after := srv.Stats()
		if deduped := after.Sweeps.CellsDeduped - before.Sweeps.CellsDeduped; deduped != uint64(len(cells)) {
			t.Errorf("%s warm: %d of %d cells deduped", fig.ID, deduped, len(cells))
		}
		if after.Simulations != before.Simulations {
			t.Errorf("%s warm: simulations %d -> %d", fig.ID, before.Simulations, after.Simulations)
		}
		if want := draw(t, local, fig, ""); string(got) != string(want) {
			t.Errorf("%s: warm remote report differs from local", fig.ID)
		}
	}

	// One cell with an unknown controller fails the figure on both paths.
	good := experiment.FiguresByID("fig14")[0]
	bad := good
	bad.Cells = func(scale string, target, step uint64) ([]sweep.Cell, error) {
		cells, err := good.Cells(scale, target, step)
		if err == nil {
			cells[len(cells)-1].Controller = "mumamma"
		}
		return cells, err
	}
	for name, d := range map[string]*driver{"local": local, "remote": remote} {
		if rep, err := bad.Run(d.ctx, d.executor("fig14-bad"), testScale, testTarget, 0); err == nil {
			t.Errorf("%s: a figure with an unknown controller drew %v", name, rep)
		}
	}
}

// TestRunUnknownID: an id that is no table, probe, figure or tournament
// is an error, not a silent no-op.
func TestRunUnknownID(t *testing.T) {
	if err := newDriver(nil).run("fig99"); err == nil {
		t.Error("unknown experiment id accepted")
	}
	if len(experiment.FiguresByID("fig1")) != 0 {
		t.Error(`"fig1" is a table, but matched registry figures (fig10…fig16 must not prefix-match it)`)
	}
}

// TestControllersAllIsTheRegistry: "-controllers all" races every
// registry key — mumama-profiled too, whose profile the Runner (or the
// server's) measures itself.
func TestControllersAllIsTheRegistry(t *testing.T) {
	tournamentCtrls, tournamentCores, tournamentSeeds = "all", "4", 1
	spec, err := buildTournamentSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Controllers, experiment.ControllerKeys) || !slices.Contains(spec.Controllers, "mumama-profiled") {
		t.Errorf("all = %v, want %v", spec.Controllers, experiment.ControllerKeys)
	}
}

// TestEveryControllerKeyIsUsed: a registry key no figure cell at tiny,
// timeline probe or default tournament runs is a controller nothing
// reproduces; it earns a use or leaves the registry.
func TestEveryControllerKeyIsUsed(t *testing.T) {
	used := map[string]bool{}
	mark := func(key string) { name, _, _ := strings.Cut(key, "@"); used[name] = true }
	for _, f := range experiment.Figures {
		cells, err := f.Cells("tiny", 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		for _, c := range cells {
			mark(c.Controller)
		}
	}
	for _, key := range timelines {
		mark(key)
	}
	for _, key := range strings.Split(defaultTournamentControllers, ",") {
		mark(key)
	}
	for _, key := range experiment.ControllerKeys {
		if !used[key] {
			t.Errorf("controller %q is in no figure cell at tiny, timeline probe or default tournament", key)
		}
	}
}
