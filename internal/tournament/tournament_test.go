package tournament

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

func tinySpec() Spec {
	return Spec{
		Controllers: []string{"no", "bandit", "phase-select"},
		CoreCounts:  []int{2},
		Seeds:       1,
	}
}

// tinyCells expands tinySpec at the tiny scale.
func tinyCells(t *testing.T) []sweep.Cell {
	t.Helper()
	cells, err := tinySpec().Cells("tiny", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestCellsDeterministicAndOrdered(t *testing.T) {
	s := tinySpec()
	cells1, cells2 := tinyCells(t), tinyCells(t)
	if !reflect.DeepEqual(cells1, cells2) {
		t.Fatal("expansion not deterministic")
	}
	wantCells := len(s.Controllers) * experiment.ScaleTiny.MixCount
	if len(cells1) != wantCells {
		t.Fatalf("expanded %d cells, want %d", len(cells1), wantCells)
	}
	// Every controller must race the same arenas.
	arenas := map[string]map[string]bool{}
	for _, c := range cells1 {
		if arenas[arena(c)] == nil {
			arenas[arena(c)] = map[string]bool{}
		}
		arenas[arena(c)][c.Controller] = true
	}
	for g, ctrls := range arenas {
		if len(ctrls) != len(s.Controllers) {
			t.Errorf("arena %s raced by %d controllers, want %d", g, len(ctrls), len(s.Controllers))
		}
	}
}

func TestValidateRejectsUnknownController(t *testing.T) {
	s := tinySpec()
	s.Controllers = append(s.Controllers, "phase-selekt")
	_, err := s.Cells("tiny", 0, 0)
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
	if !strings.Contains(err.Error(), "phase-select") || !strings.Contains(err.Error(), "coord-rl") {
		t.Errorf("error does not name the known set: %v", err)
	}
}

func TestAggregateRanksAndPairwise(t *testing.T) {
	s := tinySpec()
	cells := tinyCells(t)
	// Synthetic results: "bandit" always best, "no" always worst.
	score := map[string]float64{"no": 1.0, "phase-select": 1.2, "bandit": 1.5}
	results := make([]experiment.CellResult, len(cells))
	for i, c := range cells {
		ws := score[c.Controller]
		results[i] = experiment.CellResult{WS: ws, HS: ws * 0.9, GM: ws * 0.95, Unfairness: 1.1}
	}
	rep := s.Aggregate(cells, results)
	wantOrder := []string{"bandit", "phase-select", "no"}
	for i, w := range wantOrder {
		if rep.Rows[i].Controller != w {
			t.Fatalf("rank %d = %q, want %q", i+1, rep.Rows[i].Controller, w)
		}
		if rep.Rows[i].Rank != i+1 {
			t.Errorf("row %d Rank = %d", i, rep.Rows[i].Rank)
		}
	}
	arenaCount := experiment.ScaleTiny.MixCount // one arena per mix here
	top := rep.Rows[0]
	if top.Wins != 2*arenaCount || top.Losses != 0 {
		t.Errorf("top W-L = %d-%d, want %d-0", top.Wins, top.Losses, 2*arenaCount)
	}
	bottom := rep.Rows[len(rep.Rows)-1]
	if bottom.Wins != 0 || bottom.Losses != 2*arenaCount {
		t.Errorf("bottom W-L = %d-%d, want 0-%d", bottom.Wins, bottom.Losses, 2*arenaCount)
	}
	if rep.Wins[0][2] != arenaCount || rep.Wins[2][0] != 0 {
		t.Errorf("pairwise matrix wrong: %v", rep.Wins)
	}
	// The renderings must not be empty.
	if !strings.Contains(rep.String(), "Pairwise wins") {
		t.Error("String() missing win matrix")
	}
	if !strings.Contains(rep.SVG(), "<svg") {
		t.Error("SVG() empty")
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Errorf("report not JSON-serializable: %v", err)
	}
}

func TestAggregateTies(t *testing.T) {
	cells := tinyCells(t)
	results := make([]experiment.CellResult, len(cells))
	for i := range results {
		results[i].WS = 1.0
	}
	rep := tinySpec().Aggregate(cells, results)
	arenaCount := experiment.ScaleTiny.MixCount
	for _, row := range rep.Rows {
		if row.Wins != 0 || row.Losses != 0 {
			t.Errorf("%s W-L = %d-%d on all-equal results", row.Controller, row.Wins, row.Losses)
		}
		if row.Ties != 2*arenaCount {
			t.Errorf("%s ties = %d, want %d", row.Controller, row.Ties, 2*arenaCount)
		}
	}
}

// TestLocalRunDeterministicLeaderboard runs a microscopic tournament
// twice end to end, each time on a fresh Runner's RunCells, and demands
// the identical report — the acceptance criterion "same cells → same
// ranking across two runs".
func TestLocalRunDeterministicLeaderboard(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	spec := Spec{Controllers: []string{"no", "bandit"}, CoreCounts: []int{2}, Seeds: 1}
	scale := experiment.ScaleTiny
	scale.Target = 120_000
	run := func() *Report {
		rep, err := spec.Figure().Run(context.Background(), experiment.NewRunner(scale).RunCells, "tiny", scale.Target, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.(*Report)
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("tournament not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	for _, row := range a.Rows {
		if row.Cells != scale.MixCount {
			t.Errorf("%s aggregated %d cells, want %d", row.Controller, row.Cells, scale.MixCount)
		}
		if row.MeanWS <= 0 {
			t.Errorf("%s mean WS = %g", row.Controller, row.MeanWS)
		}
	}
}
