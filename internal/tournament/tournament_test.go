package tournament

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"micromama/internal/experiment"
)

func tinySpec() Spec {
	return Spec{
		Controllers: []string{"no", "bandit", "phase-select"},
		CoreCounts:  []int{2},
		Seeds:       1,
		ScaleName:   "tiny",
		Scale:       experiment.ScaleTiny,
	}
}

func TestCellsDeterministicAndOrdered(t *testing.T) {
	s := tinySpec()
	cells1, metas1, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cells2, metas2, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells1, cells2) || !reflect.DeepEqual(metas1, metas2) {
		t.Fatal("expansion not deterministic")
	}
	wantCells := len(s.Controllers) * s.Scale.MixCount
	if len(cells1) != wantCells {
		t.Fatalf("expanded %d cells, want %d", len(cells1), wantCells)
	}
	// Every controller must race the same arenas.
	arenas := map[string]map[string]bool{}
	for _, m := range metas1 {
		if arenas[m.Group()] == nil {
			arenas[m.Group()] = map[string]bool{}
		}
		arenas[m.Group()][m.Controller] = true
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
	_, _, err := s.Cells()
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
	if !strings.Contains(err.Error(), "phase-select") || !strings.Contains(err.Error(), "coord-rl") {
		t.Errorf("error does not name the known set: %v", err)
	}
}

func TestAggregateRanksAndPairwise(t *testing.T) {
	s := tinySpec()
	_, metas, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic results: "bandit" always best, "no" always worst.
	score := map[string]float64{"no": 1.0, "phase-select": 1.2, "bandit": 1.5}
	results := map[int]CellResult{}
	for i, m := range metas {
		ws := score[m.Controller]
		results[i] = CellResult{WS: ws, HS: ws * 0.9, GM: ws * 0.95, Unfairness: 1.1}
	}
	rep := s.Aggregate(metas, results)
	wantOrder := []string{"bandit", "phase-select", "no"}
	for i, w := range wantOrder {
		if rep.Rows[i].Controller != w {
			t.Fatalf("rank %d = %q, want %q", i+1, rep.Rows[i].Controller, w)
		}
		if rep.Rows[i].Rank != i+1 {
			t.Errorf("row %d Rank = %d", i, rep.Rows[i].Rank)
		}
	}
	arenaCount := s.Scale.MixCount // one arena per mix here
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
	s := tinySpec()
	_, metas, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	results := map[int]CellResult{}
	for i := range metas {
		results[i] = CellResult{WS: 1.0}
	}
	rep := s.Aggregate(metas, results)
	arenaCount := s.Scale.MixCount
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
// twice end to end and demands the identical report — the acceptance
// criterion "same cells → same ranking across two runs".
func TestLocalRunDeterministicLeaderboard(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	spec := Spec{
		Controllers: []string{"no", "bandit"},
		CoreCounts:  []int{2},
		Seeds:       1,
		ScaleName:   "tiny",
		Scale:       experiment.Scale{Target: 120_000, MaxCyclesFactor: 12, MixCount: 1, Seed: 7, Step: 150},
	}
	run := func() *Report {
		r := experiment.NewRunner(spec.Scale)
		rep, err := Run(context.Background(), r, spec)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("tournament not deterministic:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	for _, row := range a.Rows {
		if row.Cells != 1 {
			t.Errorf("%s aggregated %d cells, want 1", row.Controller, row.Cells)
		}
		if row.MeanWS <= 0 {
			t.Errorf("%s mean WS = %g", row.Controller, row.MeanWS)
		}
	}
}
