// Command tournamentsmoke is the `make tournament-smoke` gate: the
// controller tournament driven end to end in one process, in seconds.
//
// It asserts, in order:
//  1. A tiny tournament (3 controllers × 2 mixes × 1 seed) submitted as
//     a sweep to an in-process mamaserved produces a complete
//     leaderboard, and aggregating the same cell results twice yields
//     the identical ranking (deterministic leaderboard).
//  2. A restart over the same cache dir followed by a warm resubmission
//     of the same cells completes with zero new simulations, and its
//     leaderboard matches the cold one.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"micromama/internal/client"
	"micromama/internal/experiment"
	"micromama/internal/server"
	"micromama/internal/sweep"
	"micromama/internal/tournament"
)

// The 3×2×1 tournament: a per-core family (phase-select), a cross-core
// family (coord-rl), and the paper's bandit as the incumbent, over the
// tiny scale's two 2-core mixes at a 60k-instruction budget.
var spec = tournament.Spec{
	Controllers: []string{"bandit", "phase-select", "coord-rl"},
	CoreCounts:  []int{2},
	Seeds:       1,
}

const (
	scaleName = "tiny"
	target    = 60_000
)

// checkReport asserts the leaderboard is complete: every controller
// present, ranked, with the full cell count aggregated.
func checkReport(rep *tournament.Report) error {
	if len(rep.Rows) != len(spec.Controllers) {
		return fmt.Errorf("leaderboard has %d rows, want %d", len(rep.Rows), len(spec.Controllers))
	}
	cellsPer := experiment.ScaleTiny.MixCount * len(spec.CoreCounts) * spec.Seeds
	for _, row := range rep.Rows {
		if row.Cells != cellsPer {
			return fmt.Errorf("%s aggregated %d cells, want %d", row.Controller, row.Cells, cellsPer)
		}
		if row.MeanWS <= 0 {
			return fmt.Errorf("%s mean WS = %g", row.Controller, row.MeanWS)
		}
	}
	return nil
}

func run() error {
	cells, err := spec.Cells(scaleName, target, 0)
	if err != nil {
		return err
	}
	sweepSpec := sweep.Spec{Name: "tournament-smoke", Cells: cells}

	dir, err := os.MkdirTemp("", "tournamentsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Phase 1: cold tournament on a fresh server.
	srv1, err := server.New(server.Config{Workers: 2, QueueDepth: 16, CacheDir: dir})
	if err != nil {
		return fmt.Errorf("server 1: %w", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL, client.Options{Timeout: 2 * time.Minute})

	results, final, err := c1.RunSweep(ctx, sweepSpec)
	if err != nil {
		return fmt.Errorf("cold tournament: %w", err)
	}
	rep := spec.Aggregate(cells, results)
	if err := checkReport(rep); err != nil {
		return fmt.Errorf("cold leaderboard: %w", err)
	}
	// Deterministic leaderboard: aggregating the same cells again must
	// reproduce the identical report (ranking, metrics, win matrix).
	if again := spec.Aggregate(cells, results); again.String() != rep.String() {
		return fmt.Errorf("aggregation not deterministic:\n%s\nvs\n%s", rep, again)
	}
	fmt.Printf("tournament-smoke: cold tournament done (%d cells, winner %s)\n",
		final.Done+final.Deduped, rep.Rows[0].Controller)

	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	// Phase 2: restart over the same cache dir; the same tournament
	// under a new sweep name must be answered wholesale from the warm
	// cache with zero new simulations.
	srv2, err := server.New(server.Config{Workers: 2, QueueDepth: 16, CacheDir: dir})
	if err != nil {
		return fmt.Errorf("server 2: %w", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL, client.Options{Timeout: 2 * time.Minute})

	warmSpec := sweepSpec
	warmSpec.Name += "-warm"
	warmResults, warmFinal, err := c2.RunSweep(ctx, warmSpec)
	if err != nil {
		return fmt.Errorf("warm tournament: %w", err)
	}
	if warmFinal.Deduped != len(cells) {
		return fmt.Errorf("warm tournament deduped %d of %d cells", warmFinal.Deduped, len(cells))
	}
	resp, err := c2.Get(ctx, "/v1/stats")
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var st struct {
		Simulations uint64 `json:"simulations"`
	}
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return fmt.Errorf("decode stats: %w", err)
	}
	if st.Simulations != 0 {
		return fmt.Errorf("restarted server ran %d simulations for a warm tournament, want 0", st.Simulations)
	}
	warmRep := spec.Aggregate(cells, warmResults)
	if warmRep.String() != rep.String() {
		return fmt.Errorf("warm leaderboard diverged from cold:\n%s\nvs\n%s", rep, warmRep)
	}
	fmt.Printf("tournament-smoke: warm tournament answered from cache (%d cells, 0 simulations)\n",
		warmFinal.Deduped)
	fmt.Print(rep)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tournament-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("tournament-smoke: PASS")
}
