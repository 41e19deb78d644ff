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

// tournamentSpec is the 3×2×1 tournament: a per-core family
// (phase-select), a cross-core family (coord-rl), and the paper's
// bandit as the incumbent, over two tiny 2-core mixes.
func tournamentSpec() tournament.Spec {
	scale := experiment.ScaleTiny
	scale.MixCount = 2
	return tournament.Spec{
		Controllers: []string{"bandit", "phase-select", "coord-rl"},
		CoreCounts:  []int{2},
		Seeds:       1,
		ScaleName:   "tiny",
		Scale:       scale,
		Target:      60_000,
	}
}

// runTournament submits the tournament's cells as a sweep and returns
// the streamed per-cell results.
func runTournament(ctx context.Context, c *client.Client, spec sweep.Spec, cellCount int) (map[int]tournament.CellResult, sweep.View, error) {
	v, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return nil, sweep.View{}, fmt.Errorf("submit: %w", err)
	}
	if v.Cells != cellCount {
		return nil, sweep.View{}, fmt.Errorf("sweep has %d cells, want %d", v.Cells, cellCount)
	}
	results := make(map[int]tournament.CellResult)
	final, err := c.StreamSweepResults(ctx, v.ID, func(ev sweep.Event) error {
		switch ev.Status {
		case sweep.CellDone, sweep.CellDeduped:
			var res tournament.CellResult
			if jerr := json.Unmarshal(ev.Result, &res); jerr != nil {
				return fmt.Errorf("cell %d: %w", ev.Cell, jerr)
			}
			results[ev.Cell] = res
		case sweep.CellFailed:
			return fmt.Errorf("cell %d failed: %s", ev.Cell, ev.Error)
		}
		return nil
	})
	if err != nil {
		return nil, sweep.View{}, fmt.Errorf("stream: %w", err)
	}
	if len(results) != cellCount {
		return nil, sweep.View{}, fmt.Errorf("streamed %d of %d cell results", len(results), cellCount)
	}
	return results, final, nil
}

// checkReport asserts the leaderboard is complete: every controller
// present, ranked, with the full cell count aggregated.
func checkReport(rep *tournament.Report, spec tournament.Spec) error {
	if len(rep.Rows) != len(spec.Controllers) {
		return fmt.Errorf("leaderboard has %d rows, want %d", len(rep.Rows), len(spec.Controllers))
	}
	cellsPer := spec.Scale.MixCount * len(spec.CoreCounts) * spec.Seeds
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
	spec := tournamentSpec()
	sweepSpec, metas, err := spec.SweepSpec()
	if err != nil {
		return err
	}

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

	results, final, err := runTournament(ctx, c1, sweepSpec, len(metas))
	if err != nil {
		return fmt.Errorf("cold tournament: %w", err)
	}
	rep := spec.Aggregate(metas, results)
	if err := checkReport(rep, spec); err != nil {
		return fmt.Errorf("cold leaderboard: %w", err)
	}
	// Deterministic leaderboard: aggregating the same cells again must
	// reproduce the identical report (ranking, metrics, win matrix).
	if again := spec.Aggregate(metas, results); again.String() != rep.String() {
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
	warmResults, warmFinal, err := runTournament(ctx, c2, warmSpec, len(metas))
	if err != nil {
		return fmt.Errorf("warm tournament: %w", err)
	}
	if warmFinal.Deduped != len(metas) {
		return fmt.Errorf("warm tournament deduped %d of %d cells", warmFinal.Deduped, len(metas))
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
	warmRep := spec.Aggregate(metas, warmResults)
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
