package server

import (
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// The key table's cell index answers a cell a sweep admitted before by
// its spelling, without checking or hashing it again. These tests hold
// it to the path it replaces: every key it answers is the key the cell
// gets from scratch, and a cell refused from scratch is refused every
// time and never enters it.

// freshKey is c's job key from nothing remembered: the core limit,
// experiment.CheckCell, the system's canonical encoding built anew and
// appendJobKey.
func freshKey(c sweep.Cell, maxCores int) (string, error) {
	if len(c.Mix) > maxCores {
		return "", fmt.Errorf("mix has %d traces; server accepts at most %d cores", len(c.Mix), maxCores)
	}
	scale, err := experiment.CheckCell(&c)
	if err != nil {
		return "", err
	}
	var configs configMemo
	tail, err := configs.resolve(len(c.Mix), c.DRAMMTps, c.DRAMChannels)
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(appendJobKey(nil, &c, tail, scale, experiment.ModelEpoch)), nil
}

// admit interns cells as sweep admission does and returns each one's key.
func admit(srv *Server, cells []sweep.Cell) ([]string, error) {
	hs, err := sweepExec{srv}.Intern(len(cells), func(i int) sweep.Cell { return cells[i] })
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(hs))
	for i, h := range hs {
		keys[i], _ = srv.cache.entry(h)
	}
	return keys, nil
}

// indexed reports whether the cell index holds c's spelling.
func indexed(srv *Server, c sweep.Cell) bool {
	srv.cache.mu.RLock()
	defer srv.cache.mu.RUnlock()
	_, ok := srv.cache.cells[string(sweep.AppendCell(nil, c))]
	return ok
}

// warmGridCells lays out sweep_warm's grid: four single-trace mixes ×
// four controllers × 32 seeds at a 20 000-instruction target.
func warmGridCells(t testing.TB) []sweep.Cell {
	t.Helper()
	spec := sweep.Spec{Grid: warmBenchGrid()}
	cells, err := spec.Expand(0)
	if err != nil || len(cells) != 512 {
		t.Fatalf("warm grid: %d cells, %v", len(cells), err)
	}
	return cells
}

func TestCellIndexMatchesFreshKey(t *testing.T) {
	const maxCores = 4
	srv := mustNew(t, Config{Workers: 1, MaxCores: maxCores})
	defer srv.Close()

	single := func(scale, ctrl string) sweep.Cell {
		return sweep.Cell{Mix: []string{"spec06.mcf"}, Controller: ctrl, Scale: scale, Seed: 3, Target: 20_000}
	}
	// Respellings side by side: each pair is one cell spelled two ways.
	respelled := [][2]sweep.Cell{
		{single("", "mumama"), single("default", "mumama")},
		{single("tiny", "mumama@jav=04"), single("tiny", "mumama@jav=4")},
		{single("tiny", "mumama@jav=2"), single("tiny", "mumama")},
		{single(" Tiny", " bandit"), single("tiny", "bandit")},
		{{Mix: []string{" ligra.BFS"}, Controller: "no", Scale: "tiny", DRAMMTps: 3200, DRAMChannels: 2},
			{Mix: []string{"ligra.BFS"}, Controller: "no", Scale: "tiny", DRAMMTps: 3200, DRAMChannels: 2}},
	}
	cells := warmGridCells(t)
	for _, pair := range respelled {
		cells = append(cells, pair[0], pair[1])
	}
	cells = append(cells, sweep.Cell{
		Mix:        []string{"spec06.libquantum", "spec06.mcf", "spec06.sphinx3", "ligra.BFS"},
		Controller: "mumama@jav=4", Scale: "tiny", Seed: 9,
	})

	want := make([]string, len(cells))
	for i, c := range cells {
		var err error
		if want[i], err = freshKey(c, maxCores); err != nil {
			t.Fatalf("cell %d (%+v) does not key: %v", i, c, err)
		}
	}
	for pass := 1; pass <= 3; pass++ {
		keys, err := admit(srv, cells)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i, key := range keys {
			if key != want[i] {
				t.Fatalf("pass %d: cell %d (%+v) is keyed %s, from scratch %s", pass, i, cells[i], key, want[i])
			}
			if !indexed(srv, cells[i]) {
				t.Fatalf("pass %d: cell %d (%+v) is not in the cell index", pass, i, cells[i])
			}
		}
	}
	base := len(cells) - 1 - 2*len(respelled)
	for k := range respelled {
		if want[base+2*k] != want[base+2*k+1] {
			t.Errorf("respelling %d keys apart: %s / %s", k, want[base+2*k], want[base+2*k+1])
		}
	}
	distinct := map[string]bool{}
	for _, key := range want {
		distinct[key] = true
	}
	if got := tableSize(srv); got != len(distinct) {
		t.Errorf("the key table holds %d keys for %d distinct cells", got, len(distinct))
	}

	// A refused cell is refused on every submission, with the error the
	// fresh path gives, and takes nothing into the table or the index.
	for _, bad := range []sweep.Cell{
		{Mix: []string{"spec06.mcf", "nope.trace"}, Controller: "no", Scale: "tiny"},
		{Mix: []string{"spec06.mcf", "spec06.mcf", "spec06.mcf", "spec06.mcf", "spec06.mcf"}, Controller: "no", Scale: "tiny"},
	} {
		_, ferr := freshKey(bad, maxCores)
		if ferr == nil {
			t.Fatalf("%+v keys from scratch", bad)
		}
		before := tableSize(srv)
		for pass := 1; pass <= 3; pass++ {
			_, err := admit(srv, append(cells[:2:2], bad))
			if want := "cell 2: " + ferr.Error(); err == nil || err.Error() != want {
				t.Errorf("pass %d: %+v refused with %v, want %q", pass, bad, err, want)
			}
			if indexed(srv, bad) || tableSize(srv) != before {
				t.Errorf("pass %d: the refused %+v is indexed (%v) or grew the table %d → %d",
					pass, bad, indexed(srv, bad), before, tableSize(srv))
			}
		}
	}

	// The index's memory: one more spelling of each warm cell (its scale
	// in capitals, which normalizes away) adds an index entry and no key.
	grid := warmGridCells(t)
	for i := range grid {
		grid[i].Scale = strings.ToUpper(grid[i].Scale)
	}
	keys := tableSize(srv)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second frees what the first left in sync.Pool victim caches
	runtime.ReadMemStats(&before)
	if _, err := admit(srv, grid); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if tableSize(srv) != keys {
		t.Fatalf("respelled cells took %d new keys", tableSize(srv)-keys)
	}
	t.Logf("cell index: %.0f B per entry (%d entries added, spellings %d B each)",
		float64(after.HeapAlloc-before.HeapAlloc)/float64(len(grid)), len(grid), len(sweep.AppendCell(nil, grid[0])))

	// Sweeps of one grid admitted at once from several goroutines, each
	// finding cells the others are indexing, all get the fresh keys, and
	// the table holds each key once. Run it under -race.
	t.Run("concurrent admission", func(t *testing.T) {
		srv := mustNew(t, Config{Workers: 1})
		defer srv.Close()
		cells := warmGridCells(t)
		want := make([]string, len(cells))
		for i, c := range cells {
			var err error
			if want[i], err = freshKey(c, 16); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					keys, err := admit(srv, cells)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range keys {
						if keys[i] != want[i] {
							t.Errorf("cell %d keyed %s, from scratch %s", i, keys[i], want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if n := tableSize(srv); n != len(cells) {
			t.Errorf("the key table holds %d keys for %d cells", n, len(cells))
		}
	})
}

// A sweep whose cells are refused costs about what its request costs,
// however many cells it lays out: admission refuses at the first cell
// it cannot key, before it spells the next. Cells of one grid share the
// spec's strings, so a long name × many seeds is small as a request but
// would be that many copies of the name if every cell were spelled
// first.
func TestInternRefusesBeforeSpellingTheRest(t *testing.T) {
	const seeds = 256
	long := strings.Repeat("x", 256<<10)
	many := make([]string, 16<<10)
	for i := range many {
		many[i] = "spec06.mcf"
	}
	for _, tc := range []struct {
		name string
		grid sweep.Grid
		want string
	}{
		{"unknown trace", sweep.Grid{Mixes: [][]string{{long}}, Controllers: []string{"no"}}, "unknown trace"},
		{"too many cores", sweep.Grid{Mixes: [][]string{many}, Controllers: []string{"no"}}, "at most 16 cores"},
		{"long controller", sweep.Grid{Mixes: [][]string{{"spec06.mcf"}}, Controllers: []string{"mumama@" + long}}, "controller key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := mustNew(t, Config{Workers: 1})
			defer srv.Close()
			g := tc.grid
			for seed := uint64(1); seed <= seeds; seed++ {
				g.Seeds = append(g.Seeds, seed)
			}
			cell := len(sweep.AppendCell(nil, sweep.Cell{Mix: g.Mixes[0], Controller: g.Controllers[0], Seed: seeds}))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := srv.sweeps.Submit(context.Background(), sweep.Spec{Name: "refused", Grid: &g})
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("submit: %v, want an error naming %q", err, tc.want)
			}
			// Spelling every cell first allocates seeds × cell bytes.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(cell) {
				t.Errorf("a refused %d-cell sweep of %d-byte cells allocated %d B; want at most %d",
					seeds, cell, grew, 16*cell)
			}
			if n := tableSize(srv); n != 0 {
				t.Errorf("a refused sweep left %d keys in the table", n)
			}
			srv.cache.mu.RLock()
			n := len(srv.cache.cells)
			srv.cache.mu.RUnlock()
			if n != 0 {
				t.Errorf("a refused sweep left %d cells in the index", n)
			}
		})
	}
}
