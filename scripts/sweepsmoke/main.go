// Command sweepsmoke is the `make sweep-smoke` gate: a tiny real
// sweep driven end to end against an in-process mamaserved — submit,
// fair-schedule, stream — followed by a restart over the same cache
// dir and a same-cells resubmission that must be answered entirely
// from the warm cache with zero new simulations. After the restart the
// resumed cold sweep and the warm one must stream, cell for cell, the
// keys and result bytes the cold stream carried: a stream reads each
// finished cell's key and result from the result cache, and this is
// the path that reads the cache the disk brought back. It exercises the
// whole sweep surface (expansion, dedupe, streaming, persistence)
// in a few seconds with no external processes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"micromama/internal/client"
	"micromama/internal/server"
	"micromama/internal/sweep"
)

// spec is a four-cell tiny-scale sweep (two mixes × two controllers)
// with a small instruction target so real simulations stay fast.
func spec(name string) sweep.Spec {
	return sweep.Spec{
		Name: name,
		Grid: &sweep.Grid{
			Mixes:       [][]string{{"spec06.libquantum"}, {"spec06.sphinx3"}},
			Controllers: []string{"no", "bandit"},
			Scales:      []string{"tiny"},
			Target:      60_000,
		},
	}
}

// dump reads a sweep's result stream once, follow=0, into its events by
// cell and its end line's view.
func dump(ctx context.Context, c *client.Client, id string) (map[int]sweep.Event, sweep.View, error) {
	resp, err := c.Get(ctx, "/v1/sweeps/"+id+"/results?follow=0")
	if err != nil {
		return nil, sweep.View{}, err
	}
	events := make(map[int]sweep.Event)
	for _, line := range bytes.Split(resp.Body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var l sweep.Line
		if err := sweep.ParseLine(line, &l); err != nil {
			return nil, sweep.View{}, fmt.Errorf("bad line %q: %w", line, err)
		}
		if l.End {
			if l.Sweep == nil {
				return nil, sweep.View{}, fmt.Errorf("end line without a view")
			}
			return events, *l.Sweep, nil
		}
		if _, dup := events[l.Event.Cell]; dup {
			return nil, sweep.View{}, fmt.Errorf("cell %d streamed twice", l.Event.Cell)
		}
		events[l.Event.Cell] = l.Event
	}
	return nil, sweep.View{}, fmt.Errorf("stream ended without its end line")
}

// sameAsCold requires one event per cold cell, each with the status
// want and the key and result bytes the cold stream carried.
func sameAsCold(cold, got map[int]sweep.Event, want sweep.CellStatus) error {
	if len(got) != len(cold) {
		return fmt.Errorf("%d events, want %d", len(got), len(cold))
	}
	for cell, ev := range cold {
		g := got[cell]
		if g.Status != want || g.Key != ev.Key || !bytes.Equal(g.Result, ev.Result) {
			return fmt.Errorf("cell %d: %s under key %s with result %s; the cold stream had key %s and result %s",
				cell, g.Status, g.Key, g.Result, ev.Key, ev.Result)
		}
	}
	return nil
}

func run() error {
	dir, err := os.MkdirTemp("", "sweepsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Phase 1: cold sweep on a fresh server.
	srv1, err := server.New(server.Config{Workers: 2, QueueDepth: 8, CacheDir: dir})
	if err != nil {
		return fmt.Errorf("server 1: %w", err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	c1 := client.New(ts1.URL, client.Options{Timeout: 2 * time.Minute})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	v, err := c1.SubmitSweep(ctx, spec("smoke"))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("sweep-smoke: submitted %s (%d cells)\n", v.ID, v.Cells)
	// The cold stream is the reference the later ones are held to, so
	// each of its results must be its own cell's: the result names the
	// mix and controller it simulated.
	cold := make(map[int]sweep.Event)
	final, err := c1.StreamSweepResults(ctx, v.ID, func(ev sweep.Event) error {
		if ev.Status != sweep.CellDone || len(ev.Key) != sweep.KeyLen {
			return fmt.Errorf("cold cell %d: %s under key %q", ev.Cell, ev.Status, ev.Key)
		}
		var res struct{ Mix, Controller string }
		if err := json.Unmarshal(ev.Result, &res); err != nil {
			return fmt.Errorf("cold cell %d: result %s: %w", ev.Cell, ev.Result, err)
		}
		if res.Controller != ev.Spec.Controller || !strings.HasSuffix(res.Mix, "{"+strings.Join(ev.Spec.Mix, ",")+"}") {
			return fmt.Errorf("cold cell %d (%v under %s) streamed the result of %s under %s",
				ev.Cell, ev.Spec.Mix, ev.Spec.Controller, res.Mix, res.Controller)
		}
		cold[ev.Cell] = ev
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	if final.Done != v.Cells || final.Failed != 0 || len(cold) != v.Cells {
		return fmt.Errorf("cold sweep: done %d failed %d streamed %d, want %d/0/%d",
			final.Done, final.Failed, len(cold), v.Cells, v.Cells)
	}
	fmt.Printf("sweep-smoke: cold sweep done (%d cells simulated)\n", final.Done)

	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}

	// Phase 2: restart over the same cache dir; the same cells under a
	// new sweep name must be deduped wholesale — zero simulations.
	srv2, err := server.New(server.Config{Workers: 2, QueueDepth: 8, CacheDir: dir})
	if err != nil {
		return fmt.Errorf("server 2: %w", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL, client.Options{Timeout: 2 * time.Minute})

	warm, err := c2.SubmitSweep(ctx, spec("smoke-warm"))
	if err != nil {
		return fmt.Errorf("warm submit: %w", err)
	}
	if warm.Status != "done" || warm.Deduped != v.Cells {
		return fmt.Errorf("warm sweep: status %q deduped %d, want done with all %d cells deduped",
			warm.Status, warm.Deduped, v.Cells)
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
		return fmt.Errorf("restarted server ran %d simulations for a warm sweep, want 0", st.Simulations)
	}
	fmt.Printf("sweep-smoke: warm sweep %s answered from cache (%d cells, 0 simulations)\n",
		warm.ID, warm.Deduped)

	// Both streams on the restarted server carry the cold stream's bytes.
	resumed, rv, err := dump(ctx, c2, v.ID)
	if err != nil {
		return fmt.Errorf("resumed cold stream: %w", err)
	}
	if rv.Status != "done" {
		return fmt.Errorf("resumed cold sweep: status %q, want done", rv.Status)
	}
	if err := sameAsCold(cold, resumed, sweep.CellDone); err != nil {
		return fmt.Errorf("resumed cold stream: %w", err)
	}
	warmEvents := make(map[int]sweep.Event)
	if _, err := c2.StreamSweepResults(ctx, warm.ID, func(ev sweep.Event) error {
		warmEvents[ev.Cell] = ev
		return nil
	}); err != nil {
		return fmt.Errorf("warm stream: %w", err)
	}
	if err := sameAsCold(cold, warmEvents, sweep.CellDeduped); err != nil {
		return fmt.Errorf("warm stream: %w", err)
	}
	fmt.Printf("sweep-smoke: resumed and warm streams carry the cold stream's keys and results (%d cells each)\n",
		len(cold))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("sweep-smoke: PASS")
}
