package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"micromama/internal/client"
	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// warmBenchGrid is the shape of mamaload's sweep_warm grid: four
// single-trace mixes × four controllers × 32 seeds = 512 cells.
func warmBenchGrid() *sweep.Grid {
	g := &sweep.Grid{
		Mixes:       [][]string{{"spec06.libquantum"}, {"spec06.mcf"}, {"spec06.sphinx3"}, {"ligra.BFS"}},
		Controllers: []string{"no", "bandit", "mumama", "pythia"},
		Scales:      []string{"tiny"},
		Target:      20_000,
	}
	for seed := uint64(1); seed <= 32; seed++ {
		g.Seeds = append(g.Seeds, seed)
	}
	return g
}

// warmBenchServer returns a server whose cache already holds every cell
// of warmBenchGrid (a fake run fills it with results of a real one's
// size), and the finished sweep that filled it.
func warmBenchServer(b testing.TB) (*Server, sweep.View) {
	b.Helper()
	run := func(_ context.Context, spec JobSpec) (JobResult, error) {
		x := float64(spec.Seed) / 3
		return JobResult{
			Mix: spec.Mix[0], Controller: spec.Controller,
			WS: x, HS: x / 7, GM: x / 11, Unfairness: 1 + x/13,
			Speedups: []float64{x}, IPC: []float64{x / 17}, L2MPKI: []float64{x * 19},
			Prefetches: spec.Seed * 1000, SimMs: 3,
		}, nil
	}
	srv, err := New(Config{Workers: 2, Run: run})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	v, _, err := srv.sweeps.Submit(context.Background(), sweep.Spec{Name: "fill", Grid: warmBenchGrid()})
	if err != nil {
		b.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ = srv.sweeps.View(v.ID); v.Status == "done" {
			return srv, v
		}
		if time.Now().After(deadline) {
			b.Fatalf("filling sweep stuck at %+v", v)
		}
	}
}

// BenchmarkJobKey is the hash of one 4-core cell, as resolve takes it:
// 1.4 KB of canonical encoding appended and SHA-256'd into a caller's
// buffer, with no allocation.
func BenchmarkJobKey(b *testing.B) {
	var memo configMemo
	tail, err := memo.resolve(4, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	spec := JobSpec{Cell: sweep.Cell{
		Mix:        []string{"spec06.libquantum", "spec06.mcf", "spec06.sphinx3", "ligra.BFS"},
		Controller: "mumama", Scale: "tiny", Seed: 7,
	}}
	var buf [sweep.DigestLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if key := appendJobKey(buf[:0], &spec.Cell, tail, experiment.ScaleTiny, experiment.ModelEpoch); len(key) != sweep.DigestLen {
			b.Fatalf("appendJobKey = %q", key)
		}
	}
}

// BenchmarkSweepSubmitWarm is the admission half of a warm sweep: a
// 512-cell grid whose every cell is cached, through Manager.Submit with
// the real sweepExec — lay out, check + hash each cell, dedupe against
// the cache, log. allocs/op ÷ 512 is the allocation bill of one warm
// cell.
func BenchmarkSweepSubmitWarm(b *testing.B) {
	srv, _ := warmBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, created, err := srv.sweeps.Submit(context.Background(), sweep.Spec{Name: fmt.Sprint("warm-", i), Grid: warmBenchGrid()})
		if err != nil || !created || v.Deduped != 512 || v.Status != "done" {
			b.Fatalf("warm submit: %+v created=%v err=%v", v, created, err)
		}
	}
}

// BenchmarkSweepStream is the delivery half: one finished 512-event
// sweep read end to end over loopback HTTP, handleSweepResults on one
// side and client.StreamSweepResults on the other.
func BenchmarkSweepStream(b *testing.B) {
	srv, v := warmBenchServer(b)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	c := client.New(ts.URL, client.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := 0
		_, err := c.StreamSweepResults(context.Background(), v.ID, func(ev sweep.Event) error {
			if len(ev.Result) == 0 {
				return fmt.Errorf("event %d has no result", ev.Seq)
			}
			events++
			return nil
		})
		if err != nil || events != 512 {
			b.Fatalf("streamed %d events, err %v", events, err)
		}
	}
}
