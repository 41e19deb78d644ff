package server

import (
	"encoding/hex"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// TestResolveIsExperimentResolve: however a cell is spelled, the
// server's resolver and the in-process one (experiment.Resolve, which
// Runner.RunCells calls) name the same simulation — same mix, system,
// controller and budget — and every spelling files under one job key.
// Only the server's own two limits differ.
func TestResolveIsExperimentResolve(t *testing.T) {
	s := newResolver(t)
	groups := [][]sweep.Cell{
		{
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama", Scale: "tiny"},
			{Mix: []string{" spec06.mcf", "ligra.BFS "}, Controller: "\tmumama", Scale: "Tiny"},
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama", Scale: " TINY ",
				Target: experiment.ScaleTiny.Target, Step: experiment.ScaleTiny.Step},
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama@jav=2", Scale: "tiny"}, // a spelled-out default
		},
		{
			{Mix: []string{"spec06.libquantum"}, Controller: "no"},
			{Mix: []string{"spec06.libquantum\n"}, Controller: "no ", Scale: "DEFAULT"},
		},
		{
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama@jav=4@lcb=0.5", Scale: "tiny"},
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: "mumama@jav=04@lcb=0.50", Scale: "tiny"},
			{Mix: []string{"spec06.mcf", "ligra.BFS"}, Controller: " mumama@lcb=.5@jav=4@tarbit=5", Scale: "tiny"},
		},
		{
			{Mix: []string{"spec06.mcf", "spec06.mcf"}, Controller: "bandit", Scale: "small", Seed: 3, DRAMChannels: 2, Step: 90},
			{Mix: []string{"spec06.mcf", "spec06.mcf"}, Controller: "bandit", Scale: "small", Seed: 3, DRAMMTps: 2400, DRAMChannels: 2, Step: 90},
		},
	}
	keys := map[string]int{}
	for g, group := range groups {
		var key string
		for _, c := range group {
			local := c
			want, err := experiment.Resolve(&local)
			if err != nil {
				t.Fatalf("experiment.Resolve(%+v): %v", c, err)
			}
			got, err := s.resolve(JobSpec{Cell: c})
			if err != nil {
				t.Fatalf("Server.resolve(%+v): %v", c, err)
			}
			// (workload.Spec holds a func, so the mixes are compared by name.)
			if got.Mix.Name() != want.Mix.Name() || got.Config != want.Config ||
				got.Controller != want.Controller || got.Scale != want.Scale {
				t.Errorf("%+v: the server plans %s under %s on %+v at %+v, experiment.Resolve %s under %s on %+v at %+v",
					c, got.Mix.Name(), got.Controller, got.Config, got.Scale, want.Mix.Name(), want.Controller, want.Config, want.Scale)
			}
			if strings.Join(got.spec.Mix, ",") != strings.Join(local.Mix, ",") || got.spec.Controller != local.Controller || got.spec.Scale != local.Scale {
				t.Errorf("%+v: normalized to %+v by the server, %+v locally", c, got.spec.Cell, local)
			}
			if key == "" {
				key = got.key
			} else if got.key != key {
				t.Errorf("group %d: %+v files under %s, its other spellings under %s", g, c, got.key, key)
			}
		}
		if prev, dup := keys[key]; dup {
			t.Errorf("groups %d and %d share key %s", prev, g, key)
		}
		keys[key] = g
	}

	// What one resolver refuses, so does the other, in the same words.
	for _, c := range []sweep.Cell{
		{Controller: "no"},
		{Mix: []string{"Spec06.mcf"}, Controller: "no"}, // trace names are case-sensitive
		{Mix: []string{"spec06.mcf"}},
		{Mix: []string{"spec06.mcf"}, Controller: "NO"},
		{Mix: []string{"spec06.mcf"}, Controller: "no", Scale: "huge"},
		{Mix: []string{"spec06.mcf"}, Controller: "mumama@jav=0"},
		{Mix: []string{"spec06.mcf"}, Controller: "no@jav=2"},
	} {
		local := c
		_, want := experiment.Resolve(&local)
		_, got := s.resolve(JobSpec{Cell: c})
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%+v: server says %v, experiment.Resolve %v", c, got, want)
		}
	}

	// The core limit and the timeout check stay on the server.
	wide := sweep.Cell{Mix: make([]string, 17), Controller: "no", Scale: "tiny"}
	for i := range wide.Mix {
		wide.Mix[i] = "spec06.mcf"
	}
	if _, err := experiment.Resolve(&wide); err != nil {
		t.Errorf("experiment.Resolve refuses 17 cores: %v", err)
	}
	if _, err := s.resolve(JobSpec{Cell: wide}); err == nil || !strings.Contains(err.Error(), "at most 16 cores") {
		t.Errorf("Server.resolve of 17 cores: %v, want the MaxCores error", err)
	}
	if _, err := s.resolve(JobSpec{Cell: groups[1][0], TimeoutMs: -1}); err == nil || !strings.Contains(err.Error(), "timeout_ms") {
		t.Errorf("Server.resolve of a negative timeout: %v", err)
	}
}

// TestOneCoreNoJobSimulatesOnce: a one-core "no" job is its own
// baseline — one simulation, speedup 1 — where it used to run the same
// simulation twice to divide it by itself.
func TestOneCoreNoJobSimulatesOnce(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := scrapeMetric(t, ts, "mama_sim_runs_total")
	resp, view := postJob(t, ts, `{"mix":["spec06.libquantum"],"controller":"no","scale":"tiny","target":60000}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	body := waitDone(t, ts, view.ID, 60*time.Second)
	if body.Status != StatusDone || body.Result == nil {
		t.Fatalf("job finished as %q (error %q)", body.Status, body.Error)
	}
	if got := scrapeMetric(t, ts, "mama_sim_runs_total") - before; got != 1 {
		t.Errorf("mama_sim_runs_total moved by %v, want 1", got)
	}
	if r := body.Result; len(r.Speedups) != 1 || r.Speedups[0] != 1 || r.WS != 1 || r.IPC[0] <= 0 {
		t.Errorf("result %+v, want speedup 1 at a positive IPC", r)
	}
}

// TestAppendKeyMatchesResolve: resolve is appendKey plus the plan, so
// the two cannot key a cell differently; what is left to hold is the
// contract a sweep leans on. The key's digest lands after whatever dst
// already held and the cell is normalized in place, as resolve leaves
// its spec; what resolve refuses appendKey refuses in the same words — a
// request error, never errInternal — leaving dst as it got it; and a
// cell in canonical form is keyed with no allocation, which is the
// point of it.
func TestAppendKeyMatchesResolve(t *testing.T) {
	s := newResolver(t)
	traces := []string{"spec06.libquantum", "spec06.mcf", "ligra.BFS", "spec06.sphinx3"}
	const prefix = "held:"
	for _, c := range []sweep.Cell{
		{Mix: traces[:1], Controller: "no"},
		{Mix: traces[:2], Controller: " mumama@jav=04", Scale: " Small", Seed: 3, DRAMMTps: 1866, DRAMChannels: 2},
		{Mix: traces, Controller: "mumama@theta=0.5@kstep=5", Scale: "full", Target: 123_456_789, Step: 1},
		{Mix: []string{" spec06.mcf", "ligra.BFS"}, Controller: "pythia\t", Scale: "tiny", Step: 75, DRAMChannels: 2},
	} {
		want, err := s.resolve(JobSpec{Cell: c})
		if err != nil {
			t.Fatalf("resolve(%+v): %v", c, err)
		}
		got, scale, err := s.appendKey([]byte(prefix), &c)
		if err != nil || string(got[:len(prefix)]) != prefix || hex.EncodeToString(got[len(prefix):]) != want.key || scale != want.Scale {
			t.Fatalf("appendKey(%+v) = %q at %+v, %v; resolve files it under %s at %+v", c, got, scale, err, want.key, want.Scale)
		}
		if !reflect.DeepEqual(c, want.spec.Cell) {
			t.Fatalf("appendKey left the cell as %+v, resolve as %+v", c, want.spec.Cell)
		}
	}

	wide := make([]string, 17)
	for i := range wide {
		wide[i] = "spec06.mcf"
	}
	for _, c := range []sweep.Cell{
		{Mix: []string{"spec06.mcf", "spec06.nope"}, Controller: "no"}, // unknown trace
		{Mix: []string{"spec06.mcf"}, Controller: "nope"},              // unknown controller
		{Mix: []string{"spec06.mcf"}, Controller: "mumama@jav=0"},      // bad parameter value
		{Mix: []string{"spec06.mcf"}, Controller: "mumama@javv=1"},     // unknown parameter
		{Mix: []string{"spec06.mcf"}, Controller: "no", Scale: "huge"}, // bad scale
		{Controller: "no"},                                                // empty mix
		{Mix: []string{"spec06.mcf"}},                                     // no controller
		{Mix: wide, Controller: "no"},                                     // too many cores
		{Mix: append(wide[:16:16], "spec06.nope"), Controller: "no"},      // too many cores wins over a bad trace
		{Mix: []string{"spec06.nope"}, Controller: "nope", Scale: "huge"}, // the trace is reported first
		{Mix: []string{"spec06.mcf"}, Controller: "nope", Scale: "huge"},  // then the controller
	} {
		_, want := s.resolve(JobSpec{Cell: c})
		got, _, err := s.appendKey([]byte(prefix), &c)
		if want == nil || err == nil || err.Error() != want.Error() || errors.Is(err, errInternal) {
			t.Errorf("%+v: appendKey says %v, resolve %v", c, err, want)
		}
		if string(got) != prefix {
			t.Errorf("%+v: a refused cell left dst as %q", c, got)
		}
	}

	clean := sweep.Cell{Mix: traces, Controller: "mumama", Scale: "tiny", Seed: 9, Target: 20_000}
	dst := make([]byte, 0, sweep.DigestLen)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := s.appendKey(dst, &clean); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("keying a cell in canonical form allocates %v times, want 0: no plan, no marshal", allocs)
	}
}
