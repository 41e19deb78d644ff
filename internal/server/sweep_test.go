package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/client"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// postSweep submits a sweep spec and decodes the returned view.
func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, sweep.View) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	var view sweep.View
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode sweep view: %v", err)
		}
	}
	return resp, view
}

// getSweepView fetches one sweep's current state.
func getSweepView(t *testing.T, ts *httptest.Server, id string) sweep.View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatalf("GET sweep: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep %s: HTTP %d", id, resp.StatusCode)
	}
	var view sweep.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode sweep view: %v", err)
	}
	return view
}

// waitSweepDone polls until the sweep reports done.
func waitSweepDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) sweep.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if view := getSweepView(t, ts, id); view.Status == "done" {
			return view
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish within %v", id, timeout)
	return sweep.View{}
}

// sweepGridJSON builds a grid spec over fake-job seeds: one
// single-trace mix, the no-op controller, tiny scale, n seeded cells.
func sweepGridJSON(name string, n int) string {
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	return fmt.Sprintf(`{"name":%q,"grid":{"mixes":[["spec06.libquantum"]],"controllers":["no"],"scales":["tiny"],"seeds":[%s]}}`,
		name, strings.Join(seeds, ","))
}

// readSweepEvents consumes a follow=0 NDJSON result dump.
func readSweepEvents(t *testing.T, ts *httptest.Server, id, query string) ([]sweep.Event, sweep.View) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results?follow=0" + query)
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		events []sweep.Event
		final  sweep.View
		ended  bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var end struct {
			End   bool       `json:"end"`
			Sweep sweep.View `json:"sweep"`
		}
		if json.Unmarshal([]byte(line), &end) == nil && end.End {
			final, ended = end.Sweep, true
			continue
		}
		var ev sweep.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if !ended {
		t.Fatal("result stream ended without the end marker")
	}
	return events, final
}

// TestSweepEndToEnd runs one sweep through the full HTTP surface:
// submit expands the grid, every cell executes exactly once, events
// stream with results attached, and stats/metrics account for it all.
func TestSweepEndToEnd(t *testing.T) {
	run, calls := countingRun()
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, view := postSweep(t, ts, sweepGridJSON("e2e", 4))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d, want 201", resp.StatusCode)
	}
	if view.Cells != 4 || view.Status != "running" {
		t.Fatalf("submitted view = %d cells status %q, want 4 running", view.Cells, view.Status)
	}

	final := waitSweepDone(t, ts, view.ID, 10*time.Second)
	if final.Done != 4 || final.Failed != 0 || final.Deduped != 0 {
		t.Fatalf("final view done/failed/deduped = %d/%d/%d, want 4/0/0",
			final.Done, final.Failed, final.Deduped)
	}
	if calls.Load() != 4 {
		t.Errorf("simulator ran %d times, want 4", calls.Load())
	}

	events, end := readSweepEvents(t, ts, view.ID, "")
	if len(events) != 4 {
		t.Fatalf("streamed %d events, want 4", len(events))
	}
	seenCells := map[int]bool{}
	for _, ev := range events {
		if ev.Status != sweep.CellDone || len(ev.Result) == 0 || ev.Key == "" {
			t.Errorf("event %+v: want done with result and key", ev)
		}
		var res JobResult
		if err := json.Unmarshal(ev.Result, &res); err != nil || res.WS != 2.5 {
			t.Errorf("event result = %s (err %v), want the fake ws=2.5", ev.Result, err)
		}
		seenCells[ev.Cell] = true
	}
	if len(seenCells) != 4 {
		t.Errorf("events cover %d distinct cells, want 4", len(seenCells))
	}
	if end.Status != "done" {
		t.Errorf("end marker status = %q, want done", end.Status)
	}

	// Cursor resume: skipping the first two events leaves two.
	tail, _ := readSweepEvents(t, ts, view.ID, "&cursor=2")
	if len(tail) != 2 {
		t.Errorf("cursor=2 streamed %d events, want 2", len(tail))
	}

	// Every cell is also a registry-visible job.
	for _, ev := range events {
		code, body := getResult(t, ts, jobID(ev.Key))
		if code != http.StatusOK || body.Status != StatusDone {
			t.Errorf("cell job %s: HTTP %d status %q, want done", jobID(ev.Key), code, body.Status)
		}
	}

	st := getStats(t, ts)
	if st.Sweeps.Submitted != 1 || st.Sweeps.CellsDone != 4 || st.Sweeps.Active != 0 {
		t.Errorf("stats sweeps = %+v, want submitted 1, completed 4, active 0", st.Sweeps)
	}
	if v := scrapeMetric(t, ts, "mama_server_sweep_cells_completed_total"); v != 4 {
		t.Errorf("mama_server_sweep_cells_completed_total = %v, want 4", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_sweeps_active"); v != 0 {
		t.Errorf("mama_server_sweeps_active = %v, want 0", v)
	}
}

// TestSweepKeyDeterminism pins the acceptance contract "same spec →
// same ordered job-key list": expansion plus server-side resolution is
// a pure function of the spec.
func TestSweepKeyDeterminism(t *testing.T) {
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, Run: run})
	defer srv.Close()
	keyList := func() []string {
		spec := sweep.Spec{
			Name: "det",
			Grid: &sweep.Grid{
				Mixes:       [][]string{{"spec06.libquantum"}, {"spec06.libquantum", "spec06.sphinx3"}},
				Controllers: []string{"no", "bandit"},
				Scales:      []string{"tiny"},
				Seeds:       []uint64{1, 2},
			},
		}
		cells, err := spec.Expand(0)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(cells))
		for i, c := range cells {
			key, _, err := srv.appendKey(nil, &c)
			if err != nil {
				t.Fatalf("resolve cell %d: %v", i, err)
			}
			keys[i] = string(key)
		}
		return keys
	}

	first, second := keyList(), keyList()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("key lists differ across expansions:\n%v\n%v", first, second)
	}
	distinct := map[string]bool{}
	for _, k := range first {
		distinct[k] = true
	}
	if len(distinct) != len(first) {
		t.Errorf("%d cells resolve to %d distinct keys; cells must be content-distinct",
			len(first), len(distinct))
	}
}

// figureSweepJSON replicates the fig13 remote driver's cell set at toy
// scale: the scale's deterministic mixes × all six controllers.
func figureSweepJSON(name string) string {
	var mixes []string
	for _, m := range workload.Mixes(2, 2, 7) {
		names := make([]string, len(m.Specs))
		for i, sp := range m.Specs {
			names[i] = fmt.Sprintf("%q", sp.Name)
		}
		mixes = append(mixes, "["+strings.Join(names, ",")+"]")
	}
	return fmt.Sprintf(`{"name":%q,"grid":{"mixes":[%s],"controllers":["no","bandit","bingo","pythia","mumama","mumama-fair"],"scales":["tiny"]}}`,
		name, strings.Join(mixes, ","))
}

// TestSweepWarmCacheDedupe is the acceptance criterion: a
// figure-covering sweep submitted twice against a warm cache completes
// the second time with zero simulator runs — both as an idempotent
// resubmission (same sweep) and as a fresh sweep over the same cells.
func TestSweepWarmCacheDedupe(t *testing.T) {
	run, calls := countingRun()
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 16, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp1, v1 := postSweep(t, ts, figureSweepJSON("fig13"))
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: HTTP %d, want 201", resp1.StatusCode)
	}
	waitSweepDone(t, ts, v1.ID, 10*time.Second)
	cold := calls.Load()
	if cold != int64(v1.Cells) || cold == 0 {
		t.Fatalf("cold sweep ran %d simulations for %d cells", cold, v1.Cells)
	}

	// Same spec again: attaches to the finished sweep, zero runs.
	resp2, v2 := postSweep(t, ts, figureSweepJSON("fig13"))
	if resp2.StatusCode != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("resubmission: HTTP %d id %s, want 200 on %s", resp2.StatusCode, v2.ID, v1.ID)
	}
	if v2.Status != "done" {
		t.Errorf("resubmitted sweep status %q, want done", v2.Status)
	}

	// Same cells under a new name: a distinct sweep, satisfied entirely
	// from the warm cache at admission — done before a worker ever sees
	// it.
	resp3, v3 := postSweep(t, ts, figureSweepJSON("fig13-again"))
	if resp3.StatusCode != http.StatusCreated || v3.ID == v1.ID {
		t.Fatalf("renamed submit: HTTP %d id %s, want a new sweep", resp3.StatusCode, v3.ID)
	}
	if v3.Status != "done" || v3.Deduped != v3.Cells {
		t.Fatalf("renamed sweep status %q deduped %d/%d, want done with every cell deduped",
			v3.Status, v3.Deduped, v3.Cells)
	}
	if calls.Load() != cold {
		t.Errorf("warm resubmissions ran %d extra simulations, want 0", calls.Load()-cold)
	}

	// Deduped events still carry the cached results.
	events, _ := readSweepEvents(t, ts, v3.ID, "")
	for _, ev := range events {
		if ev.Status != sweep.CellDeduped || len(ev.Result) == 0 {
			t.Errorf("warm event %+v: want deduped with cached result attached", ev)
		}
	}
	if v := scrapeMetric(t, ts, "mama_server_sweep_cells_deduped_total"); v != float64(v3.Cells) {
		t.Errorf("mama_server_sweep_cells_deduped_total = %v, want %d", v, v3.Cells)
	}
}

// TestFinishedSweepFootprint: what the manager keeps of a sweep it has
// finished is its spec and, per cell, a handle into the result cache's
// key table and a status byte — 4 + 1 bytes; a fully deduped sweep
// completed in cell order stores no completion order — not the cells,
// keys or results, which are read off the spec
// and the result cache. 200 warm 512-cell sweeps through Manager.Submit
// with the real sweepExec, then the heap that survives a collection.
func TestFinishedSweepFootprint(t *testing.T) {
	srv, _ := warmBenchServer(t)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the first empties sync.Pools into the second
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const sweeps, cells = 200, 512
	before := heap()
	for i := 0; i < sweeps; i++ {
		v, created, err := srv.sweeps.Submit(context.Background(), sweep.Spec{Name: fmt.Sprint("held-", i), Grid: warmBenchGrid()})
		if err != nil || !created || v.Deduped != cells || v.Status != "done" {
			t.Fatalf("warm submit: %+v created=%v err=%v", v, created, err)
		}
	}
	perCell := float64(int64(heap()-before)) / (sweeps * cells)
	t.Logf("%d finished %d-cell sweeps retain %.1f B per cell", sweeps, cells, perCell)
	if perCell > 8 {
		t.Errorf("a finished sweep retains %.1f B per cell, want <= 8", perCell)
	}
}

// TestSweepDoesNotStarveInteractive is the fairness acceptance bound:
// with a 1000-cell sweep saturating a single worker, an interactive
// POST /v1/jobs must still complete promptly — strictly before the
// sweep drains.
func TestSweepDoesNotStarveInteractive(t *testing.T) {
	run := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		time.Sleep(time.Millisecond)
		return JobResult{Mix: "fake", WS: 1}, nil
	}
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 8, MaxSweepCells: 2048, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, sv := postSweep(t, ts, sweepGridJSON("big", 1000))
	if sv.Cells != 1000 {
		t.Fatalf("sweep expanded to %d cells, want 1000", sv.Cells)
	}

	// Give the sweep a head start so the worker is mid-sweep.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	resp, jv := postJob(t, ts, fakeSpec(9999))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: HTTP %d", resp.StatusCode)
	}
	body := waitDone(t, ts, jv.ID, 5*time.Second)
	wait := time.Since(start)
	if body.Status != StatusDone {
		t.Fatalf("interactive job finished as %q", body.Status)
	}

	after := getSweepView(t, ts, sv.ID)
	if after.Status == "done" {
		t.Fatal("sweep finished before the interactive job — starvation bound proves nothing")
	}
	// Bounded wait: the job overtook ~990+ pending cells. The generous
	// ceiling keeps slow CI honest while still catching FIFO behavior
	// (which would take the full sweep duration).
	if wait > 3*time.Second {
		t.Errorf("interactive job waited %v behind a sweep, want prompt dispatch", wait)
	}
	waitSweepDone(t, ts, sv.ID, 30*time.Second)
}

// recordingRun returns a runFunc that sleeps briefly and counts
// executions per job seed, so tests can assert exactly-once execution.
func recordingRun(d time.Duration) (runFunc, func() map[uint64]int) {
	var mu sync.Mutex
	runs := map[uint64]int{}
	run := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		mu.Lock()
		runs[spec.Seed]++
		mu.Unlock()
		select {
		case <-time.After(d):
			// Floats with long and exponent spellings: what a restart must
			// bring back from disk byte for byte.
			return JobResult{Mix: "fake", WS: 1, IPC: []float64{float64(spec.Seed) / 3, 1e-7, 1e21}}, nil
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		}
	}
	snapshot := func() map[uint64]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[uint64]int, len(runs))
		for k, v := range runs {
			out[k] = v
		}
		return out
	}
	return run, snapshot
}

// TestSweepRestartResume is the chaos acceptance criterion: kill the
// server mid-sweep, restart over the same cache dir, and the sweep
// finishes with no completed cell recomputed and nothing double-run.
func TestSweepRestartResume(t *testing.T) {
	dir := t.TempDir()
	const cells = 40

	run1, _ := recordingRun(2 * time.Millisecond)
	srv1 := mustNew(t, Config{Workers: 2, QueueDepth: 8, CacheDir: dir, Run: run1})
	ts1 := httptest.NewServer(srv1.Handler())

	_, sv := postSweep(t, ts1, sweepGridJSON("resume", cells))
	if sv.Cells != cells {
		t.Fatalf("sweep expanded to %d cells, want %d", sv.Cells, cells)
	}

	// Let part of the sweep complete, then take the server down
	// gracefully (SIGTERM path: drain in-flight cells, flush stores).
	deadline := time.Now().Add(10 * time.Second)
	for getSweepView(t, ts1, sv.ID).Done < 8 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never made initial progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// What the filling server streamed for the cells it has finished.
	streamed1, _ := readSweepEvents(t, ts1, sv.ID, "")
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The restarted server's workers start at once, so they are held at
	// the door of their first cell until the restored count is read:
	// while none can finish, Done is what the store brought back, however
	// fast or loaded the machine is.
	run2, snap2 := recordingRun(2 * time.Millisecond)
	release := make(chan struct{})
	held := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		select {
		case <-release:
			return run2(ctx, spec)
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		}
	}
	srv2 := mustNew(t, Config{Workers: 2, QueueDepth: 8, CacheDir: dir, Run: held})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// The sweep is already back, resumed from the crash-safe store.
	resumed := getSweepView(t, ts2, sv.ID)
	doneBefore := resumed.Done
	if doneBefore < 8 {
		t.Fatalf("restarted server restored %d done cells, want >= 8", doneBefore)
	}
	st := getStats(t, ts2)
	if st.Sweeps.Resumed != 1 {
		t.Fatalf("stats sweeps_resumed = %d, want 1", st.Sweeps.Resumed)
	}
	close(release)

	final := waitSweepDone(t, ts2, sv.ID, 15*time.Second)
	if final.Done+final.Deduped != cells || final.Failed != 0 {
		t.Fatalf("final done+deduped/failed = %d/%d, want %d/0",
			final.Done+final.Deduped, final.Failed, cells)
	}

	// No completed cell recomputed: the second server ran exactly the
	// cells the first one had not finished, each exactly once.
	runs2 := snap2()
	if len(runs2) != cells-doneBefore {
		t.Errorf("second server ran %d cells, want %d (= %d total - %d already done)",
			len(runs2), cells-doneBefore, cells, doneBefore)
	}
	for seed, n := range runs2 {
		if n != 1 {
			t.Errorf("seed %d ran %d times on the restarted server, want once", seed, n)
		}
	}

	// The streamed log on the restarted server covers every cell
	// exactly once (dedupe by cell index holds).
	events, _ := readSweepEvents(t, ts2, sv.ID, "")
	cellsSeen := map[int]int{}
	for _, ev := range events {
		cellsSeen[ev.Cell]++
	}
	if len(cellsSeen) != cells {
		t.Errorf("event log covers %d cells, want %d", len(cellsSeen), cells)
	}

	// An entry loaded from disk is re-encoded once, at load, and streams
	// the bytes the filling server streamed for it.
	if len(streamed1) < 8 {
		t.Fatalf("first server streamed %d events, want >= 8", len(streamed1))
	}
	for _, ev1 := range streamed1 {
		for _, ev2 := range events {
			if ev2.Cell == ev1.Cell && !bytes.Equal(ev1.Result, ev2.Result) {
				t.Errorf("cell %d: restarted server streams %s, filling server streamed %s", ev1.Cell, ev2.Result, ev1.Result)
			}
		}
	}
}

// TestSweepWorkerKillChaos injects worker death on a third of cell
// dispatches: killed cells bounce back to pending and re-dispatch, the
// sweep still completes every cell exactly once, and nothing fails.
func TestSweepWorkerKillChaos(t *testing.T) {
	enableFault(t, "server/sweep/worker-kill", "every:3")
	run, snap := recordingRun(time.Millisecond)
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const cells = 12
	_, sv := postSweep(t, ts, sweepGridJSON("chaos", cells))
	final := waitSweepDone(t, ts, sv.ID, 15*time.Second)
	if final.Done != cells || final.Failed != 0 {
		t.Fatalf("done/failed = %d/%d, want %d/0 despite injected kills",
			final.Done, final.Failed, cells)
	}
	runs := snap()
	if len(runs) != cells {
		t.Errorf("%d distinct cells executed, want %d", len(runs), cells)
	}
	for seed, n := range runs {
		if n != 1 {
			t.Errorf("seed %d executed %d times, want exactly once", seed, n)
		}
	}
}

// TestSweepPersistWriteFault: persistent store failures are counted
// and contained — the sweep still completes in memory and nothing is
// written.
func TestSweepPersistWriteFault(t *testing.T) {
	enableFault(t, "server/sweep/persist-write", "always")
	dir := t.TempDir()
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, sv := postSweep(t, ts, sweepGridJSON("wf", 3))
	waitSweepDone(t, ts, sv.ID, 10*time.Second)
	// The store writes behind the sweep: Close drains it, so the failed
	// attempts are counted by the time it returns.
	srv.Close()
	if v := scrapeMetric(t, ts, "mama_server_sweep_persist_errors_total"); v < 1 {
		t.Errorf("mama_server_sweep_persist_errors_total = %v, want >= 1", v)
	}
	if lines := logLines(t, filepath.Join(dir, "sweeps")); len(lines) != 0 {
		t.Errorf("sweep records written despite injected failures: %q", lines)
	}
}

// TestSweepPersistReadFault: unreadable sweep records are quarantined
// at startup — counted, renamed aside, and the server boots clean.
func TestSweepPersistReadFault(t *testing.T) {
	dir := t.TempDir()
	run1, _ := countingRun()
	srv1 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run1})
	ts1 := httptest.NewServer(srv1.Handler())
	_, sv := postSweep(t, ts1, sweepGridJSON("rf", 2))
	waitSweepDone(t, ts1, sv.ID, 10*time.Second)
	ts1.Close()
	srv1.Close()

	enableFault(t, "server/sweep/persist-read", "always")
	run2, _ := countingRun()
	srv2 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if v := scrapeMetric(t, ts2, "mama_server_sweep_persist_quarantined_total"); v != 1 {
		t.Errorf("mama_server_sweep_persist_quarantined_total = %v, want 1", v)
	}
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + sv.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("quarantined sweep served HTTP %d, want 404", resp.StatusCode)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "sweeps", "*.quarantine")); len(files) != 1 {
		t.Errorf("quarantined files = %v, want exactly one", files)
	}
	// The record went aside — its latest line, the one Load read — and
	// the log no longer holds it.
	q, _ := os.ReadFile(filepath.Join(dir, "sweeps", "records.log.quarantine"))
	if bytes.Count(q, []byte("\n")) != 1 || !bytes.Contains(q, []byte(sv.ID)) {
		t.Errorf("quarantine holds %q, want the sweep's one record", q)
	}
	if lines := logLines(t, filepath.Join(dir, "sweeps")); len(lines) != 0 {
		t.Errorf("the log still holds %q", lines)
	}
}

// TestMetricsSeriesPerSweepBounded: /metrics holds the same series
// after ten more cold sweeps as after the first. The registry never
// drops a series, so one labelled by sweep would grow with every sweep
// the server ever queued; a sweep's own depth is `pending` in its view.
func TestMetricsSeriesPerSweepBounded(t *testing.T) {
	var sims atomic.Int64
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, Run: pureRun(&sims, 0)})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	runSweep := func(i int) {
		body := fmt.Sprintf(`{"name":"s%d","grid":{"mixes":[["spec06.libquantum"]],"controllers":["no"],"scales":["tiny"],"seeds":[%d,%d]}}`,
			i, 2*i+1, 2*i+2)
		resp, v := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("sweep %d: HTTP %d", i, resp.StatusCode)
		}
		waitSweepDone(t, ts, v.ID, 10*time.Second)
	}
	series := func() int {
		var buf bytes.Buffer
		if err := srv.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}

	runSweep(0)
	before := series()
	for i := 1; i <= 10; i++ {
		runSweep(i)
	}
	if got := sims.Load(); got != 22 {
		t.Fatalf("simulations = %d, want 22 (every cell cold)", got)
	}
	if after := series(); after != before {
		t.Errorf("/metrics series: %d after one sweep, %d after eleven; want no growth", before, after)
	}
}

// TestUnencodableResultFails: a result json.Marshal refuses (a NaN
// metric) is encoded once, on its way into the cache, and that is where
// it stops: the job fails with the reason instead of reading done with
// a body nobody can write, the sweep cell fails with it, nothing is
// cached or persisted, and every run counts as failed, none as
// completed.
func TestUnencodableResultFails(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: t.TempDir(),
		Run: func(context.Context, JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: math.NaN()}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, view := postJob(t, ts, fakeSpec(1))
	if body := waitDone(t, ts, view.ID, 10*time.Second); body.Status != StatusFailed ||
		!strings.Contains(body.Error, "encode result") || body.Result != nil {
		t.Errorf("job with a NaN result: %+v, want failed with an encode error", body.JobView)
	}
	_, sv := postSweep(t, ts, sweepGridJSON("nan", 2))
	waitSweepDone(t, ts, sv.ID, 10*time.Second)
	events, final := readSweepEvents(t, ts, sv.ID, "")
	if final.Failed != 2 || len(events) != 2 {
		t.Fatalf("sweep over NaN results: %+v with %d events, want 2 failed cells", final, len(events))
	}
	for _, ev := range events {
		if ev.Status != sweep.CellFailed || !strings.Contains(ev.Error, "encode result") || len(ev.Result) != 0 {
			t.Errorf("event %+v, want failed with an encode error and no result", ev)
		}
	}
	st := getStats(t, ts)
	if st.CachedKeys != 0 {
		t.Errorf("%d results cached, want 0", st.CachedKeys)
	}
	if st.Completed != 0 || st.Failed != 3 { // the job, then both cells (seed 1 is retried)
		t.Errorf("completed %d failed %d, want 0/3: a run counts once its job's outcome is final", st.Completed, st.Failed)
	}
}

// failAfter is a ResponseWriter whose client goes away after n writes;
// largest is the longest write it was handed.
type failAfter struct {
	*httptest.ResponseRecorder
	n, largest int
}

func (w *failAfter) Write(b []byte) (int, error) {
	w.largest = max(w.largest, len(b))
	if w.n == 0 {
		return 0, io.ErrClosedPipe
	}
	w.n--
	return w.ResponseRecorder.Write(b)
}

// TestSweepStreamStopsAtUndeliveredEvent: a write that fails ends the
// stream there — nothing after it goes out, least of all the end frame
// that would tell the client it has seen everything — so the client's
// reconnect re-reads from the first event it missed. A batch goes out a
// chunk of whole frames at a time, so the log here is long enough for
// three chunks; the client takes two and is gone. No write is a whole
// long log: each stays within streamChunk plus the frame that filled it.
func TestSweepStreamStopsAtUndeliveredEvent(t *testing.T) {
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const cells = 600
	_, sv := postSweep(t, ts, sweepGridJSON("gone", cells))
	waitSweepDone(t, ts, sv.ID, 30*time.Second)

	w := &failAfter{ResponseRecorder: httptest.NewRecorder(), n: 2}
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sv.ID+"/results", nil))
	body := w.Body.String()
	n := strings.Count(body, `"seq":`)
	if n == 0 || n >= cells || strings.Contains(body, `"end":true`) {
		t.Errorf("%d of %d events and the end frame's absence expected from two chunks of three:\n%.400s", n, cells, body)
	}
	if len(body) < 2*streamChunk || !strings.HasSuffix(body, "}\n") ||
		!strings.Contains(body, fmt.Sprintf(`"seq":%d,`, n-1)) || strings.Contains(body, fmt.Sprintf(`"seq":%d,`, n)) {
		t.Errorf("the %d bytes delivered are not whole frames 0..%d", len(body), n-1)
	}
	if w.largest < streamChunk || w.largest > streamChunk+1024 {
		t.Errorf("largest write was %d bytes, want one chunk (%d) and at most a frame over", w.largest, streamChunk)
	}
}

// eventsReadCache streams a finished sweep from srv and holds every
// event to the node's result cache: its key is its cell's job key, a
// done or deduped event's result is byte for byte the cache entry's,
// and a failed one has its error and no result. It returns the events.
func eventsReadCache(t *testing.T, srv *Server, ts *httptest.Server, id string) []sweep.Event {
	t.Helper()
	events, final := readSweepEvents(t, ts, id, "")
	if final.Status != "done" || len(events) != final.Cells {
		t.Fatalf("sweep %s: %d events, %+v; want one per cell of a finished sweep", id, len(events), final)
	}
	for _, ev := range events {
		p, err := srv.resolve(JobSpec{Cell: ev.Spec})
		if err != nil {
			t.Fatalf("event %d: %v", ev.Seq, err)
		}
		if ev.Key != p.key {
			t.Errorf("sweep %s cell %d: event key %s, job key %s", id, ev.Cell, ev.Key, p.key)
		}
		hit, cached := srv.cache.get(p.key)
		switch ev.Status {
		case sweep.CellDone, sweep.CellDeduped:
			if !cached || len(ev.Result) == 0 || !bytes.Equal(ev.Result, hit.raw) {
				t.Errorf("sweep %s cell %d (%s): result %s, cache holds %s (cached=%v)", id, ev.Cell, ev.Status, ev.Result, hit.raw, cached)
			}
		case sweep.CellFailed:
			if ev.Error == "" || len(ev.Result) != 0 {
				t.Errorf("sweep %s cell %d failed with error %q and result %s, want an error and no result", id, ev.Cell, ev.Error, ev.Result)
			}
		default:
			t.Errorf("sweep %s cell %d: status %q in the log", id, ev.Cell, ev.Status)
		}
	}
	return events
}

// statuses lists events' statuses in cell order.
func statuses(events []sweep.Event) []sweep.CellStatus {
	out := make([]sweep.CellStatus, len(events))
	for _, ev := range events {
		out[ev.Cell] = ev.Status
	}
	return out
}

// TestEveryCompletionPathReadsTheCache: a sweep's log holds only which
// cells finished, in order; a stream reads each finished cell's key and
// result from the result cache. Every way a cell finishes is covered —
// a local run, a failure, a rider on an interactive job, dedupe at
// admission, and a resume over a cache dir after a restart — and a
// result the cache does not hold cuts the stream before that event.
func TestEveryCompletionPathReadsTheCache(t *testing.T) {
	dir := t.TempDir()
	h := newHeldRun()
	run := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		if spec.Seed == 3 {
			return JobResult{}, errors.New("boom")
		}
		return h.run(ctx, spec) // seed 1 waits for release
	}
	srv1 := mustNew(t, Config{Workers: 2, CacheDir: dir, Run: run})
	ts1 := httptest.NewServer(srv1.Handler())

	// Seed 1 is an interactive job, held; the sweep's seed-1 cell rides
	// on it, seeds 2 and 4 run here, seed 3 fails.
	_, jv := postJob(t, ts1, fakeSpec(1))
	h.awaitStart(t)
	_, first := postSweep(t, ts1, sweepGridJSON("paths", 4))
	awaitRiders(t, srv1, heldSpec, 1)
	close(h.release)
	waitSweepDone(t, ts1, first.ID, 10*time.Second)
	waitDone(t, ts1, jv.ID, 10*time.Second)
	ran := []sweep.CellStatus{sweep.CellDeduped, sweep.CellDone, sweep.CellFailed, sweep.CellDone}
	if got := statuses(eventsReadCache(t, srv1, ts1, first.ID)); !reflect.DeepEqual(got, ran) {
		t.Errorf("first sweep's statuses %v, want %v (rider, ran, failed, ran)", got, ran)
	}

	// The same cells again: all but the failed one dedupe at admission.
	_, again := postSweep(t, ts1, sweepGridJSON("again", 4))
	if again.Deduped != 3 {
		t.Errorf("resubmission deduped %d cells at admission, want 3", again.Deduped)
	}
	waitSweepDone(t, ts1, again.ID, 10*time.Second)
	admitted := []sweep.CellStatus{sweep.CellDeduped, sweep.CellDeduped, sweep.CellFailed, sweep.CellDeduped}
	if got := statuses(eventsReadCache(t, srv1, ts1, again.ID)); !reflect.DeepEqual(got, admitted) {
		t.Errorf("second sweep's statuses %v, want %v", got, admitted)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restarted over the cache dir, both sweeps resume finished and
	// stream from the cache the disk brought back.
	srv2 := mustNew(t, Config{Workers: 2, CacheDir: dir, Run: run})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for id, want := range map[string][]sweep.CellStatus{first.ID: ran, again.ID: admitted} {
		if got := statuses(eventsReadCache(t, srv2, ts2, id)); !reflect.DeepEqual(got, want) {
			t.Errorf("resumed sweep %s's statuses %v, want %v", id, got, want)
		}
	}

	// Were an entry ever without its result, the stream would end before
	// its event, without the end line.
	events, _ := readSweepEvents(t, ts2, first.ID, "")
	srv2.cache.mu.Lock()
	srv2.cache.entries[srv2.cache.index[events[1].Key]].raw = nil
	srv2.cache.mu.Unlock()
	resp, err := http.Get(ts2.URL + "/v1/sweeps/" + first.ID + "/results?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(string(body), `"seq":`); n != 1 || strings.Contains(string(body), `"end":true`) {
		t.Errorf("a result gone from the cache: %d events and end line %v, want 1 and none:\n%s",
			n, strings.Contains(string(body), `"end":true`), body)
	}
}

// TestSweepSubmitValidation: malformed and unsatisfiable specs are
// rejected with 400 and a reason, not half-admitted.
func TestSweepSubmitValidation(t *testing.T) {
	run, calls := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, MaxSweepCells: 8, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
	}{
		{"bad json", `{"grid":`},
		{"unknown field", `{"grids":{}}`},
		{"zero cells", `{"name":"x"}`},
		{"unknown trace", `{"grid":{"mixes":[["nope"]],"controllers":["no"]}}`},
		{"unknown controller", `{"grid":{"mixes":[["spec06.libquantum"]],"controllers":["nope"]}}`},
		{"over budget", sweepGridJSON("big", 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postSweep(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
		})
	}
	if calls.Load() != 0 {
		t.Errorf("rejected specs ran %d simulations", calls.Load())
	}
	if st := getStats(t, ts); st.Sweeps.Total != 0 {
		t.Errorf("rejected specs left %d sweeps tracked", st.Sweeps.Total)
	}
}

// TestRunSweepReportsAttach: client.RunSweep says whether its
// submission created the sweep. A second identical call attaches to the
// sweep the server already holds and says so, with the same results.
func TestRunSweepReportsAttach(t *testing.T) {
	run, calls := countingRun()
	srv := mustNew(t, Config{Workers: 2, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.Options{})
	spec := sweep.Spec{Name: "attach", Grid: &sweep.Grid{Mixes: [][]string{{"spec06.libquantum"}},
		Controllers: []string{"no", "bandit"}, Scales: []string{"tiny"}}}
	first, v1, created, err := c.RunSweep(context.Background(), spec)
	if err != nil || !created || v1.Done != 2 {
		t.Fatalf("first RunSweep: %+v created=%v err=%v, want the sweep created and both cells done", v1, created, err)
	}
	again, v2, created, err := c.RunSweep(context.Background(), spec)
	if err != nil || created || v2.ID != v1.ID || !reflect.DeepEqual(again, first) || calls.Load() != 2 {
		t.Errorf("second RunSweep: %+v created=%v err=%v after %d runs, want it attached to %s with the same results",
			v2, created, err, calls.Load(), v1.ID)
	}
}
