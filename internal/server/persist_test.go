package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/sweep"
)

// countingRun returns a fake runFunc and a pointer to its call count.
func countingRun() (runFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(ctx context.Context, spec JobSpec) (JobResult, error) {
		calls.Add(1)
		return JobResult{Mix: "fake", WS: 2.5}, nil
	}, &calls
}

// runOneJob submits spec and waits for completion, returning the job ID.
func runOneJob(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, view := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	body := waitDone(t, ts, view.ID, 10*time.Second)
	if body.Status != StatusDone {
		t.Fatalf("job finished as %q (%s)", body.Status, body.Error)
	}
	return view.ID
}

// TestPersistRoundTrip is the restart-recovers-cache contract: run a
// job with -cache-dir, shut down (flushing write-behind), start a new
// server on the same dir, and the identical spec must be served as a
// cache hit without re-simulation.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run1, calls1 := countingRun()
	srv1 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run1})
	ts1 := httptest.NewServer(srv1.Handler())
	id := runOneJob(t, ts1, fakeSpec(1))
	ts1.Close()
	srv1.Close() // drain + flush

	if calls1.Load() != 1 {
		t.Fatalf("first server ran %d simulations, want 1", calls1.Load())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted files = %v (err %v), want exactly one entry", files, err)
	}

	// "Restart": a fresh server over the same dir must not re-simulate.
	run2, calls2 := countingRun()
	srv2 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, view := postJob(t, ts2, fakeSpec(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart submit: HTTP %d, want 200 (cache hit)", resp.StatusCode)
	}
	if view.ID != id {
		t.Fatalf("post-restart job ID %s, want %s (content-addressed)", view.ID, id)
	}
	if !view.Cached {
		t.Error("post-restart view not flagged cached")
	}
	code, body := getResult(t, ts2, view.ID)
	if code != http.StatusOK || body.Result == nil || body.Result.WS != 2.5 {
		t.Fatalf("restored result wrong: HTTP %d %+v", code, body.Result)
	}
	if calls2.Load() != 0 {
		t.Errorf("second server ran %d simulations, want 0", calls2.Load())
	}
	st := getStats(t, ts2)
	if st.CacheLoaded != 1 || st.CacheQuarantined != 0 || st.CacheHits != 1 {
		t.Errorf("stats loaded/quarantined/hits = %d/%d/%d, want 1/0/1",
			st.CacheLoaded, st.CacheQuarantined, st.CacheHits)
	}
}

// TestPersistQuarantine starts a server over a cache dir holding one
// valid entry and three damaged ones; the damaged files must be
// renamed aside and counted while the valid entry still loads.
func TestPersistQuarantine(t *testing.T) {
	dir := t.TempDir()

	// Produce one valid entry the honest way.
	run1, _ := countingRun()
	srv1 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run1})
	ts1 := httptest.NewServer(srv1.Handler())
	runOneJob(t, ts1, fakeSpec(1))
	ts1.Close()
	srv1.Close()

	// Damage: truncated JSON, non-JSON garbage, and a syntactically
	// valid entry whose key does not match its file name.
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	valid, _ := json.Marshal(persistEntry{Key: "someotherkey", Result: JobResult{WS: 9}})
	writeFile("aaaa.json", `{"key":"aaaa","result":{"ws"`) // truncated (torn write)
	writeFile("bbbb.json", "not json at all")
	writeFile("cccc.json", string(valid)) // key/file mismatch

	run2, calls2 := countingRun()
	srv2 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	st := getStats(t, ts2)
	if st.CacheLoaded != 1 || st.CacheQuarantined != 3 {
		t.Fatalf("loaded/quarantined = %d/%d, want 1/3", st.CacheLoaded, st.CacheQuarantined)
	}
	for _, name := range []string{"aaaa", "bbbb", "cccc"} {
		if _, err := os.Stat(filepath.Join(dir, name+".json.quarantine")); err != nil {
			t.Errorf("%s.json not quarantined: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".json")); !os.IsNotExist(err) {
			t.Errorf("%s.json still present after quarantine", name)
		}
	}
	// The valid entry still serves as a cache hit.
	resp, _ := postJob(t, ts2, fakeSpec(1))
	if resp.StatusCode != http.StatusOK || calls2.Load() != 0 {
		t.Errorf("valid entry not restored: HTTP %d, %d simulations", resp.StatusCode, calls2.Load())
	}
}

// TestCacheLoadRefusesNonKeys: a cache file is loaded through
// storeResult, the one way a result enters a node, so a record whose key
// matches its file name but is no job key is quarantined like a corrupt
// one. It never reaches cached_keys or a pull page, and a job key's file
// beside it still loads.
func TestCacheLoadRefusesNonKeys(t *testing.T) {
	dir := t.TempDir()
	good := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	bad := []string{"zzz", good[1:], good + "0"}
	for _, key := range append([]string{good}, bad...) {
		b, _ := json.Marshal(persistEntry{Key: key, Result: JobResult{Mix: "fake", WS: 1}})
		if err := os.WriteFile(filepath.Join(dir, key+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n := startCluster(t, 1, func(_ int, cfg *Config) { cfg.CacheDir = dir })[0]
	st := getStats(t, n.ts)
	if st.CacheLoaded != 1 || st.CacheQuarantined != uint64(len(bad)) || st.CachedKeys != 1 {
		t.Errorf("loaded/quarantined/cached_keys = %d/%d/%d, want 1/%d/1",
			st.CacheLoaded, st.CacheQuarantined, st.CachedKeys, len(bad))
	}
	for _, key := range bad {
		if _, err := os.Stat(filepath.Join(dir, key+".json.quarantine")); err != nil {
			t.Errorf("%s.json not quarantined: %v", key, err)
		}
	}
	page := pullPage(t, n.srv.Handler(), cachePullRequest{Owner: n.url, Max: 16})
	if _, ok := page.Results[good]; !ok || len(page.Results) != 1 {
		t.Errorf("pull page holds %d results (the job key among them: %v), want just the job key", len(page.Results), ok)
	}
}

// TestPersistWriteFault injects persistent write failures and checks
// they are counted and contained: serving is unaffected and nothing is
// written.
func TestPersistWriteFault(t *testing.T) {
	enableFault(t, "server/cache/persist-write", "always")
	dir := t.TempDir()
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run})
	ts := httptest.NewServer(srv.Handler())
	runOneJob(t, ts, fakeSpec(1))

	// In-memory cache still works while persistence fails.
	resp, _ := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-memory cache hit: HTTP %d, want 200", resp.StatusCode)
	}
	if v := scrapeMetric(t, ts, "mama_server_cache_persist_errors_total"); v < 1 {
		t.Errorf("persist errors = %v, want >= 1", v)
	}
	ts.Close()
	srv.Close()
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 0 {
		t.Errorf("files written despite injected failures: %v", files)
	}
}

// TestPersistReadFault injects read failures at load time: entries are
// quarantined exactly like corrupt files and startup proceeds.
func TestPersistReadFault(t *testing.T) {
	dir := t.TempDir()
	run1, _ := countingRun()
	srv1 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run1})
	ts1 := httptest.NewServer(srv1.Handler())
	runOneJob(t, ts1, fakeSpec(1))
	ts1.Close()
	srv1.Close()

	enableFault(t, "server/cache/persist-read", "always")
	run2, calls2 := countingRun()
	srv2 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	st := getStats(t, ts2)
	if st.CacheLoaded != 0 || st.CacheQuarantined != 1 {
		t.Fatalf("loaded/quarantined = %d/%d, want 0/1", st.CacheLoaded, st.CacheQuarantined)
	}
	// The entry is gone, so the spec re-simulates — availability over
	// completeness.
	runOneJob(t, ts2, fakeSpec(1))
	if calls2.Load() != 1 {
		t.Errorf("re-simulations = %d, want 1", calls2.Load())
	}
}

// TestCorruptFileNamesAreSafe ensures quarantine file naming cannot
// escape the cache dir (a *.json file with path separators cannot exist
// as a single directory entry, but keys inside entries are attacker
// influenced — they only ever feed comparisons, never paths).
func TestCorruptFileNamesAreSafe(t *testing.T) {
	dir := t.TempDir()
	evil, _ := json.Marshal(persistEntry{Key: "../../escape", Result: JobResult{}})
	if err := os.WriteFile(filepath.Join(dir, "dddd.json"), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run})
	defer srv.Close()
	// The mismatched key is quarantined in place; nothing outside dir.
	if _, err := os.Stat(filepath.Join(dir, "dddd.json.quarantine")); err != nil {
		t.Errorf("evil-key entry not quarantined: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Ignore the server's own subdirectories (sweeps/); the assertion is
	// about files: nothing but the quarantined entry may survive.
	var files []string
	for _, de := range entries {
		if !de.IsDir() {
			files = append(files, de.Name())
		}
	}
	if len(files) != 1 || !strings.HasSuffix(files[0], ".quarantine") {
		t.Errorf("cache dir files = %v, want just the quarantined file", files)
	}
}

// TestParentStateResumes: a -cache-dir written by the commit before
// cells were read off the spec (d769a7f: its mamaserved, three sweeps
// submitted with its mamactl, SIGTERM in the middle of the third)
// resumes here as it resumed there. testdata/resume-d769a7f/cache is
// that directory — eight results; fixture-a finished (a grid plus an
// explicit cell in a padded spelling), fixture-c failed on its timeout,
// fixture-b with four cells deduped, three done and three pending — and
// resumed.<id>.ndjson what that commit's own restart over it streamed
// for each sweep before any pending cell finished. Sweep IDs, job keys
// (they are the cache's file names) and every event line must be the
// same bytes: a persisted record does not move.
func TestParentStateResumes(t *testing.T) {
	const fixture = "testdata/resume-d769a7f"
	dir := t.TempDir()
	src := filepath.Join(fixture, "cache")
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	run, calls := countingRun()
	release := make(chan struct{})
	held := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		select {
		case <-release:
			return run(ctx, spec)
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		}
	}
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 4, CacheDir: dir, Run: held})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if st := getStats(t, ts); st.CacheLoaded != 8 || st.CacheQuarantined != 0 || st.Sweeps.Resumed != 3 || st.Sweeps.CellsPending+st.Sweeps.CellsRunning != 3 {
		t.Fatalf("restored cache_loaded=%d quarantined=%d sweeps=%+v, want 8 results, 3 sweeps, 3 cells left to run",
			st.CacheLoaded, st.CacheQuarantined, st.Sweeps)
	}
	// While the three pending cells are held at the door, each sweep's
	// stream is what the parent's restart streamed, line for line.
	streams, err := filepath.Glob(filepath.Join(fixture, "resumed.*.ndjson"))
	if err != nil || len(streams) != 3 {
		t.Fatalf("fixture streams: %v, %v", streams, err)
	}
	for _, path := range streams {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "resumed."), ".ndjson")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results?follow=0")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %s: HTTP %d, %v", id, resp.StatusCode, err)
		}
		gotLines, wantLines := eventLines(got), eventLines(want)
		if len(gotLines) == 0 || !reflect.DeepEqual(gotLines, wantLines) {
			t.Errorf("sweep %s resumes as\n%s\nthe parent resumed it as\n%s", id, got, want)
		}
	}

	close(release)
	const fixtureB = "s5aed207891b499ef"
	final := waitSweepDone(t, ts, fixtureB, 15*time.Second)
	if final.Deduped != 4 || final.Done != 6 || final.Failed != 0 || calls.Load() != 3 {
		t.Errorf("fixture-b finished as %+v after %d runs, want 4 deduped + 6 done after 3", final, calls.Load())
	}
}

// eventLines is a result stream without its end marker (which carries
// the time the sweep finished on the server that streams it).
func eventLines(stream []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"end":true`) {
			lines = append(lines, sc.Text())
		}
	}
	return lines
}
