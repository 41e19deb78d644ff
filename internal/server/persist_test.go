package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

	"micromama/internal/experiment"
	"micromama/internal/persist"
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
	if lines := logLines(t, dir); len(lines) != 1 {
		t.Fatalf("persisted lines = %q, want exactly one entry", lines)
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
// valid entry, three damaged ones and an entry file of the retired
// one-file-per-entry layout: the damaged lines must move to the
// quarantine, byte for byte, and be counted, the file must be set aside
// unread, and the valid entry still loads.
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
	// valid entry whose key is no job key.
	lines := logLines(t, dir)
	valid, _ := json.Marshal(persistEntry{Key: "someotherkey", Result: JobResult{WS: 9}})
	damaged := [][]byte{[]byte(`{"key":"aaaa","result":{"ws"`), []byte("not json at all"), valid}
	writeLog(t, dir, append(damaged, lines...)...)
	var entry persistEntry
	if len(lines) != 1 || json.Unmarshal(lines[0], &entry) != nil {
		t.Fatalf("the log holds %q, want one entry", lines)
	}
	file := filepath.Join(dir, entry.Key+".json")
	if err := os.WriteFile(file, lines[0], 0o644); err != nil {
		t.Fatal(err)
	}

	run2, calls2 := countingRun()
	srv2 := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	st := getStats(t, ts2)
	if st.CacheLoaded != 1 || st.CacheQuarantined != 3 {
		t.Fatalf("loaded/quarantined = %d/%d, want 1/3", st.CacheLoaded, st.CacheQuarantined)
	}
	q, _ := os.ReadFile(filepath.Join(dir, "records.log.quarantine"))
	if want := bytes.Join(append(damaged, nil), []byte("\n")); !bytes.Equal(q, want) {
		t.Errorf("quarantine holds %q, want the damaged lines %q", q, want)
	}
	if got := logLines(t, dir); !reflect.DeepEqual(got, lines) {
		t.Errorf("the log holds %q after the start, want the valid entry alone", got)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "set-aside", filepath.Base(file))); !bytes.Equal(b, lines[0]) {
		t.Errorf("the entry file set aside as %q (%v), want its bytes", b, err)
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Errorf("the entry file still present after the start: %v", err)
	}
	if v := scrapeMetric(t, ts2, "mama_server_cache_persist_set_aside_total"); v != 1 {
		t.Errorf("mama_server_cache_persist_set_aside_total = %v, want 1", v)
	}
	// The valid entry still serves as a cache hit.
	resp, _ := postJob(t, ts2, fakeSpec(1))
	if resp.StatusCode != http.StatusOK || calls2.Load() != 0 {
		t.Errorf("valid entry not restored: HTTP %d, %d simulations", resp.StatusCode, calls2.Load())
	}
}

// TestCacheLoadRefusesNonKeys: a log line is loaded through storeResult,
// the one way a result enters a node, so a record whose key is no job key
// is quarantined like a corrupt one. It never reaches cached_keys or a
// pull page, and a job key's line beside it still loads; an entry file
// beside the log is set aside unread, whatever its key.
func TestCacheLoadRefusesNonKeys(t *testing.T) {
	dir := t.TempDir()
	good := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	bad := []string{"zzz", good[1:], good + "0"}
	var lines [][]byte
	for _, key := range append([]string{good}, bad...) {
		b, _ := json.Marshal(persistEntry{Key: key, Result: JobResult{Mix: "fake", WS: 1}})
		lines = append(lines, b)
	}
	writeLog(t, dir, lines...)
	if err := os.WriteFile(filepath.Join(dir, bad[0]+".json"), lines[1], 0o644); err != nil {
		t.Fatal(err)
	}
	n := startCluster(t, 1, func(_ int, cfg *Config) { cfg.CacheDir = dir })[0]
	st := getStats(t, n.ts)
	if st.CacheLoaded != 1 || st.CacheQuarantined != uint64(len(bad)) || st.CachedKeys != 1 {
		t.Errorf("loaded/quarantined/cached_keys = %d/%d/%d, want 1/%d/1",
			st.CacheLoaded, st.CacheQuarantined, st.CachedKeys, len(bad))
	}
	q, _ := os.ReadFile(filepath.Join(dir, "records.log.quarantine"))
	for i, key := range bad {
		if !bytes.Contains(q, append(lines[1+i], '\n')) {
			t.Errorf("%s's line not quarantined: the quarantine holds %q", key, q)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "set-aside", bad[0]+".json")); err != nil {
		t.Errorf("%s.json not set aside: %v", bad[0], err)
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
	if lines := logLines(t, dir); len(lines) != 0 {
		t.Errorf("records written despite injected failures: %q", lines)
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
	// The entry went aside: out of the log, into its quarantine.
	if lines := logLines(t, dir); len(lines) != 0 {
		t.Errorf("the log still holds %q", lines)
	}
	if q, _ := os.ReadFile(filepath.Join(dir, "records.log.quarantine")); bytes.Count(q, []byte("\n")) != 1 {
		t.Errorf("quarantine holds %q, want the one entry", q)
	}
	// The entry is gone, so the spec re-simulates — availability over
	// completeness.
	runOneJob(t, ts2, fakeSpec(1))
	if calls2.Load() != 1 {
		t.Errorf("re-simulations = %d, want 1", calls2.Load())
	}
}

// TestCorruptFileNamesAreSafe ensures a key never names a file: keys
// inside entries are attacker influenced, and they only ever feed
// comparisons, never paths. A log line claiming one is quarantined, and
// a <name>.json file holding one is set aside unread under its own name
// (which cannot hold a path separator).
func TestCorruptFileNamesAreSafe(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	evil, _ := json.Marshal(persistEntry{Key: "../../escape", Result: JobResult{}})
	if err := os.WriteFile(filepath.Join(dir, "dddd.json"), evil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir, evil)
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir, Run: run})
	defer srv.Close()
	if st := srv.Stats(); st.CacheLoaded != 0 || st.CacheQuarantined != 1 || srv.metrics.persist.SetAside.Value() != 1 {
		t.Errorf("loaded/quarantined/set aside = %d/%d/%d, want 0/1/1",
			st.CacheLoaded, st.CacheQuarantined, srv.metrics.persist.SetAside.Value())
	}
	// Nothing outside dir, and in it only the store's own files: the
	// quarantined line and the file set aside. The log, left with no
	// record, is gone.
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	want := []string{filepath.Join(dir, "records.log.quarantine"), filepath.Join(dir, "set-aside", "dddd.json")}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("files = %v, want %v", files, want)
	}
	if lines := logLines(t, dir); len(lines) != 0 {
		t.Errorf("the log still holds %q", lines)
	}
}

// TestMirrorWritesEachResultOnce: a result's log line is the bytes
// json.Marshal writes for its key and JobResult, and storing a result
// the cache already holds — a peer's write-back or a repair pull of a
// key this node ran — writes nothing.
func TestMirrorWritesEachResultOnce(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, Config{Workers: 1, CacheDir: dir})
	key := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	res := JobResult{Mix: "spec06.mcf <&> é", Controller: "mumama@jav=4", WS: 1.5, HS: 1e-9,
		Speedups: []float64{0.5, 1}, IPC: []float64{1.25, 3}, L2MPKI: []float64{12}, Prefetches: 7, SimMs: 3}
	for range 2 {
		if _, err := srv.storeResult(key, res); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	want, err := json.Marshal(struct {
		Key    string    `json:"key"`
		Result JobResult `json:"result"`
	}{key, res})
	if err != nil {
		t.Fatal(err)
	}
	if lines := logLines(t, dir); len(lines) != 1 || !bytes.Equal(lines[0], want) {
		t.Errorf("log lines %q, want one line %s", lines, want)
	}
	if w := srv.metrics.persist.Writes.Value(); w != 1 {
		t.Errorf("writes = %d, want 1", w)
	}
}

// stamp is the first line of a log this build writes.
var stamp = fmt.Sprintf(`{"format":1,"epoch":%d}`, experiment.ModelEpoch) + "\n"

// logLines returns the non-empty lines after the stamp of the disk
// mirror's log in dir (none when there is no log).
func logLines(t *testing.T, dir string) [][]byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, persist.LogName))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	b, ok := bytes.CutPrefix(b, []byte(stamp))
	if !ok && len(b) > 0 {
		t.Fatalf("the log in %s does not open with its stamp: %q", dir, b)
	}
	var lines [][]byte
	for _, l := range bytes.Split(b, []byte("\n")) {
		if len(l) > 0 {
			lines = append(lines, l)
		}
	}
	return lines
}

// writeLog makes the disk mirror's log in dir hold the stamp and lines.
func writeLog(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	b := []byte(stamp)
	for _, l := range lines {
		b = append(append(b, l...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, persist.LogName), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// latestLines returns each record's latest line in the disk mirror's
// log in dir, by the member that holds its key ("key" for a result,
// "id" for a sweep).
func latestLines(t *testing.T, dir, member string) map[string][]byte {
	t.Helper()
	latest := map[string][]byte{}
	for _, l := range logLines(t, dir) {
		var m map[string]json.RawMessage
		var key string
		if err := json.Unmarshal(l, &m); err != nil {
			t.Fatalf("log line %s: %v", l, err)
		}
		if err := json.Unmarshal(m[member], &key); err != nil {
			t.Fatalf("log line %s: %q: %v", l, member, err)
		}
		latest[key] = l
	}
	return latest
}

// TestParentStateResumes: a -cache-dir written by the commit before
// cells were read off the spec (d769a7f: its mamaserved, three sweeps
// submitted with its mamactl, SIGTERM in the middle of the third)
// resumes here as it resumed there. testdata/unstamped-d769a7f is that
// directory, one file per record — eight results; fixture-a finished (a
// grid plus an explicit cell in a padded spelling), fixture-c failed on
// its timeout, fixture-b with four cells deduped, three done and three
// pending — and resumed.<id>.ndjson what that commit's own restart over
// it streamed for each sweep before any pending cell finished.
// testdata/resume-d769a7f/cache is the same state in the stamped logs:
// adb6333's server imported the files into its logs, its workers held,
// every sweep was resubmitted at another priority and at its own (so
// each header is in the current form), a second start rewrote the logs
// to their live lines, and the stamp was prepended. Sweep IDs, job keys
// and every event line must be the same bytes: a persisted record does
// not move.
func TestParentStateResumes(t *testing.T) {
	const fixture = "testdata/resume-d769a7f"
	dir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "cache"), dir)
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

// copyTree copies the files under src to the same paths under dst and
// returns their bytes by path relative to src.
func copyTree(t *testing.T, src, dst string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	if err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path) // path is under src
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[rel] = b
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRetiredStateSetAside: a -cache-dir this build did not write is set
// aside whole and never read. testdata/unstamped-d769a7f is the
// one-file-per-entry layout d769a7f wrote, testdata/unstamped-4cf5141 the
// unstamped logs 4cf5141 wrote (both the inputs the resume fixtures were
// converted from), and the resume-4cf5141 logs restamped with the next
// model epoch are what this build leaves for the build that bumps it.
// Every file moves, byte for byte, into its store's set-aside directory;
// the server starts empty; each store's set_aside counter equals the
// files it moved; and a second start moves and loads nothing.
func TestRetiredStateSetAside(t *testing.T) {
	next := fmt.Sprintf(`{"format":1,"epoch":%d}`, experiment.ModelEpoch+1) + "\n"
	for _, src := range []string{"testdata/unstamped-d769a7f", "testdata/unstamped-4cf5141", "testdata/resume-4cf5141/cache"} {
		dir := t.TempDir()
		files := copyTree(t, src, dir)
		moved := map[string]float64{}
		for rel, b := range files {
			if restamped, ok := bytes.CutPrefix(b, []byte(stamp)); ok {
				files[rel] = append([]byte(next), restamped...)
				if err := os.WriteFile(filepath.Join(dir, rel), files[rel], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			moved[filepath.Dir(rel)]++
		}
		for start := 1; start <= 2; start++ {
			srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
			ts := httptest.NewServer(srv.Handler())
			st := getStats(t, ts)
			cache := scrapeMetric(t, ts, "mama_server_cache_persist_set_aside_total")
			sweeps := scrapeMetric(t, ts, "mama_server_sweep_persist_set_aside_total")
			ts.Close()
			srv.Close()
			if start == 2 {
				moved = map[string]float64{}
			}
			if st.CacheLoaded != 0 || st.CacheQuarantined != 0 || st.Sweeps.Resumed != 0 || st.Sweeps.Total != 0 ||
				cache != moved["."] || sweeps != moved["sweeps"] {
				t.Errorf("%s, start %d: cache_loaded=%d quarantined=%d sweeps=%+v, set aside %v results and %v sweep files; want nothing loaded, %v and %v set aside",
					src, start, st.CacheLoaded, st.CacheQuarantined, st.Sweeps, cache, sweeps, moved["."], moved["sweeps"])
			}
			for rel, want := range files {
				if _, err := os.Stat(filepath.Join(dir, rel)); !os.IsNotExist(err) {
					t.Errorf("%s, start %d: %s still in place (%v)", src, start, rel, err)
				}
				if got, err := os.ReadFile(filepath.Join(dir, filepath.Dir(rel), "set-aside", filepath.Base(rel))); !bytes.Equal(got, want) {
					t.Errorf("%s, start %d: %s set aside as %d bytes (%v), want its %d bytes", src, start, rel, len(got), err, len(want))
				}
			}
		}
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

// awaitPersistWrites waits until the sweep store and the result cache's
// store have each written exactly what is asked of them: they write
// behind, so a count is read once it settles, and one past it fails.
func awaitPersistWrites(t *testing.T, ts *httptest.Server, sweeps, results float64, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s := scrapeMetric(t, ts, "mama_server_sweep_persist_writes_total")
		r := scrapeMetric(t, ts, "mama_server_cache_persist_writes_total")
		if s > sweeps || r > results || time.Now().After(deadline) {
			t.Fatalf("%s: %v sweep lines and %v results written, want %v and %v", what, s, r, sweeps, results)
		}
		if s == sweeps && r == results {
			return
		}
	}
}

// TestSweepRecordWrittenOnce pins what the sweep log costs: a sweep's
// header is written at admission and again only on a priority change,
// and a cell writes a line of its own only when it is deduped at
// dispatch or fails — a cell that runs to its result writes nothing
// there, its result in the cache is the record of it.
func TestSweepRecordWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8, CacheDir: dir, Run: run})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, cold := postSweep(t, ts, sweepGridJSON("cold", 4))
	waitSweepDone(t, ts, cold.ID, 10*time.Second)
	awaitPersistWrites(t, ts, 1, 4, "a cold four-cell sweep")
	// sweep_warm's shape: four mixes, four controllers, 32 seeds.
	seeds := make([]string, 32)
	for i := range seeds {
		seeds[i] = fmt.Sprint(1_000_000 + i)
	}
	grid512 := func(name string) string {
		return fmt.Sprintf(`{"name":%q,"grid":{"mixes":[["spec06.libquantum"],["spec06.mcf"],["spec06.sphinx3"],["ligra.BFS"]],`+
			`"controllers":["no","bandit","mumama","pythia"],"scales":["tiny"],"seeds":[%s]}}`, name, strings.Join(seeds, ","))
	}
	_, fill := postSweep(t, ts, grid512("fill"))
	waitSweepDone(t, ts, fill.ID, 30*time.Second)
	srv.Close()
	awaitPersistWrites(t, ts, 2, 4+512, "a cold 512-cell sweep after it")

	// The restarted server answers the whole grid from the cache: one
	// header, every cell flagged deduped in its bitmap.
	srv = mustNew(t, Config{Workers: 2, QueueDepth: 8, CacheDir: dir, Run: run})
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	_, warm := postSweep(t, ts2, grid512("warm"))
	if warm.Status != "done" || warm.Deduped != 512 {
		t.Fatalf("warm resubmission %+v, want all 512 cells deduped at admission", warm)
	}
	srv.Close()
	awaitPersistWrites(t, ts2, 1, 0, "a warm 512-cell resubmission")
	line := latestLines(t, filepath.Join(dir, "sweeps"), "id")[warm.ID]
	t.Logf("a warm 512-cell sweep's line: %d bytes", len(line))
	if len(line) == 0 || len(line) > 1024 {
		t.Errorf("the warm sweep's line is %d bytes, want at most 1 KB: %s", len(line), line)
	}

	// A rider deduped at dispatch, a failed cell and a priority change
	// each add one line.
	h := newHeldRun()
	failing := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		if spec.Seed == 2 {
			return JobResult{}, errors.New("simulated failure")
		}
		return h.run(ctx, spec)
	}
	srv = mustNew(t, Config{Workers: 2, QueueDepth: 8, CacheDir: t.TempDir(), Run: failing})
	defer srv.Close()
	ts3 := httptest.NewServer(srv.Handler())
	defer ts3.Close()
	_, a := postSweep(t, ts3, sweepGridJSON("a", 1))
	h.awaitStart(t)
	_, b := postSweep(t, ts3, sweepGridJSON("b", 1))
	awaitRiders(t, srv, heldSpec, 1)
	close(h.release)
	waitSweepDone(t, ts3, a.ID, 10*time.Second)
	if v := waitSweepDone(t, ts3, b.ID, 10*time.Second); v.Deduped != 1 {
		t.Fatalf("the riding sweep finished as %+v, want its cell deduped", v)
	}
	awaitPersistWrites(t, ts3, 3, 1, "two headers and a rider")
	_, f := postSweep(t, ts3, `{"name":"f","grid":{"mixes":[["spec06.libquantum"]],"controllers":["no"],"scales":["tiny"],"seeds":[2]}}`)
	if v := waitSweepDone(t, ts3, f.ID, 10*time.Second); v.Failed != 1 {
		t.Fatalf("sweep f finished as %+v, want its cell failed", v)
	}
	awaitPersistWrites(t, ts3, 5, 1, "a failed cell")
	if resp, _ := postSweep(t, ts3, `{"name":"a","priority":5,"grid":{"mixes":[["spec06.libquantum"]],"controllers":["no"],"scales":["tiny"],"seeds":[1]}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("priority change: HTTP %d, want 200", resp.StatusCode)
	}
	awaitPersistWrites(t, ts3, 6, 1, "a priority change")
}

// TestParentLogResumes: a -cache-dir in the one-log layout written by
// the commit before a sweep's record was written once (4cf5141: its
// server, a fake run, the directory copied while the process ran, as a
// crash leaves it) resumes here as it resumed there.
// testdata/unstamped-4cf5141 is that directory: seven results, and a
// sweep log of status snapshots, superseded ones among them, of three
// sweeps — fixture-finished, four cells done; fixture-failed, one cell
// failed and one done; fixture-midrun, two cells deduped at admission,
// two done, two running and two pending. resumed.<id>.ndjson is what
// that commit's own restart over it streamed for each sweep before any
// cell left to run finished. testdata/resume-4cf5141/cache is the same
// state in stamped logs of headers, converted as TestParentStateResumes
// says. Every event line must be the same bytes, and the counts the same
// counts.
func TestParentLogResumes(t *testing.T) {
	const fixture = "testdata/resume-4cf5141"
	dir := t.TempDir()
	copyTree(t, filepath.Join(fixture, "cache"), dir)
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st := getStats(t, ts)
	if st.CacheLoaded != 7 || st.CacheQuarantined != 0 || st.Sweeps.Resumed != 3 ||
		st.Sweeps.CellsPending != 2 || st.Sweeps.CellsRunning != 2 || st.Sweeps.CellsDone != 7 ||
		st.Sweeps.CellsDeduped != 2 || st.Sweeps.CellsFailed != 1 {
		t.Fatalf("restored cache_loaded=%d quarantined=%d sweeps=%+v, want 7 results and 3 sweeps: "+
			"7 cells done, 2 deduped, 1 failed, 2 running and 2 pending", st.CacheLoaded, st.CacheQuarantined, st.Sweeps)
	}
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
		if gotLines, wantLines := eventLines(got), eventLines(want); len(gotLines) == 0 || !reflect.DeepEqual(gotLines, wantLines) {
			t.Errorf("sweep %s resumes as\n%s\nthe parent resumed it as\n%s", id, got, want)
		}
	}

	close(release)
	const midrun = "s87f12f702fcb65b4"
	final := waitSweepDone(t, ts, midrun, 15*time.Second)
	if final.Deduped != 2 || final.Done != 6 || final.Failed != 0 || calls.Load() != 4 {
		t.Errorf("fixture-midrun finished as %+v after %d runs, want 2 deduped + 6 done after 4", final, calls.Load())
	}
	srv.Close()

	// A second restart finds every sweep finished without running
	// anything.
	srv = mustNew(t, Config{Workers: 2, QueueDepth: 4, CacheDir: dir, Run: held})
	defer srv.Close()
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	if st := getStats(t, ts2); st.Sweeps.Resumed != 3 || st.Sweeps.Active != 0 || st.Sweeps.CellsDone != 11 ||
		st.Sweeps.CellsDeduped != 2 || st.Sweeps.CellsFailed != 1 || calls.Load() != 4 {
		t.Errorf("second restart: sweeps=%+v after %d runs, want 3 finished sweeps, 11 cells done, 2 deduped, 1 failed after 4",
			st.Sweeps, calls.Load())
	}
}
