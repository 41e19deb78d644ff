package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"micromama/internal/sweep"
)

// The result cache is also the node's key table: a sweep names each of
// its cells by a handle into it, and an entry may hold a key whose
// result does not exist yet. These tests pin what that may and may not
// show.

// tableSize is how many keys the cache holds, with a result or without.
func tableSize(srv *Server) int {
	srv.cache.mu.RLock()
	defer srv.cache.mu.RUnlock()
	return len(srv.cache.entries)
}

// handleOf is key's handle and whether its entry has a result yet.
func handleOf(t *testing.T, srv *Server, key string) (uint32, bool) {
	t.Helper()
	srv.cache.mu.RLock()
	defer srv.cache.mu.RUnlock()
	h, ok := srv.cache.index[key]
	if !ok {
		t.Fatalf("key %s holds no handle", key)
	}
	return h, srv.cache.entries[h].raw != nil
}

// internKeys hands out a handle per job key, as admission does, adding
// an entry without a result for each key not held yet.
func internKeys(srv *Server, keys ...string) []uint32 {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	hs := make([]uint32, len(keys))
	for i, key := range keys {
		h, ok := srv.cache.index[key]
		if !ok {
			h = srv.cache.addLocked(key)
		}
		hs[i] = h
	}
	return hs
}

// TestRefusedSweepInternsNothing: a sweep refused at cell k — here the
// third of four, after two never-seen cells — leaves the key table as
// it was.
func TestRefusedSweepInternsNothing(t *testing.T) {
	run, _ := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, v := postSweep(t, ts, sweepGridJSON("warm", 2))
	waitSweepDone(t, ts, v.ID, 10*time.Second)
	before := tableSize(srv)
	if before != 2 {
		t.Fatalf("a 2-cell sweep left %d keys in the table", before)
	}
	cell := func(seed uint64, ctrl string) JobSpec {
		return JobSpec{Cell: sweep.Cell{Mix: []string{"spec06.libquantum"}, Controller: ctrl, Scale: "tiny", Seed: seed}}
	}
	body := cellsJSON("refused", []JobSpec{cell(5, "no"), cell(6, "no"), cell(7, "nope"), cell(8, "no")})
	if resp, _ := postSweep(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep with a bad third cell: HTTP %d, want 400", resp.StatusCode)
	}
	if got := tableSize(srv); got != before {
		t.Errorf("a refused sweep took the table from %d keys to %d", before, got)
	}
}

// TestEntryWithoutResultIsInvisible: a key admitted without a result is
// in the table and nowhere else — not in cached_keys, not in the disk
// mirror or what a restart loads from it, not on a pull page and not in
// a lookup answer — while a key with a result is in all of them.
func TestEntryWithoutResultIsInvisible(t *testing.T) {
	dir := t.TempDir()
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.CacheDir = dir
		}
	})
	a, b := nodes[0], nodes[1]
	// Two job keys owned by b, so a's pull page for b may carry either.
	var keys []string
	for i := 0; len(keys) < 2; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("key-table-", i)))
		if a.srv.cl.c.Owner(fmt.Sprintf("%x", sum)) == b.url {
			keys = append(keys, fmt.Sprintf("%x", sum))
		}
	}
	bare, full := keys[0], keys[1]
	hs := internKeys(a.srv, bare, full)
	if _, err := a.srv.storeResult(full, JobResult{Mix: "full", WS: 1}); err != nil {
		t.Fatal(err)
	}
	if h, filled := handleOf(t, a.srv, full); h != hs[1] || !filled {
		t.Fatalf("storeResult did not fill the interned entry: handle %d (interned %d), filled %v", h, hs[1], filled)
	}
	if _, filled := handleOf(t, a.srv, bare); filled {
		t.Fatal("an entry nobody stored into has a result")
	}

	if st := getStats(t, a.ts); st.CachedKeys != 1 {
		t.Errorf("cached_keys = %d, want 1", st.CachedKeys)
	}
	if ks := a.srv.cache.keysSorted(); len(ks) != 1 || ks[0] != full {
		t.Errorf("the pull scan's keys are %v, want just %s", ks, full)
	}
	page := pullPage(t, a.srv.Handler(), cachePullRequest{Owner: b.url, Max: 16})
	if _, ok := page.Results[bare]; ok || len(page.Results) != 1 {
		t.Errorf("pull page holds %d results (bare key among them: %v), want the one result", len(page.Results), ok)
	}
	lookupBody, _ := json.Marshal(cacheLookupRequest{Keys: keys})
	rec := httptest.NewRecorder()
	a.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/cache/lookup", bytes.NewReader(lookupBody)))
	var answer cacheLookupResponse[JobResult]
	if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("lookup: HTTP %d err %v", rec.Code, err)
	}
	if _, ok := answer.Results[bare]; ok || len(answer.Results) != 1 {
		t.Errorf("lookup answered %d results (bare key among them: %v), want the one result", len(answer.Results), ok)
	}

	a.kill() // flushes the mirror
	if _, err := os.Stat(filepath.Join(dir, bare+".json")); !os.IsNotExist(err) {
		t.Errorf("the disk mirror holds the bare key: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, full+".json")); err != nil {
		t.Errorf("the disk mirror lacks the stored result: %v", err)
	}
	srv := mustNew(t, Config{Workers: 1, CacheDir: dir})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if st := getStats(t, ts); st.CacheLoaded != 1 || st.CachedKeys != 1 || tableSize(srv) != 1 {
		t.Errorf("restart loaded %d, cached_keys %d, table %d; want 1 each", st.CacheLoaded, st.CachedKeys, tableSize(srv))
	}
}

// TestColdCellTakesHandleFirst: a cold cell's key takes its handle at
// admission, before its result exists; while it runs, the entry has no
// result and the cache reports no hit; storeResult then fills that same
// entry, which the stream reads.
func TestColdCellTakesHandleFirst(t *testing.T) {
	h := newHeldRun()
	srv := mustNew(t, Config{Workers: 2, Run: h.run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	p, err := srv.resolve(heldSpec)
	if err != nil {
		t.Fatal(err)
	}

	_, v := postSweep(t, ts, sweepGridJSON("cold", 2))
	h.awaitStart(t)
	handle, filled := handleOf(t, srv, p.key)
	if filled {
		t.Fatal("the running cell's entry already has a result")
	}
	if _, ok := srv.cache.get(p.key); ok {
		t.Error("the cache reports a hit for a key whose result does not exist yet")
	}
	close(h.release)
	waitSweepDone(t, ts, v.ID, 10*time.Second)

	if again, filled := handleOf(t, srv, p.key); again != handle || !filled {
		t.Errorf("after the run: handle %d filled %v, want handle %d filled", again, filled, handle)
	}
	if n := tableSize(srv); n != 2 {
		t.Errorf("a 2-cell sweep left %d keys in the table", n)
	}
	for _, ev := range eventsReadCache(t, srv, ts, v.ID) {
		if ev.Key == p.key && (ev.Status != sweep.CellDone || len(ev.Result) == 0) {
			t.Errorf("the held cell streamed %+v, want done with its result", ev)
		}
	}
}

// TestClusterColdCellTakesHandleFirst is the same on three nodes. The
// coordinator has one slot per peer and sends both cells, owned by the
// third node, out: one runs on its owner, the other on the second node,
// which writes it back to the owner. On the coordinator each key holds
// its handle, without a result, while it runs, and the result that
// comes back fills that entry.
func TestClusterColdCellTakesHandleFirst(t *testing.T) {
	started, release := make(chan struct{}, 4), make(chan struct{})
	held := func(ctx context.Context, spec JobSpec) (JobResult, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
			return JobResult{}, ctx.Err()
		}
		return JobResult{Mix: fmt.Sprint("seed-", spec.Seed), WS: float64(spec.Seed)}, nil
	}
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.Run = held
		if i == 0 {
			cfg.RemotePeerSlots = 1
		}
	})
	a, owner := nodes[0], nodes[2]
	specs := specsOwnedBy(t, a, owner.url, 2)
	keys := make([]string, len(specs))
	for i, spec := range specs {
		p, err := a.srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = p.key
	}

	_, v := postSweep(t, a.ts, cellsJSON("cold", specs))
	for range specs {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("a cell never started")
		}
	}
	handles := make([]uint32, len(keys))
	for i, key := range keys {
		var filled bool
		if handles[i], filled = handleOf(t, a.srv, key); filled {
			t.Fatalf("cell %d's entry has a result while it runs", i)
		}
	}
	close(release)
	waitSweepDone(t, a.ts, v.ID, 10*time.Second)

	if _, acl := clusterStats(t, a); acl.RemoteCells != 2 {
		t.Errorf("the coordinator sent %d cells out, want 2", acl.RemoteCells)
	}
	for i, key := range keys {
		if h, filled := handleOf(t, a.srv, key); h != handles[i] || !filled {
			t.Errorf("cell %d after the run: handle %d filled %v, want handle %d filled", i, h, filled, handles[i])
		}
	}
	eventsReadCache(t, a.srv, a.ts, v.ID)
	// The owner holds both results: its own run's and the write-back.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, ok0 := owner.srv.cache.get(keys[0])
		_, ok1 := owner.srv.cache.get(keys[1])
		if ok0 && ok1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the owner holds results %v/%v, want both", ok0, ok1)
		}
	}
	if _, bcl := clusterStats(t, nodes[1]); bcl.Writebacks != 1 {
		t.Errorf("the second node wrote back %d results, want 1", bcl.Writebacks)
	}
}
