package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/sweep"
)

// The same-key tests pin what the job registry guarantees when one
// content key is wanted by several parties at once: it simulates at
// most once, and every party is told the same thing. Each holds the run
// func on a channel, so the interleaving under test is the one that
// happens. `make chaos` repeats them 20 times under -race.

// heldRun is a run func for seed 1 that blocks until release is closed
// (or its context ends) and then answers with outcome; every other seed
// answers at once. started receives a token per seed-1 execution.
type heldRun struct {
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
	outcome func(call int64) (JobResult, error)
}

func newHeldRun() *heldRun {
	return &heldRun{
		started: make(chan struct{}, 8), // more than any test starts
		release: make(chan struct{}),
		outcome: func(int64) (JobResult, error) { return JobResult{Mix: "held", WS: 1.5, HS: 1.25}, nil },
	}
}

func (h *heldRun) run(ctx context.Context, spec JobSpec) (JobResult, error) {
	if spec.Seed != 1 {
		return JobResult{Mix: "other", WS: 1}, nil
	}
	n := h.calls.Add(1)
	h.started <- struct{}{}
	select {
	case <-h.release:
		return h.outcome(n)
	case <-ctx.Done():
		return JobResult{}, ctx.Err()
	}
}

func (h *heldRun) awaitStart(t *testing.T) {
	t.Helper()
	select {
	case <-h.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the held run never started")
	}
}

// heldSpec is the spec heldRun holds: sweepGridJSON's and fakeSpec's seed 1.
var heldSpec = JobSpec{Cell: sweep.Cell{Mix: []string{"spec06.libquantum"}, Controller: "no", Scale: "tiny", Seed: 1}}

// awaitRiders blocks until n sweep tickets ride on the registry's job
// for spec — the point after which releasing the run exercises the
// attach path, not a cache hit.
func awaitRiders(t *testing.T, srv *Server, spec JobSpec, n int) *job {
	t.Helper()
	p, err := srv.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, ok := srv.jobByID(p.id); ok {
			j.mu.Lock()
			riders := len(j.riders)
			j.mu.Unlock()
			if riders == n {
				return j
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never collected %d riders", p.id, n)
		}
	}
}

// onlyEvent returns a finished one-cell sweep's single event.
func onlyEvent(t *testing.T, ts *httptest.Server, id string) sweep.Event {
	t.Helper()
	events, _ := readSweepEvents(t, ts, id, "")
	if len(events) != 1 {
		t.Fatalf("sweep %s logged %d events, want exactly 1: %+v", id, len(events), events)
	}
	return events[0]
}

// TestSameKeyRunsOnce: two sweeps share a cell and an interactive POST
// of the same spec arrives while it runs. One simulation; the sweep
// that dequeued first is done, the other deduped with the same bytes,
// and the interactive waiter reads the same result.
func TestSameKeyRunsOnce(t *testing.T) {
	h := newHeldRun()
	srv := mustNew(t, Config{Workers: 2, Run: h.run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, a := postSweep(t, ts, sweepGridJSON("a", 1))
	h.awaitStart(t)
	_, b := postSweep(t, ts, sweepGridJSON("b", 1))
	awaitRiders(t, srv, heldSpec, 1)
	resp, jv := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusAccepted || jv.Status != StatusRunning {
		t.Fatalf("interactive submit: HTTP %d status %q, want 202 running", resp.StatusCode, jv.Status)
	}
	// All three observers see the one execution as running.
	for _, id := range []string{a.ID, b.ID} {
		if v := getSweepView(t, ts, id); v.Running != 1 || v.Pending != 0 {
			t.Errorf("sweep %s: running %d pending %d, want 1/0", id, v.Running, v.Pending)
		}
	}

	close(h.release)
	waitSweepDone(t, ts, a.ID, 10*time.Second)
	waitSweepDone(t, ts, b.ID, 10*time.Second)
	body := waitDone(t, ts, jv.ID, 10*time.Second)

	if n := h.calls.Load(); n != 1 {
		t.Errorf("run func called %d times, want 1", n)
	}
	if st := getStats(t, ts); st.DedupHits != 1 || st.Completed != 1 {
		t.Errorf("dedup_hits %d completed %d, want 1/1", st.DedupHits, st.Completed)
	}
	evA, evB := onlyEvent(t, ts, a.ID), onlyEvent(t, ts, b.ID)
	if evA.Status != sweep.CellDone || evB.Status != sweep.CellDeduped {
		t.Errorf("event statuses %q/%q, want done/deduped", evA.Status, evB.Status)
	}
	if !bytes.Equal(evA.Result, evB.Result) || len(evA.Result) == 0 {
		t.Errorf("results differ: %s vs %s", evA.Result, evB.Result)
	}
	if body.Status != StatusDone || body.Result == nil {
		t.Fatalf("interactive waiter read %q (%s), want done", body.Status, body.Error)
	}
	if got, _ := json.Marshal(body.Result); !bytes.Equal(got, evA.Result) {
		t.Errorf("interactive result %s differs from the sweeps' %s", got, evA.Result)
	}
}

// TestSameKeyFailureIsTheRunnersAlone: the shared run fails. The ticket
// that ran is failed, the interactive waiter coalesced onto that run
// reads failed, and the cell that was only riding gets its own run.
func TestSameKeyFailureIsTheRunnersAlone(t *testing.T) {
	h := newHeldRun()
	ok := h.outcome
	h.outcome = func(call int64) (JobResult, error) {
		if call == 1 {
			return JobResult{}, errors.New("simulated failure")
		}
		return ok(call)
	}
	srv := mustNew(t, Config{Workers: 2, Run: h.run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, a := postSweep(t, ts, sweepGridJSON("a", 1))
	h.awaitStart(t)
	_, b := postSweep(t, ts, sweepGridJSON("b", 1))
	shared := awaitRiders(t, srv, heldSpec, 1)
	if resp, jv := postJob(t, ts, fakeSpec(1)); resp.StatusCode != http.StatusAccepted || jv.ID != shared.id {
		t.Fatalf("interactive submit: HTTP %d job %s, want 202 on the shared job %s", resp.StatusCode, jv.ID, shared.id)
	}
	if st := getStats(t, ts); st.DedupHits != 1 {
		t.Fatalf("dedup_hits = %d, want 1", st.DedupHits)
	}

	close(h.release) // the rider's own run finds it closed and answers at once
	// The waiter holds the job it coalesced onto; the registry entry under
	// the same ID is replaced as soon as the rider's rerun is admitted.
	<-shared.done
	if v := shared.view(); v.Status != StatusFailed || !strings.Contains(v.Error, "simulated failure") {
		t.Errorf("interactive waiter reads %q (%q), want failed with the run's error", v.Status, v.Error)
	}
	fa := waitSweepDone(t, ts, a.ID, 10*time.Second)
	fb := waitSweepDone(t, ts, b.ID, 10*time.Second)
	if fa.Failed != 1 || fb.Done != 1 {
		t.Errorf("sweep a failed %d, sweep b done %d; want 1/1", fa.Failed, fb.Done)
	}
	if ev := onlyEvent(t, ts, a.ID); ev.Status != sweep.CellFailed || !strings.Contains(ev.Error, "simulated failure") {
		t.Errorf("sweep a event = %+v, want failed with the run's error", ev)
	}
	if ev := onlyEvent(t, ts, b.ID); ev.Status != sweep.CellDone || len(ev.Result) == 0 {
		t.Errorf("sweep b event = %+v, want done with a result", ev)
	}
	if n := h.calls.Load(); n != 2 {
		t.Errorf("run func called %d times, want 2 (the failure, then the rider's own)", n)
	}
}

// TestSameKeyDrainMidRun: shutdown cancels the shared run. Both cells —
// the one that ran and the one riding — persist as pending, and after a
// restart each completes exactly once on one simulation.
func TestSameKeyDrainMidRun(t *testing.T) {
	dir := t.TempDir()
	h := newHeldRun()
	srv1 := mustNew(t, Config{Workers: 2, CacheDir: dir, Run: h.run})
	ts1 := httptest.NewServer(srv1.Handler())
	_, a := postSweep(t, ts1, sweepGridJSON("a", 1))
	h.awaitStart(t)
	_, b := postSweep(t, ts1, sweepGridJSON("b", 1))
	awaitRiders(t, srv1, heldSpec, 1)
	ts1.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv1.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("shutdown past its deadline returned %v, want context.Canceled", err)
	}
	for _, id := range []string{a.ID, b.ID} {
		raw, err := os.ReadFile(filepath.Join(dir, "sweeps", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Status []sweep.CellStatus `json:"status"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil || len(rec.Status) != 1 || rec.Status[0] != sweep.CellPending {
			t.Errorf("sweep %s persisted as %s (err %v), want its one cell pending", id, raw, err)
		}
	}

	run2, calls2 := countingRun()
	srv2 := mustNew(t, Config{Workers: 2, CacheDir: dir, Run: run2})
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitSweepDone(t, ts2, a.ID, 10*time.Second)
	waitSweepDone(t, ts2, b.ID, 10*time.Second)
	statuses := map[sweep.CellStatus]int{}
	for _, id := range []string{a.ID, b.ID} {
		statuses[onlyEvent(t, ts2, id).Status]++
	}
	if statuses[sweep.CellDone] != 1 || statuses[sweep.CellDeduped] != 1 {
		t.Errorf("restarted cells finished as %v, want one done and one deduped", statuses)
	}
	if n := calls2.Load(); n != 1 {
		t.Errorf("restarted server ran %d simulations, want 1", n)
	}
}

// TestSameKeyCacheFillsBeforeDispatch: a cell is admitted cold, and its
// result reaches the cache (here the way a peer's write-back does)
// before a worker gets to it. The cell completes deduped; nothing runs.
func TestSameKeyCacheFillsBeforeDispatch(t *testing.T) {
	var ran atomic.Int64
	busy, release := make(chan struct{}), make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
		if spec.Seed == 1 {
			ran.Add(1)
			return JobResult{Mix: "ran"}, nil
		}
		close(busy)
		<-release
		return JobResult{Mix: "wedge"}, nil
	}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJob(t, ts, fakeSpec(99)) // holds the only worker
	<-busy
	_, sv := postSweep(t, ts, sweepGridJSON("late", 1))
	if sv.Pending != 1 {
		t.Fatalf("cold cell admitted as %+v, want pending", sv)
	}
	p, err := srv.resolve(heldSpec)
	if err != nil {
		t.Fatal(err)
	}
	filled := JobResult{Mix: "filled", WS: 3.5}
	srv.storeResult(p.key, filled)
	close(release)

	if final := waitSweepDone(t, ts, sv.ID, 10*time.Second); final.Deduped != 1 {
		t.Errorf("final view %+v, want the cell deduped", final)
	}
	want, _ := json.Marshal(filled)
	if ev := onlyEvent(t, ts, sv.ID); ev.Status != sweep.CellDeduped || !bytes.Equal(ev.Result, want) {
		t.Errorf("event %+v, want deduped carrying %s", ev, want)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("run func called %d times for the filled key, want 0", n)
	}
}

// postForwarded submits a job to n marked as already routed, so n
// handles it itself whoever owns the key.
func postForwarded(t *testing.T, n *clusterNode, spec []byte) (int, JobView) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, n.ts.URL+"/v1/jobs", bytes.NewReader(spec))
	req.Header.Set(cluster.HeaderForwarded, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return resp.StatusCode, view
}

// wedgedCluster boots a coordinator whose only worker is wedged behind
// an interactive job, so every cell it admits leaves for the one peer,
// whose runs signal started and wait for finish. unwedge releases the
// coordinator's worker.
func wedgedCluster(t *testing.T, coordSims, peerSims *atomic.Int64) (coord, peer *clusterNode, started, finish chan struct{}, unwedge func()) {
	t.Helper()
	wedged, release := make(chan struct{}), make(chan struct{})
	started, finish = make(chan struct{}, 8), make(chan struct{})
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		if i == 1 {
			cfg.Run = func(ctx context.Context, spec JobSpec) (JobResult, error) {
				started <- struct{}{}
				select {
				case <-finish:
				case <-ctx.Done():
				}
				return pureRun(peerSims, 0)(ctx, spec)
			}
			return
		}
		cfg.Workers = 1
		cfg.RemotePeerSlots = 2 // room to dequeue the second sweep's cell while the first is out
		cfg.Run = func(ctx context.Context, spec JobSpec) (JobResult, error) {
			if spec.Seed == 9999 {
				close(wedged)
				select {
				case <-release:
				case <-ctx.Done():
				}
				return JobResult{Mix: "wedge"}, nil
			}
			return pureRun(coordSims, 0)(ctx, spec)
		}
	})
	postForwarded(t, nodes[0], []byte(fakeSpec(9999)))
	<-wedged
	return nodes[0], nodes[1], started, finish, sync.OnceFunc(func() { close(release) })
}

// awaitPeerStart blocks until the wedged cluster's peer has begun a run.
func awaitPeerStart(t *testing.T, started chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the cell never reached the peer")
	}
}

// TestSameKeySpilledToPeer: a coordinator-owned cell is out on a peer —
// spilled there because the coordinator's only worker is wedged — when
// a second sweep, an interactive POST and a request forwarded by a peer
// want its key on the coordinator. All attach to the registry's running
// job: one simulation cluster-wide, on the peer; the first sweep's cell
// is done, the second's deduped with the same bytes, and the waiters
// read the peer's result.
func TestSameKeySpilledToPeer(t *testing.T) {
	var coordSims, peerSims atomic.Int64
	coord, _, started, finish, unwedge := wedgedCluster(t, &coordSims, &peerSims)
	defer unwedge()
	cell := specOwnedBy(t, coord, coord.url)
	spec, _ := json.Marshal(cell)

	_, a := postSweep(t, coord.ts, cellsJSON("a", []JobSpec{cell}))
	awaitPeerStart(t, started)
	_, b := postSweep(t, coord.ts, cellsJSON("b", []JobSpec{cell}))
	awaitRiders(t, coord.srv, cell, 1)
	resp, jv := postJob(t, coord.ts, string(spec))
	if resp.StatusCode != http.StatusAccepted || jv.Status != StatusRunning {
		t.Fatalf("interactive submit of a spilled key: HTTP %d status %q, want 202 running", resp.StatusCode, jv.Status)
	}
	// The key's owner is where a peer's request may wait on a spilled cell.
	if code, fv := postForwarded(t, coord, spec); code != http.StatusAccepted || fv.Status != StatusRunning {
		t.Fatalf("forwarded submit of a spilled key at its owner: HTTP %d status %q, want 202 running", code, fv.Status)
	}
	if st := getStats(t, coord.ts); st.DedupHits != 2 {
		t.Fatalf("coordinator dedup_hits = %d, want 2 (both submissions must coalesce onto the spilled job)", st.DedupHits)
	}

	close(finish)
	fa := waitSweepDone(t, coord.ts, a.ID, 10*time.Second)
	fb := waitSweepDone(t, coord.ts, b.ID, 10*time.Second)
	body := waitDone(t, coord.ts, jv.ID, 10*time.Second)
	if fa.Done != 1 || fb.Deduped != 1 {
		t.Errorf("sweeps finished as %+v / %+v, want the first done and the second deduped", fa, fb)
	}
	evA, evB := onlyEvent(t, coord.ts, a.ID), onlyEvent(t, coord.ts, b.ID)
	if !bytes.Equal(evA.Result, evB.Result) || len(evA.Result) == 0 {
		t.Errorf("results differ: %s vs %s", evA.Result, evB.Result)
	}
	if body.Status != StatusDone || body.Result == nil {
		t.Fatalf("waiter on the spilled job read %q (%s), want done", body.Status, body.Error)
	}
	if got, _ := json.Marshal(body.Result); !bytes.Equal(got, evA.Result) {
		t.Errorf("interactive result %s differs from the sweeps' %s", got, evA.Result)
	}
	if c, p := coordSims.Load(), peerSims.Load(); c != 0 || p != 1 {
		t.Errorf("simulations coordinator/peer = %d/%d, want 0/1", c, p)
	}
}

// TestSameKeyPeerRequestRunsHere: a cell is out on its owner when some
// other node spills the same key to this coordinator, which does not own
// it. Riding on the job that is out would make a wait that crosses two
// nodes — a cycle, if the sender is the node that job is out on — so the
// request becomes a job of its own here, and both executions end with
// the same bytes.
func TestSameKeyPeerRequestRunsHere(t *testing.T) {
	var coordSims, peerSims atomic.Int64
	coord, peer, started, finish, unwedge := wedgedCluster(t, &coordSims, &peerSims)
	defer unwedge()
	cell := specOwnedBy(t, coord, peer.url)
	spec, _ := json.Marshal(cell)

	_, sv := postSweep(t, coord.ts, cellsJSON("out-on-owner", []JobSpec{cell}))
	awaitPeerStart(t, started)
	code, jv := postForwarded(t, coord, spec)
	if code != http.StatusAccepted || jv.Status != StatusQueued {
		t.Fatalf("forwarded submit of a key that is out on a peer: HTTP %d status %q, want 202 queued (its own job, behind the wedge)", code, jv.Status)
	}
	if st := getStats(t, coord.ts); st.DedupHits != 0 {
		t.Fatalf("coordinator dedup_hits = %d, want 0: a peer's request must not wait on another peer", st.DedupHits)
	}

	unwedge() // the coordinator's worker runs the request while the cell is still out
	body := waitDone(t, coord.ts, jv.ID, 10*time.Second)
	if body.Status != StatusDone || body.Result == nil {
		t.Fatalf("the peer's request read %q (%s), want done", body.Status, body.Error)
	}
	if v := getSweepView(t, coord.ts, sv.ID); v.Running != 1 {
		t.Fatalf("sweep reads %+v, want its cell still running on the owner", v)
	}
	close(finish)
	if final := waitSweepDone(t, coord.ts, sv.ID, 10*time.Second); final.Done != 1 {
		t.Errorf("sweep finished as %+v, want its cell done", final)
	}
	if got, _ := json.Marshal(body.Result); !bytes.Equal(got, onlyEvent(t, coord.ts, sv.ID).Result) {
		t.Errorf("the request's result %s differs from the cell's %s", got, onlyEvent(t, coord.ts, sv.ID).Result)
	}
	if c, p := coordSims.Load(), peerSims.Load(); c != 1 || p != 1 {
		t.Errorf("simulations coordinator/peer = %d/%d, want 1/1", c, p)
	}
}
