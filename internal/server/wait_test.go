package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/client"
)

// submitAndWait posts spec through post and waits for it through wait
// (the same client, or two when the wait must not inherit the owner
// hint the submit learned). It returns how long after the job's
// finished_at the waiter held the result.
func submitAndWait(t *testing.T, post, wait *client.Client, spec string) time.Duration {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := post.Post(ctx, "/v1/jobs", []byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.Unmarshal(resp.Body, &view); err != nil || resp.Status != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d %s (%v)", resp.Status, resp.Body, err)
	}
	resp, err = wait.WaitJob(ctx, view.ID, 0)
	seen := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	var body resultBody
	if err := json.Unmarshal(resp.Body, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != StatusDone || body.Result == nil || body.FinishedAt == nil {
		t.Fatalf("job %s came back %q without result or finished_at: %s", view.ID, body.Status, resp.Body)
	}
	return seen.Sub(*body.FinishedAt)
}

// medianLag is a sanity bound on top of the one-GET-per-job counts,
// which are what rule a timer out: the median notify lag is under
// 50 ms. A held request delivers in well under a millisecond on
// loopback, the 200 ms poll loop it replaced sat at 100 ms on these
// 100 ms jobs; the bound leaves a loaded or -race runner two orders of
// magnitude.
func medianLag(t *testing.T, lags []time.Duration) {
	t.Helper()
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if med := lags[len(lags)/2]; med >= 50*time.Millisecond {
		t.Errorf("median notify lag %v (all: %v), want < 50ms", med, lags)
	}
}

// TestWaitJobIsOneHeldRequest drives the real server with the real
// client on jobs stretched by the slow-worker fault: each job costs
// exactly one GET …/result, the result is in the waiter's hands soon
// after finished_at, and /metrics accounts for every held request.
func TestWaitJobIsOneHeldRequest(t *testing.T) {
	const jobs = 5
	enableFault(t, "server/worker/slow", "always")
	var sims atomic.Int64
	srv := mustNew(t, Config{Workers: 2, Run: pureRun(&sims, 0)})
	defer srv.Close()
	var resultGets atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/result") {
			resultGets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.Options{})
	lags := make([]time.Duration, jobs)
	for i := range lags {
		lags[i] = submitAndWait(t, c, c, fakeSpec(100+i))
	}
	if got := resultGets.Load(); got != jobs {
		t.Errorf("%d jobs cost %d GET …/result, want one each", jobs, got)
	}
	medianLag(t, lags)
	if got := scrapeMetric(t, ts, `mama_result_waits_total{outcome="done"}`); got != jobs {
		t.Errorf(`mama_result_waits_total{outcome="done"} = %v, want %d`, got, jobs)
	}
	if got := scrapeMetric(t, ts, "mama_result_wait_seconds_count"); got != jobs {
		t.Errorf("mama_result_wait_seconds_count = %v, want %d", got, jobs)
	}
	// Every job was held for at least the injected stall.
	if got := scrapeMetric(t, ts, "mama_result_wait_seconds_sum"); got < jobs*faultSlowDelay.Seconds()*0.9 {
		t.Errorf("mama_result_wait_seconds_sum = %v, want ≳ %v", got, jobs*faultSlowDelay.Seconds())
	}
}

// TestResultWaitOutcomes covers the three ways a held request ends
// without a result, and the bare status read that is never held.
func TestResultWaitOutcomes(t *testing.T) {
	release := make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return JobResult{}, ctx.Err()
	}})
	defer srv.Close()
	defer close(release)
	arrived := make(chan struct{}, 1) // a token per result request, taken by the test after each
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			arrived <- struct{}{}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, view := postJob(t, ts, fakeSpec(1))
	path := ts.URL + "/v1/jobs/" + view.ID + "/result"
	m := srv.metrics

	// No wait: a status read, answered at once and not counted.
	if code, _ := getResult(t, ts, view.ID); code != http.StatusAccepted {
		t.Fatalf("bare result read: HTTP %d, want 202", code)
	}
	<-arrived
	if n := m.resultWaitSeconds.Count(); n != 0 {
		t.Fatalf("bare result read was recorded as %d held requests", n)
	}

	// timeout: the wait elapses first.
	begin := time.Now()
	resp, err := http.Get(path + "?wait=30ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-arrived
	if resp.StatusCode != http.StatusAccepted || time.Since(begin) < 30*time.Millisecond {
		t.Fatalf("wait=30ms: HTTP %d after %v, want 202 after the full wait", resp.StatusCode, time.Since(begin))
	}
	if m.resultWaitTimeout.Value() != 1 {
		t.Errorf("timeout outcome = %d, want 1", m.resultWaitTimeout.Value())
	}

	// gone: the waiter hangs up.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, path+"?wait=10s", nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("abandoned wait got a response")
	}
	cancel()
	<-arrived
	// The server notices the hang-up on its own goroutine; nothing signals it.
	for deadline := time.Now().Add(5 * time.Second); m.resultWaitGone.Value() != 1; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("abandoned wait was never recorded as gone")
		}
	}

	// shutdown: the server releases what it holds and answers 202.
	type reply struct {
		code int
		err  error
	}
	held := make(chan reply, 1)
	go func() {
		resp, err := http.Get(path + "?wait=10s")
		if err != nil {
			held <- reply{err: err}
			return
		}
		resp.Body.Close()
		held <- reply{code: resp.StatusCode}
	}()
	<-arrived
	srv.cancel()
	select {
	case r := <-held:
		if r.err != nil || r.code != http.StatusAccepted && r.code != http.StatusOK {
			t.Fatalf("request held across shutdown: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not release the held request")
	}
	// The cancelled job may finish in the same instant; either is a release.
	if got := m.resultWaitShutdown.Value() + m.resultWaitDone.Value(); got != 1 {
		t.Errorf("shutdown+done outcomes = %d, want 1", got)
	}
}

// TestWaitJobThroughNonOwner is the same contract across proxyLookup: a
// client waits on a node that does not own the job, the wait is
// forwarded and held on the owner, and the job still costs the client
// one GET and the owner one held request.
func TestWaitJobThroughNonOwner(t *testing.T) {
	const jobs = 5
	enableFault(t, "server/worker/slow", "always")
	sims := make([]atomic.Int64, 3)
	nodes := startCluster(t, 3, func(i int, cfg *Config) { cfg.Run = pureRun(&sims[i], 0) })
	nonOwner, owner := nodes[0], nodes[2]

	var clientGets atomic.Int64
	counting := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Method == http.MethodGet {
			clientGets.Add(1)
			if !strings.HasPrefix(r.URL.String(), nonOwner.url) {
				t.Errorf("waiter went to %s, want the non-owner %s", r.URL, nonOwner.url)
			}
		}
		return http.DefaultTransport.RoundTrip(r)
	})}

	submitter := client.New(nonOwner.url, client.Options{})
	waiter := client.New(nonOwner.url, client.Options{HTTPClient: counting})
	lags := make([]time.Duration, 0, jobs)
	for _, spec := range specsOwnedBy(t, nonOwner, owner.url, jobs) {
		body, _ := json.Marshal(spec)
		lags = append(lags, submitAndWait(t, submitter, waiter, string(body)))
	}
	if got := clientGets.Load(); got != jobs {
		t.Errorf("%d jobs cost the client %d GETs, want one each", jobs, got)
	}
	medianLag(t, lags)
	if got := owner.srv.metrics.resultWaitDone.Value(); got != jobs {
		t.Errorf("owner released %d held requests as done, want %d", got, jobs)
	}
	if got := owner.srv.metrics.resultWaitTimeout.Value(); got != 0 {
		t.Errorf("owner timed out %d held requests, want 0", got)
	}
	if _, cl := clusterStats(t, nonOwner); cl.Proxied < jobs {
		t.Errorf("non-owner proxied %d requests, want ≥ %d", cl.Proxied, jobs)
	}
	if sims[0].Load() != 0 || sims[2].Load() != jobs {
		t.Errorf("simulations on non-owner/owner = %d/%d, want 0/%d", sims[0].Load(), sims[2].Load(), jobs)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestRemoteCellOutlivesLongPollWait runs sweep cells on their owners
// that take many times longPollWait: each is re-asked for back to back,
// so the owner sees about run/longPollWait timed-out holds per cell — a
// pause between asks would cut that count by the pause's share — and
// every cell completes remotely, exactly once.
func TestRemoteCellOutlivesLongPollWait(t *testing.T) {
	const (
		cells = 4
		run   = 600 * time.Millisecond
		hold  = 20 * time.Millisecond
	)
	saved := longPollWait
	longPollWait = hold
	// Registered before startCluster's own cleanups, so it runs after the
	// nodes (and every goroutine reading the variable) are gone.
	t.Cleanup(func() { longPollWait = saved })

	sims := make([]atomic.Int64, 2)
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.Run = pureRun(&sims[i], run)
		cfg.Workers = cells
		cfg.RemotePeerSlots = cells
	})
	a, b := nodes[0], nodes[1]

	// A sweep of cells that b owns, submitted to a.
	var seeds []string
	for _, spec := range specsOwnedBy(t, a, b.url, cells) {
		seeds = append(seeds, fmt.Sprint(spec.Seed))
	}
	resp, view := postSweep(t, a.ts, fmt.Sprintf(
		`{"name":"slow","grid":{"mixes":[["spec06.libquantum"]],"controllers":["no"],"scales":["tiny"],"seeds":[%s]}}`,
		strings.Join(seeds, ",")))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}
	done := waitSweepDone(t, a.ts, view.ID, 30*time.Second)
	if done.Done != cells || done.Failed != 0 {
		t.Fatalf("sweep finished %d done / %d failed, want %d / 0", done.Done, done.Failed, cells)
	}
	if sims[0].Load() != 0 || sims[1].Load() != cells {
		t.Errorf("simulations = [%d %d], want [0 %d]: slow cells must stay on their owner", sims[0].Load(), sims[1].Load(), cells)
	}
	if _, cl := clusterStats(t, a); cl.RemoteCells != cells {
		t.Errorf("remote_cells = %d, want %d", cl.RemoteCells, cells)
	}
	// run/hold = 30 back-to-back holds per cell; earlyReleasePause after
	// each would leave 5. Asking for 10 is twice what a paused waiter
	// reaches and still lets a loaded host spend 3× the hold itself on
	// every round trip.
	m := b.srv.metrics
	if got, want := m.resultWaitTimeout.Value(), uint64(cells*10); got < want {
		t.Errorf("owner saw %d timed-out holds for %d cells, want ≥ %d (waits were not re-issued at once)", got, cells, want)
	}
	if got := m.resultWaitDone.Value(); got != cells {
		t.Errorf("owner released %d holds as done, want %d", got, cells)
	}
}
