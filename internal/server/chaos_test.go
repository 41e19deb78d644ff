package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"micromama/internal/faultinject"
)

// enableFault arms a fault-injection site for one test; restore disarms
// it before the test ends.
func enableFault(t *testing.T, site, rule string) (restore func()) {
	t.Helper()
	restore, err := faultinject.Enable(site, rule)
	if err != nil {
		t.Fatalf("enable fault %s=%s: %v", site, rule, err)
	}
	t.Cleanup(restore)
	return restore
}

// TestFaultSiteCoverage pins the injection surface: every failure mode
// the chaos suite exercises must stay registered under its exact name,
// so a refactor cannot silently drop coverage.
func TestFaultSiteCoverage(t *testing.T) {
	want := []string{
		"server/worker/panic",
		"server/worker/slow",
		"server/http/submit-500",
		"server/cache/persist-write",
		"server/cache/persist-read",
		"server/sweep/persist-write",
		"server/sweep/persist-read",
		"server/sweep/worker-kill",
		"cluster/rpc/partition",
		"cluster/peer/down",
	}
	registered := make(map[string]bool)
	for _, name := range faultinject.Sites() {
		registered[name] = true
	}
	for _, name := range want {
		if !registered[name] {
			t.Errorf("fault site %q is not registered", name)
		}
	}
}

// TestWorkerPanicRecovery forces a panic mid-run and checks the triad
// from the acceptance criteria: the job reports failed with the panic
// message, mama_server_job_panics_total increments, and the server
// keeps serving (the next job on the same worker completes).
func TestWorkerPanicRecovery(t *testing.T) {
	enableFault(t, "server/worker/panic", "once")
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: 1}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, view := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	body := waitDone(t, ts, view.ID, 10*time.Second)
	if body.Status != StatusFailed {
		t.Fatalf("panicked job finished as %q, want failed", body.Status)
	}
	if !strings.Contains(body.Error, "panicked") || !strings.Contains(body.Error, "server/worker/panic") {
		t.Errorf("error %q does not carry the panic message", body.Error)
	}
	if v := scrapeMetric(t, ts, "mama_server_job_panics_total"); v != 1 {
		t.Errorf("mama_server_job_panics_total = %v, want 1", v)
	}

	// The worker survived: the next job completes normally.
	resp2, view2 := postJob(t, ts, fakeSpec(2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-panic submit: HTTP %d", resp2.StatusCode)
	}
	body2 := waitDone(t, ts, view2.ID, 10*time.Second)
	if body2.Status != StatusDone {
		t.Fatalf("post-panic job finished as %q, want done", body2.Status)
	}
	if st := getStats(t, ts); st.Panics != 1 || st.Completed != 1 || st.Failed != 1 {
		t.Errorf("stats = panics %d completed %d failed %d, want 1/1/1",
			st.Panics, st.Completed, st.Failed)
	}
}

// TestPanicStorm drives every other job into a panic while the pool
// serves a batch, then checks the books balance: every job reaches a
// terminal state, failures equal recovered panics, and the pool still
// completes a healthy job afterwards.
func TestPanicStorm(t *testing.T) {
	enableFault(t, "server/worker/panic", "every:2")
	srv := mustNew(t, Config{Workers: 4, QueueDepth: 32,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: 1}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		resp, view := postJob(t, ts, fakeSpec(100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, view.ID)
	}
	var done, failed int
	for _, id := range ids {
		switch body := waitDone(t, ts, id, 10*time.Second); body.Status {
		case StatusDone:
			done++
		case StatusFailed:
			failed++
			if !strings.Contains(body.Error, "panicked") {
				t.Errorf("job %s failed with %q, want a panic failure", id, body.Error)
			}
		}
	}
	st := getStats(t, ts)
	if done+failed != jobs {
		t.Fatalf("accounted %d of %d jobs", done+failed, jobs)
	}
	if st.Panics == 0 || st.Panics != uint64(failed) {
		t.Errorf("panics = %d, failed = %d; every failure must be a recovered panic", st.Panics, failed)
	}

	// All four workers are still alive and serving.
	if _, err := faultinject.Enable("server/worker/panic", "off"); err != nil {
		t.Fatal(err)
	}
	resp, view := postJob(t, ts, fakeSpec(999))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-storm submit: HTTP %d", resp.StatusCode)
	}
	if body := waitDone(t, ts, view.ID, 10*time.Second); body.Status != StatusDone {
		t.Fatalf("post-storm job finished as %q", body.Status)
	}
}

// TestDrainUnderLoad runs the graceful-shutdown contract end to end:
// Shutdown under load finishes every admitted job exactly once, refuses
// new submissions with 503 + Retry-After while draining, keeps liveness
// green the whole time, and returns nil within the drain deadline.
func TestDrainUnderLoad(t *testing.T) {
	const jobs = 4
	release := make(chan struct{})
	var mu sync.Mutex
	runs := make(map[uint64]int) // seed -> executions
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			mu.Lock()
			runs[spec.Seed]++
			mu.Unlock()
			select {
			case <-release:
				return JobResult{Mix: "fake", WS: 1}, nil
			case <-ctx.Done():
				return JobResult{}, ctx.Err()
			}
		}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]string, 0, jobs)
	for i := 1; i <= jobs; i++ {
		resp, view := postJob(t, ts, fakeSpec(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, view.ID)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// Wait until the drain has visibly begun.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered draining state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New submissions are refused with 503 + Retry-After...
	resp, _ := postJob(t, ts, fakeSpec(1000))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 missing Retry-After")
	}
	// ...readiness flips to 503, liveness stays 200, results stay
	// readable.
	if code := getCode(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", code)
	}
	if code := getCode(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
	if st := getStats(t, ts); !st.Draining {
		t.Error("stats.draining = false during drain")
	}

	// Unblock the simulated work; the drain must now complete cleanly.
	close(release)
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after jobs were released")
	}

	// Every admitted job finished exactly once — none lost, none
	// double-run.
	for i, id := range ids {
		code, body := getResult(t, ts, id)
		if code != http.StatusOK || body.Status != StatusDone {
			t.Errorf("job %s (seed %d): HTTP %d status %q, want done", id, i+1, code, body.Status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(runs) != jobs {
		t.Errorf("%d distinct jobs executed, want %d", len(runs), jobs)
	}
	for seed, n := range runs {
		if n != 1 {
			t.Errorf("seed %d ran %d times, want exactly once", seed, n)
		}
	}
}

// TestShutdownDeadline checks the other half of the drain contract: a
// job that outlives the drain deadline is cancelled, counted, and
// Shutdown returns the context error instead of hanging.
func TestShutdownDeadline(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			<-ctx.Done() // never finishes voluntarily
			return JobResult{}, ctx.Err()
		}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, view := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	code, body := getResult(t, ts, view.ID)
	if code != http.StatusOK || body.Status != StatusFailed {
		t.Fatalf("job after forced drain: HTTP %d status %q, want failed", code, body.Status)
	}
	if st := getStats(t, ts); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	// Shutdown and Close are both safe to call again.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	srv.Close()
}

// TestReadyzSaturation checks readiness flips when the queue is full
// and recovers when it drains.
func TestReadyzSaturation(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			started <- struct{}{}
			select {
			case <-release:
				return JobResult{Mix: "fake", WS: 1}, nil
			case <-ctx.Done():
				return JobResult{}, ctx.Err()
			}
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := getCode(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz on idle server = %d, want 200", code)
	}

	// Occupy the worker, then park one job in the queue: the queue is
	// full and readiness must flip.
	postJob(t, ts, fakeSpec(1))
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started")
	}
	postJob(t, ts, fakeSpec(2))
	if code := getCode(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with saturated queue = %d, want 503", code)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for getCode(t, ts, "/readyz") != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the queue drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmit500Fault checks the transient-5xx injection point: one
// injected failure, then the identical resubmission succeeds (the
// idempotency that makes client retries safe).
func TestSubmit500Fault(t *testing.T) {
	enableFault(t, "server/http/submit-500", "once")
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: 1}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first submit: HTTP %d, want injected 500", resp.StatusCode)
	}
	resp2, view := postJob(t, ts, fakeSpec(1))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("retry submit: HTTP %d, want 202", resp2.StatusCode)
	}
	if body := waitDone(t, ts, view.ID, 10*time.Second); body.Status != StatusDone {
		t.Fatalf("retried job finished as %q", body.Status)
	}
}

// TestSlowJobFault checks the latency injection point stretches a run
// without otherwise changing its outcome.
func TestSlowJobFault(t *testing.T) {
	enableFault(t, "server/worker/slow", "always")
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: 1}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	start := time.Now()
	_, view := postJob(t, ts, fakeSpec(1))
	body := waitDone(t, ts, view.ID, 10*time.Second)
	if body.Status != StatusDone {
		t.Fatalf("slow job finished as %q", body.Status)
	}
	if elapsed := time.Since(start); elapsed < faultSlowDelay {
		t.Errorf("job finished in %v, want at least the injected %v", elapsed, faultSlowDelay)
	}
}

// TestRetryAfterFromTelemetry checks the 429 Retry-After header is a
// sane integer derived from observed queue waits.
func TestRetryAfterFromTelemetry(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			started <- struct{}{}
			select {
			case <-release:
				return JobResult{Mix: "fake", WS: 1}, nil
			case <-ctx.Done():
				return JobResult{}, ctx.Err()
			}
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// With no wait samples the estimate must fall back to 1s.
	if got := srv.retryAfterSeconds(); got != 1 {
		t.Errorf("retryAfterSeconds with no samples = %d, want 1", got)
	}

	postJob(t, ts, fakeSpec(1))
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started")
	}
	postJob(t, ts, fakeSpec(2)) // fills the queue (also seeds wait telemetry when picked up)
	resp, _ := postJob(t, ts, fakeSpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	var sec int
	if _, err := fmt.Sscanf(ra, "%d", &sec); err != nil || sec < 1 || sec > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1,60]", ra)
	}
	close(release)
}

// getCode GETs a path and returns only the status code.
func getCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
