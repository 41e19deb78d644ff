package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/cluster"
)

// newTestClient wires a client to ts with recorded (not slept) backoff.
func newTestClient(ts *httptest.Server, opts Options) (*Client, *[]time.Duration) {
	c := New(ts.URL, opts)
	var mu sync.Mutex
	slept := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	return c, slept
}

// TestRetriesTransient5xx checks that 500s are retried until success
// and the final response is returned.
func TestRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c, slept := newTestClient(ts, Options{})
	resp, err := c.Get(context.Background(), "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.Status)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("client slept %d times, want 2", len(*slept))
	}
	// Exponential shape: the second backoff window starts at 2x the
	// first one's base (jitter keeps exact values variable, but the
	// floor doubles: d/2 where d = BaseDelay<<n).
	if (*slept)[0] < 100*time.Millisecond || (*slept)[1] < 200*time.Millisecond {
		t.Errorf("backoff floors wrong: %v", *slept)
	}
}

// TestHonorsRetryAfter checks that a server-provided Retry-After
// replaces the exponential schedule.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	c, slept := newTestClient(ts, Options{MaxDelay: 10 * time.Second})
	if _, err := c.Post(context.Background(), "/v1/jobs", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("slept %v, want exactly the server's 2s Retry-After", *slept)
	}
}

// TestConnectionErrorRetries checks that a dead server is retried and
// the terminal error reports the attempt count.
func TestConnectionErrorRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // refuse all connections

	c, slept := newTestClient(ts, Options{MaxRetries: 2})
	_, err := c.Get(context.Background(), "/healthz")
	if err == nil {
		t.Fatal("expected an error from a closed server")
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2 (MaxRetries)", len(*slept))
	}
}

// TestNoRetryOn4xx checks that client errors are terminal immediately.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad spec", http.StatusBadRequest)
	}))
	defer ts.Close()

	c, slept := newTestClient(ts, Options{})
	resp, err := c.Post(context.Background(), "/v1/jobs", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusBadRequest || calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("400 was retried: %d calls, %d sleeps", calls.Load(), len(*slept))
	}
}

// TestExhaustedRetriesReturnLastResponse checks that a persistently
// retryable status comes back as a response, not an error, after the
// budget is spent.
func TestExhaustedRetriesReturnLastResponse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c, _ := newTestClient(ts, Options{MaxRetries: 1})
	resp, err := c.Get(context.Background(), "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the final 503", resp.Status)
	}
}

// TestContextCancelStopsRetries checks a cancelled context aborts the
// retry loop with ctx.Err().
func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, Options{})
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancel mid-backoff
		return ctx.Err()
	}
	if _, err := c.Get(ctx, "/v1/stats"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// heldResult mimics the server's GET …/result?wait= contract for a job
// that finishes when done is closed: hold the request for the asked
// wait, answer 200 if the job finished meanwhile and 202 if not. It
// records every wait it was asked for.
type heldResult struct {
	done  chan struct{}
	mu    sync.Mutex
	waits []time.Duration
}

func (h *heldResult) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	wait, err := time.ParseDuration(r.URL.Query().Get("wait"))
	if err != nil {
		http.Error(w, "request carries no usable wait: "+r.URL.RawQuery, http.StatusBadRequest)
		return
	}
	h.mu.Lock()
	h.waits = append(h.waits, wait)
	h.mu.Unlock()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-h.done:
		w.Write([]byte(`{"status":"done","result":{"ws":1.5}}`))
	case <-timer.C:
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"status":"running"}`))
	case <-r.Context().Done():
	}
}

func (h *heldResult) asked() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]time.Duration(nil), h.waits...)
}

// TestWaitJob pins the one wait protocol: a held GET …/result?wait=
// that is re-issued at once after a full wait, paced by poll only when
// the 202 came back early, bounded below every timeout in the chain.
func TestWaitJob(t *testing.T) {
	t.Run("one held GET suffices", func(t *testing.T) {
		h := &heldResult{done: make(chan struct{})}
		ts := httptest.NewServer(h)
		defer ts.Close()
		c, slept := newTestClient(ts, Options{})
		time.AfterFunc(30*time.Millisecond, func() { close(h.done) })
		resp, err := c.WaitJob(context.Background(), "jabc", 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		waits := h.asked()
		if resp.Status != http.StatusOK || len(waits) != 1 || len(*slept) != 0 {
			t.Fatalf("status %d after %d GETs and %d sleeps, want 200 after 1 and 0",
				resp.Status, len(waits), len(*slept))
		}
		// Default 30s per-attempt timeout: ¾ of it, under the server's cap.
		if waits[0] != 22500*time.Millisecond {
			t.Errorf("asked wait=%v, want 22.5s", waits[0])
		}
	})

	t.Run("budget stays below the per-attempt timeout", func(t *testing.T) {
		const timeout = 200 * time.Millisecond
		h := &heldResult{done: make(chan struct{})}
		ts := httptest.NewServer(h)
		defer ts.Close()
		c, slept := newTestClient(ts, Options{Timeout: timeout})
		// The job outlives two full waits, so the third held request sees it.
		time.AfterFunc(timeout*2, func() { close(h.done) })
		resp, err := c.WaitJob(context.Background(), "jslow", time.Hour)
		if err != nil {
			t.Fatalf("slow job surfaced as an error (transport timeout?): %v", err)
		}
		waits := h.asked()
		if resp.Status != http.StatusOK || len(waits) < 2 {
			t.Fatalf("status %d after %d GETs, want 200 after re-issued long-polls", resp.Status, len(waits))
		}
		for _, w := range waits {
			if w <= 0 || w >= timeout {
				t.Errorf("asked wait=%v, want inside (0, %v)", w, timeout)
			}
		}
		// No backoff (no retry) and no poll pause (every 202 came after a
		// full wait): the client never slept.
		if len(*slept) != 0 {
			t.Errorf("client slept %v, want no retries and no pacing", *slept)
		}
	})

	t.Run("only an early 202 is paced by poll", func(t *testing.T) {
		// A server that ignores wait (old version, a proxy, or one that is
		// shutting down): 202 at once, twice, then done.
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte(`{"status":"running"}`))
				return
			}
			w.Write([]byte(`{"status":"done"}`))
		}))
		defer ts.Close()
		const poll = 50 * time.Millisecond
		c, slept := newTestClient(ts, Options{})
		if _, err := c.WaitJob(context.Background(), "jabc", poll); err != nil {
			t.Fatal(err)
		}
		if len(*slept) != 2 || (*slept)[0] != poll || (*slept)[1] != poll {
			t.Fatalf("slept %v, want [%v %v]", *slept, poll, poll)
		}
	})

	t.Run("ctx cancelled mid-wait", func(t *testing.T) {
		h := &heldResult{done: make(chan struct{})}
		ts := httptest.NewServer(h)
		defer ts.Close()
		c, _ := newTestClient(ts, Options{})
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		begin := time.Now()
		_, err := c.WaitJob(ctx, "jabc", time.Hour)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if d := time.Since(begin); d > 2*time.Second {
			t.Errorf("cancel took %v to surface", d)
		}
	})

	t.Run("failed job keeps its body", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"status":"failed","error":"boom"}`))
		}))
		defer ts.Close()
		c, _ := newTestClient(ts, Options{})
		resp, err := c.WaitJob(context.Background(), "jdef", time.Millisecond)
		if !errors.Is(err, ErrJobFailed) {
			t.Fatalf("err = %v, want ErrJobFailed", err)
		}
		if resp == nil || resp.Status != http.StatusOK {
			t.Fatalf("failed wait should still carry the final body: %+v", resp)
		}
	})
}

// TestWaitBudget covers the three bounds on a held request's wait.
func TestWaitBudget(t *testing.T) {
	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	for _, tc := range []struct {
		name     string
		opts     Options
		ctx      context.Context
		min, max time.Duration
	}{
		{"default timeout", Options{}, context.Background(), 22500 * time.Millisecond, 22500 * time.Millisecond},
		{"long timeout hits the server cap", Options{Timeout: time.Hour}, context.Background(), cluster.MaxResultWait, cluster.MaxResultWait},
		{"injected client without timeout", Options{HTTPClient: &http.Client{}}, context.Background(), cluster.MaxResultWait, cluster.MaxResultWait},
		{"injected client timeout", Options{HTTPClient: &http.Client{Timeout: 2 * time.Second}}, context.Background(), 1500 * time.Millisecond, 1500 * time.Millisecond},
		{"time left on ctx", Options{}, short, time.Millisecond, 100 * time.Millisecond},
	} {
		if got := New("http://unused", tc.opts).waitBudget(tc.ctx); got < tc.min || got > tc.max {
			t.Errorf("%s: budget %v, want in [%v, %v]", tc.name, got, tc.min, tc.max)
		}
	}
}

// TestRetryAfterParsing covers the header's two formats.
func TestRetryAfterParsing(t *testing.T) {
	h := http.Header{}
	if _, ok := retryAfter(h); ok {
		t.Error("absent header parsed")
	}
	h.Set("Retry-After", "3")
	if d, ok := retryAfter(h); !ok || d != 3*time.Second {
		t.Errorf("delta-seconds: %v %v", d, ok)
	}
	h.Set("Retry-After", time.Now().Add(90*time.Second).UTC().Format(http.TimeFormat))
	if d, ok := retryAfter(h); !ok || d < 80*time.Second || d > 91*time.Second {
		t.Errorf("http-date: %v %v", d, ok)
	}
	h.Set("Retry-After", "garbage")
	if _, ok := retryAfter(h); ok {
		t.Error("garbage parsed")
	}
}
