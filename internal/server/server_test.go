package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"micromama/internal/experiment"
)

// mustNew builds a started Server or fails the test.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// A server given no Logger renders no records to throw away: its logger,
// which its sweep manager shares, is disabled at every level.
func TestNilLoggerIsDisabled(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1})
	defer srv.Close()
	if srv.log.Enabled(context.Background(), slog.LevelError) {
		t.Error("a nil Config.Logger left a logger enabled at Error")
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view JobView
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode < 400 {
		if err := json.Unmarshal(buf.Bytes(), &view); err != nil {
			t.Fatalf("decode job view: %v (%s)", err, buf.String())
		}
	}
	return resp, view
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, resultBody) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var body resultBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return resp.StatusCode, body
}

func waitDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) resultBody {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, body := getResult(t, ts, id)
		if code == http.StatusOK {
			return body
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	return resultBody{}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

// TestSmokeEndToEnd runs a real (tiny) simulation through the full HTTP
// path, then resubmits the identical job and checks it is served from
// the content-addressed cache without a second simulation.
func TestSmokeEndToEnd(t *testing.T) {
	srv := mustNew(t, Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"mix":["spec06.libquantum","spec06.sphinx3"],"controller":"bandit","scale":"tiny","target":60000}`

	resp, view := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d, want 202", resp.StatusCode)
	}
	if view.Status != StatusQueued && view.Status != StatusRunning {
		t.Fatalf("first submit: status %q", view.Status)
	}

	body := waitDone(t, ts, view.ID, 60*time.Second)
	if body.Status != StatusDone {
		t.Fatalf("job finished as %q (error %q), want done", body.Status, body.Error)
	}
	if body.Result == nil || body.Result.WS <= 0 {
		t.Fatalf("done job has no plausible result: %+v", body.Result)
	}
	if len(body.Result.Speedups) != 2 || len(body.Result.IPC) != 2 {
		t.Fatalf("expected 2-core result, got %+v", body.Result)
	}

	// Identical resubmission: instant 200, cached flag, identical metrics.
	resp2, view2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (cache hit)", resp2.StatusCode)
	}
	if view2.ID != view.ID {
		t.Fatalf("resubmit got id %s, want %s (content-addressed)", view2.ID, view.ID)
	}
	code, body2 := getResult(t, ts, view2.ID)
	if code != http.StatusOK || body2.Status != StatusDone || body2.Result == nil {
		t.Fatalf("cached job not done: HTTP %d %+v", code, body2)
	}
	if body2.Result.WS != body.Result.WS || body2.Result.HS != body.Result.HS {
		t.Fatalf("cached metrics differ: %+v vs %+v", body2.Result, body.Result)
	}

	st := getStats(t, ts)
	if st.Simulations != 1 {
		t.Errorf("simulations = %d, want 1 (second submit must hit the cache)", st.Simulations)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", st.CacheHits)
	}
	if st.Completed != 1 || st.Failed != 0 {
		t.Errorf("completed/failed = %d/%d, want 1/0", st.Completed, st.Failed)
	}
	if st.Submitted != 2 {
		t.Errorf("submitted = %d, want 2", st.Submitted)
	}
}

// fakeSpec builds distinct valid specs (seed namespaces the cache key).
func fakeSpec(seed int) string {
	return fmt.Sprintf(`{"mix":["spec06.libquantum"],"controller":"no","scale":"tiny","seed":%d}`, seed)
}

// TestQueueOverflow fills one worker and a depth-1 queue, then checks
// the next distinct submission is shed with HTTP 429.
func TestQueueOverflow(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	srv := mustNew(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			started <- struct{}{}
			select {
			case <-release:
				return JobResult{Mix: "fake", WS: 1}, nil
			case <-ctx.Done():
				return JobResult{}, ctx.Err()
			}
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job 1: grabbed by the single worker (wait for it to start).
	resp1, v1 := postJob(t, ts, fakeSpec(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job1: HTTP %d", resp1.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started job1")
	}

	// Job 2: occupies the single queue slot.
	resp2, _ := postJob(t, ts, fakeSpec(2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job2: HTTP %d", resp2.StatusCode)
	}

	// Job 3: queue full → 429.
	resp3, _ := postJob(t, ts, fakeSpec(3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job3: HTTP %d, want 429", resp3.StatusCode)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	if st := getStats(t, ts); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}

	// A duplicate of the running job still coalesces instead of 429ing.
	respDup, vDup := postJob(t, ts, fakeSpec(1))
	if respDup.StatusCode != http.StatusAccepted || vDup.ID != v1.ID {
		t.Fatalf("duplicate submit: HTTP %d id %s, want 202 with id %s",
			respDup.StatusCode, vDup.ID, v1.ID)
	}
	if st := getStats(t, ts); st.DedupHits != 1 {
		t.Errorf("dedup_hits = %d, want 1", st.DedupHits)
	}

	close(release)
	b1 := waitDone(t, ts, v1.ID, 5*time.Second)
	if b1.Status != StatusDone {
		t.Fatalf("job1 finished as %q", b1.Status)
	}
}

// TestJobTimeout submits a job whose (fake) simulation never returns
// and checks it fails with a timeout error while the server stays up.
func TestJobTimeout(t *testing.T) {
	srv := mustNew(t, Config{
		Workers:    1,
		QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			<-ctx.Done() // simulate RunContext observing cancellation
			return JobResult{}, ctx.Err()
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"mix":["spec06.libquantum"],"controller":"no","scale":"tiny","timeout_ms":50}`
	resp, view := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	body := waitDone(t, ts, view.ID, 10*time.Second)
	if body.Status != StatusFailed {
		t.Fatalf("job finished as %q, want failed", body.Status)
	}
	if !strings.Contains(body.Error, "timeout") {
		t.Errorf("error %q does not mention the timeout", body.Error)
	}

	// The server survived: healthz still answers and stats counted it.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz after timeout: %v %v", hz, err)
	}
	hz.Body.Close()
	if st := getStats(t, ts); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}

	// A failed job is retried (not served from cache) on resubmission.
	resp2, view2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusAccepted || view2.ID != view.ID {
		t.Fatalf("retry submit: HTTP %d id %s, want 202 with id %s",
			resp2.StatusCode, view2.ID, view.ID)
	}
}

// TestHugeTimeoutClamps submits timeout_ms values whose nanosecond
// count overflows int64 and checks the job runs under a MaxTimeout
// deadline instead of one already in the past.
func TestHugeTimeoutClamps(t *testing.T) {
	left := make(chan time.Duration, 1)
	srv := mustNew(t, Config{
		Workers:    1,
		QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			d, _ := ctx.Deadline()
			left <- time.Until(d)
			return JobResult{}, nil
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	limit := srv.cfg.MaxTimeout
	for i, ms := range []string{"9223372036854775807", "10000000000000"} {
		// timeout_ms is not in the key, so the seed makes each a new job.
		spec := fmt.Sprintf(`{"mix":["spec06.libquantum"],"controller":"no","scale":"tiny","seed":%d,"timeout_ms":%s}`, i+1, ms)
		if resp, _ := postJob(t, ts, spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("timeout_ms %s: HTTP %d", ms, resp.StatusCode)
		}
		select {
		case d := <-left:
			if d < limit-time.Minute || d > limit {
				t.Errorf("timeout_ms %s: deadline %v away, want about %v", ms, d, limit)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timeout_ms %s: the job never ran", ms)
		}
	}
}

// scrapeMetric fetches /metrics and returns the value of the series
// with the given name (including any label body), or -1 if absent.
func scrapeMetric(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			t.Fatalf("series %s has unparseable value %q", series, val)
		}
		return f
	}
	return -1
}

// TestMetricsEndpoint checks that /metrics serves Prometheus text
// format and that a cache miss → hit sequence moves the server's
// result-cache counters exactly.
func TestMetricsEndpoint(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{Mix: "fake", WS: 1}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The queue/worker/trace-pool/off-heap families are present before any job.
	for _, series := range []string{
		"mama_server_queue_depth",
		"mama_server_workers",
		"mama_server_result_cache_entries",
		"mama_trace_pool_entries",
		"mama_trace_pool_used_bytes",
		"mama_trace_pool_instructions",
		"mama_offheap_mapped_bytes",
	} {
		if v := scrapeMetric(t, ts, series); v < 0 {
			t.Errorf("series %s missing from /metrics", series)
		}
	}
	if v := scrapeMetric(t, ts, "mama_server_result_cache_misses_total"); v != 0 {
		t.Fatalf("cache misses before any job = %v, want 0", v)
	}

	// First submission: a miss that runs to completion.
	resp, view := postJob(t, ts, fakeSpec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitDone(t, ts, view.ID, 10*time.Second)
	if v := scrapeMetric(t, ts, "mama_server_result_cache_misses_total"); v != 1 {
		t.Errorf("cache misses after first job = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_result_cache_hits_total"); v != 0 {
		t.Errorf("cache hits after first job = %v, want 0", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_jobs_completed_total"); v != 1 {
		t.Errorf("jobs completed = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_result_cache_entries"); v != 1 {
		t.Errorf("result cache entries = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, `mama_server_job_run_seconds_count`); v != 1 {
		t.Errorf("run-latency histogram count = %v, want 1", v)
	}

	// Identical resubmission: served from the cache, hits move, misses
	// and completions do not.
	resp2, _ := postJob(t, ts, fakeSpec(1))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d, want 200 (cache hit)", resp2.StatusCode)
	}
	if v := scrapeMetric(t, ts, "mama_server_result_cache_hits_total"); v != 1 {
		t.Errorf("cache hits after resubmit = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_result_cache_misses_total"); v != 1 {
		t.Errorf("cache misses after resubmit = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_jobs_completed_total"); v != 1 {
		t.Errorf("jobs completed after resubmit = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts, "mama_server_jobs_submitted_total"); v != 2 {
		t.Errorf("jobs submitted = %v, want 2", v)
	}
}

// TestBadRequests exercises validation failures.
func TestBadRequests(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 1,
		Run: func(ctx context.Context, spec JobSpec) (JobResult, error) {
			return JobResult{}, nil
		}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []string{
		`not json`,
		`{}`,
		`{"mix":[],"controller":"no"}`,
		`{"mix":["nope.unknown"],"controller":"no"}`,
		`{"mix":["spec06.libquantum"],"controller":"nope"}`,
		`{"mix":["spec06.libquantum"],"controller":"no","scale":"galactic"}`,
		`{"mix":["spec06.libquantum"],"controller":"no","timeout_ms":-1}`,
		`{"mix":["spec06.libquantum"],"controller":"no","unknown_field":1}`,
	}
	for _, c := range cases {
		resp, _ := postJob(t, ts, c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: HTTP %d, want 400", c, resp.StatusCode)
		}
	}

	// Oversized mix (MaxCores default 16).
	mix := make([]string, 17)
	for i := range mix {
		mix[i] = "spec06.libquantum"
	}
	b, _ := json.Marshal(map[string]any{"mix": mix, "controller": "no"})
	resp, _ := postJob(t, ts, string(b))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("17-core mix: HTTP %d, want 400", resp.StatusCode)
	}

	// Unknown job IDs are 404s.
	for _, path := range []string{"/v1/jobs/jdeadbeef", "/v1/jobs/jdeadbeef/result"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("%s: HTTP %d, want 404", path, r.StatusCode)
		}
	}
}

// TestCatalogListsControllers checks that /v1/catalog names every
// controller the harness can build, so clients can validate controller
// names before submitting.
func TestCatalogListsControllers(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat struct {
		Controllers      []string                      `json:"controllers"`
		ControllerParams map[string][]experiment.Param `json:"controller_params"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(cat.Controllers, ","), strings.Join(experiment.ControllerKeys, ","); got != want {
		t.Errorf("catalog controllers = %s, want %s", got, want)
	}
	// Parameters are listed for exactly the controllers whose keys take
	// them, with range and default.
	if len(cat.ControllerParams["mumama-fair"]) != 5 {
		t.Fatalf("catalog parameters of mumama-fair: %+v", cat.ControllerParams["mumama-fair"])
	}
	jav := cat.ControllerParams["mumama-fair"][0]
	if _, listed := cat.ControllerParams["bandit"]; listed || len(cat.ControllerParams) != 9 ||
		jav.Name != "jav" || !jav.Integer || jav.Min != 1 || jav.Max != 64 || jav.Default != "2" {
		t.Errorf("catalog lists parameters for %d controllers (bandit: %v), mumama-fair's first as %+v", len(cat.ControllerParams), listed, jav)
	}
}

// TestControllerKeyRefusedAtAdmission: a controller key no worker could
// build is a 400 carrying the parser's own refusal, on both submission
// endpoints, before anything is queued.
func TestControllerKeyRefusedAtAdmission(t *testing.T) {
	run, calls := countingRun()
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2, Run: run})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, key := range []string{
		"mumama@jav=0", "mumama@javv=4", "bandit@jav=4", "coord-rl@theta=0.5", "mumama@jav=4@jav=8", "mumama@",
		"mumama@jav=" + strings.Repeat("0", experiment.MaxControllerKey) + "4",
	} {
		for path, body := range map[string]string{
			"/v1/jobs":   `{"mix":["spec06.libquantum"],"controller":"` + key + `","scale":"tiny"}`,
			"/v1/sweeps": `{"grid":{"mixes":[["spec06.libquantum"]],"controllers":["no","` + key + `"],"scales":["tiny"]}}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var refusal struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&refusal)
			resp.Body.Close()
			if want := experiment.CheckController(key).Error(); err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasSuffix(refusal.Error, want) {
				t.Errorf("POST %s with %.40q: HTTP %d %q; want 400 %q", path, key, resp.StatusCode, refusal.Error, want)
			}
		}
	}
	if st := srv.Stats(); calls.Load() != 0 || st.Submitted != 0 || st.Sweeps.Total != 0 {
		t.Errorf("refused keys left %d runs, %d jobs, %d sweeps", calls.Load(), st.Submitted, st.Sweeps.Total)
	}
}

// TestUnknownControllerListsKnownSet checks the 400 from an unknown
// controller names the valid keys, so a client can self-correct.
func TestUnknownControllerListsKnownSet(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"mix":["spec06.libquantum"],"controller":"phase-selekt"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400 (%s)", resp.StatusCode, buf.String())
	}
	body := buf.String()
	for _, known := range []string{"phase-select", "coord-rl", "mumama", "bandit"} {
		if !strings.Contains(body, known) {
			t.Errorf("400 body does not name known controller %q: %s", known, body)
		}
	}
}
