// Package client is the shared mamaserved HTTP client used by mamactl
// (and embeddable elsewhere): one http.Client with an explicit timeout,
// exponential backoff with jitter on transient failures (connection
// errors, 429, 5xx) honoring Retry-After, and context-first APIs so
// every call is signal-cancellable.
//
// Waiting for a job is event-driven, not polled: WaitJob holds one
// GET …/result?wait= open until the server reports completion (see
// WaitJob for the budget rule that keeps the held request inside every
// timeout in the chain).
//
// Retrying a submission is safe by construction: POST /v1/jobs is
// idempotent because jobs are content-addressed — resubmitting an
// identical spec lands on the same job ID via the server's cache and
// singleflight dedup, never a second simulation.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"micromama/internal/cluster"
)

// Options tunes a Client. Zero values select sane defaults.
type Options struct {
	// Timeout bounds each HTTP attempt (default 30s). The zero-value
	// http.Client has no timeout at all; this client always sets one.
	Timeout time.Duration
	// MaxRetries is how many times a transient failure is retried
	// before giving up (default 4; the first attempt is not a retry).
	MaxRetries int
	// BaseDelay seeds the exponential backoff (default 200ms); delay
	// for retry n is BaseDelay·2ⁿ with ±50% jitter, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (default 5s).
	MaxDelay time.Duration
	// HTTPClient overrides the underlying client (tests); when set,
	// Timeout is not applied to it.
	HTTPClient *http.Client
}

// newTransport is the client's default tuned transport. The stock
// http.DefaultTransport caps idle connections per host at 2, which
// forces fresh TCP handshakes once a few goroutines share one client
// (closed-loop submitters, held WaitJob requests, sweep streams); an
// explicit per-host idle pool keeps connections alive across the
// submit→wait→fetch cycle.
func newTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		ForceAttemptHTTP2:   true,
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
		DisableKeepAlives:   false,
	}
}

// Client is a retrying mamaserved API client. Safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	maxRetries int
	baseDelay  time.Duration
	maxDelay   time.Duration

	// sleep is swapped by tests to observe backoff without waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Client for the given base URL (e.g.
// "http://localhost:8077").
func New(base string, opts Options) *Client {
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	} else if opts.MaxRetries == 0 {
		opts.MaxRetries = 4
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = 200 * time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 5 * time.Second
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: opts.Timeout, Transport: newTransport()}
	}
	return &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         hc,
		maxRetries: opts.MaxRetries,
		baseDelay:  opts.BaseDelay,
		maxDelay:   opts.MaxDelay,
		sleep:      sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Response is the outcome of one successful (possibly non-2xx) HTTP
// exchange: the final status code and the full body.
type Response struct {
	Status int
	Body   []byte
}

// retryable reports whether a status code is worth retrying: 429 and
// 503 are explicit backpressure, and other 5xx are transient by
// convention (the server's fault-injection suite emits 500s).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// retryAfter parses a Retry-After header (delta-seconds or HTTP-date);
// ok is false when absent or unparseable.
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	if sec, err := strconv.Atoi(v); err == nil && sec >= 0 {
		return time.Duration(sec) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// backoff computes the sleep before retry attempt n (0-based):
// BaseDelay·2ⁿ with ±50% jitter, capped at MaxDelay. Server-provided
// Retry-After overrides the exponential schedule (still capped).
func (c *Client) backoff(n int, h http.Header) time.Duration {
	if ra, ok := retryAfter(h); ok {
		if ra > c.maxDelay {
			return c.maxDelay
		}
		return ra
	}
	d := c.baseDelay << uint(n)
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	// Full ±50% jitter decorrelates clients that backed off together.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Do performs one API call with retries. body may be nil. The returned
// Response carries whatever terminal status the server answered —
// callers still check Status — while transport errors that survive
// every retry come back as an error.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := c.attempt(ctx, method, path, body)
		switch {
		case err == nil && !retryable(resp.status):
			return &Response{Status: resp.status, Body: resp.body}, nil
		case err == nil:
			lastErr = fmt.Errorf("HTTP %d: %s", resp.status, strings.TrimSpace(string(resp.body)))
		default:
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
		}
		if attempt >= c.maxRetries {
			if err == nil {
				// Out of retries on a retryable status: surface the
				// response so callers can report status and body.
				return &Response{Status: resp.status, Body: resp.body}, nil
			}
			return nil, fmt.Errorf("%s %s: giving up after %d attempts: %w",
				method, path, attempt+1, lastErr)
		}
		var hdr http.Header
		if err == nil {
			hdr = resp.header
		}
		if serr := c.sleep(ctx, c.backoff(attempt, hdr)); serr != nil {
			return nil, serr
		}
	}
}

type attemptResult struct {
	status int
	header http.Header
	body   []byte
}

func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (attemptResult, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return attemptResult{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return attemptResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return attemptResult{}, err
	}
	return attemptResult{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// Get performs a retrying GET.
func (c *Client) Get(ctx context.Context, path string) (*Response, error) {
	return c.Do(ctx, http.MethodGet, path, nil)
}

// Post performs a retrying POST with a JSON body.
func (c *Client) Post(ctx context.Context, path string, body []byte) (*Response, error) {
	return c.Do(ctx, http.MethodPost, path, body)
}

// ErrJobFailed is returned by WaitJob when the job finished as failed;
// the response body still carries the full job view.
var ErrJobFailed = errors.New("job failed")

// waitBudget is how long one held GET …/result?wait= may ask the server
// to keep the request open: the server's cap (cluster.MaxResultWait),
// ¾ of the per-attempt HTTP timeout (so a slow job comes back as a 202
// to re-issue, never as a transport timeout that burns Do's retries),
// and the time left on ctx, whichever is least — in whole milliseconds and at least one, so the
// query string the server parses is exactly the duration an early 202
// is judged against and is never wait=0, which the server does not hold.
func (c *Client) waitBudget(ctx context.Context) time.Duration {
	budget := cluster.MaxResultWait
	if t := c.hc.Timeout; t > 0 {
		budget = min(budget, t*3/4)
	}
	if dl, ok := ctx.Deadline(); ok {
		budget = min(budget, time.Until(dl))
	}
	return max(budget.Truncate(time.Millisecond), time.Millisecond)
}

// WaitJob blocks until the job leaves queued/running, ctx is cancelled,
// or a non-retryable error occurs. It is event-driven: each request is
// GET /v1/jobs/{id}/result?wait=<budget>, which the server holds open
// until the job finishes, so a job costs one GET and the result arrives
// one round trip after it exists. A 202 after the full wait (slow job)
// is re-issued at once. A 202 that comes back early — a server shutting
// down releases its held requests, and an old server or a proxy may
// ignore wait altogether — is paced by poll (default 200ms) so the loop
// cannot spin; that is poll's only use. Transient failures during a
// held request ride the client's normal retry policy (the GET is
// idempotent). A job that finished as failed returns the final body
// alongside ErrJobFailed.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*Response, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		budget := c.waitBudget(ctx)
		asked := time.Now()
		resp, err := c.Get(ctx, "/v1/jobs/"+id+"/result?wait="+budget.String())
		if err != nil {
			return nil, err
		}
		switch resp.Status {
		case http.StatusAccepted:
			if time.Since(asked) < budget {
				if err := c.sleep(ctx, poll); err != nil {
					return nil, err
				}
			}
		case http.StatusOK:
			var view struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(resp.Body, &view); err != nil {
				return resp, err
			}
			if view.Status == "failed" {
				return resp, fmt.Errorf("%w: %s", ErrJobFailed, view.Error)
			}
			return resp, nil
		default:
			return resp, fmt.Errorf("wait %s: HTTP %d: %s",
				id, resp.Status, strings.TrimSpace(string(resp.Body)))
		}
	}
}
