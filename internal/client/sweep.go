package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// SubmitSweep posts a sweep spec. Submission is idempotent on the
// server (sweeps are content-addressed), so the normal retry policy
// applies; resubmitting an already-running sweep attaches to it.
func (c *Client) SubmitSweep(ctx context.Context, spec sweep.Spec) (sweep.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return sweep.View{}, err
	}
	resp, err := c.Post(ctx, "/v1/sweeps", body)
	if err != nil {
		return sweep.View{}, err
	}
	if resp.Status != http.StatusOK && resp.Status != http.StatusCreated {
		return sweep.View{}, fmt.Errorf("submit sweep: HTTP %d: %s",
			resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	var v sweep.View
	if err := json.Unmarshal(resp.Body, &v); err != nil {
		return sweep.View{}, fmt.Errorf("submit sweep: decode view: %w", err)
	}
	return v, nil
}

// Sweep fetches one sweep's current view.
func (c *Client) Sweep(ctx context.Context, id string) (sweep.View, error) {
	resp, err := c.Get(ctx, "/v1/sweeps/"+id)
	if err != nil {
		return sweep.View{}, err
	}
	if resp.Status != http.StatusOK {
		return sweep.View{}, fmt.Errorf("get sweep %s: HTTP %d: %s",
			id, resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	var v sweep.View
	if err := json.Unmarshal(resp.Body, &v); err != nil {
		return sweep.View{}, err
	}
	return v, nil
}

// Sweeps lists every sweep the server tracks.
func (c *Client) Sweeps(ctx context.Context) ([]sweep.View, error) {
	resp, err := c.Get(ctx, "/v1/sweeps")
	if err != nil {
		return nil, err
	}
	if resp.Status != http.StatusOK {
		return nil, fmt.Errorf("list sweeps: HTTP %d: %s",
			resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	var body struct {
		Sweeps []sweep.View `json:"sweeps"`
	}
	if err := json.Unmarshal(resp.Body, &body); err != nil {
		return nil, err
	}
	return body.Sweeps, nil
}

// StreamSweepResults follows a sweep's result stream until the sweep
// completes, calling fn once per distinct cell event. Delivery from the
// server is at-least-once (a restart rebuilds the event log), so the
// client dedupes by cell index; on any disconnect — server restart,
// drain, dropped connection — it reconnects from cursor 0 under the
// usual backoff policy, making the whole call resumable end to end. A
// non-nil error from fn aborts the stream.
func (c *Client) StreamSweepResults(ctx context.Context, id string, fn func(sweep.Event) error) (sweep.View, error) {
	var seen seenCells
	attempts := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return sweep.View{}, err
		}
		view, done, progressed, err := c.streamOnce(ctx, id, &seen, fn)
		if err != nil {
			if ctx.Err() != nil {
				return sweep.View{}, ctx.Err()
			}
			var abort *streamAbort
			if errors.As(err, &abort) {
				return view, abort.cause
			}
			lastErr = err
		} else if done {
			return view, nil
		}
		// Progress resets the backoff clock: a stream that delivered
		// events before dropping is a healthy server mid-restart, not a
		// persistent failure.
		if progressed {
			attempts = 0
		}
		attempts++
		if attempts > c.maxRetries {
			if lastErr == nil {
				lastErr = fmt.Errorf("stream ended before sweep completion")
			}
			return view, fmt.Errorf("stream sweep %s: giving up after %d attempts: %w",
				id, attempts, lastErr)
		}
		if serr := c.sleep(ctx, c.backoff(attempts-1, nil)); serr != nil {
			return sweep.View{}, serr
		}
	}
}

// RunSweep submits the spec, follows its result stream to the end and
// returns one result per cell, index-aligned with the spec's expansion,
// plus the sweep's final view. Any failed cell fails the call: a mean
// over a partial sample is not the figure. Bound to a sweep name it is
// the remote experiment.Executor.
func (c *Client) RunSweep(ctx context.Context, spec sweep.Spec) ([]experiment.CellResult, sweep.View, error) {
	view, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return nil, sweep.View{}, err
	}
	results := make([]experiment.CellResult, view.Cells)
	delivered := 0
	var failures []string
	final, err := c.StreamSweepResults(ctx, view.ID, func(ev sweep.Event) error {
		if ev.Cell < 0 || ev.Cell >= len(results) {
			return fmt.Errorf("event for cell %d of a %d-cell sweep", ev.Cell, len(results))
		}
		switch ev.Status {
		case sweep.CellDone, sweep.CellDeduped:
			if jerr := json.Unmarshal(ev.Result, &results[ev.Cell]); jerr != nil {
				return fmt.Errorf("cell %d: bad result payload: %w", ev.Cell, jerr)
			}
			delivered++
		case sweep.CellFailed:
			failures = append(failures, fmt.Sprintf("cell %d [%s %s]: %s",
				ev.Cell, strings.Join(ev.Spec.Mix, ","), ev.Spec.Controller, ev.Error))
		}
		return nil
	})
	if err != nil {
		return nil, final, fmt.Errorf("sweep %s: %w", view.ID, err)
	}
	if len(failures) > 0 {
		return nil, final, fmt.Errorf("sweep %s: %d cells failed:\n  %s",
			view.ID, len(failures), strings.Join(failures, "\n  "))
	}
	if delivered != len(results) {
		return nil, final, fmt.Errorf("sweep %s: stream delivered %d of %d cell results",
			view.ID, delivered, len(results))
	}
	return results, final, nil
}

// streamAbort wraps an error that must stop the stream instead of
// triggering a reconnect: one the caller's fn returned, or an event for
// a cell no sweep has.
type streamAbort struct{ cause error }

func (e *streamAbort) Error() string { return e.cause.Error() }
func (e *streamAbort) Unwrap() error { return e.cause }

// streamClient returns an http.Client suitable for long-lived streams:
// the configured transport without the per-request timeout (a follow
// stream legitimately outlives any fixed deadline; cancellation rides
// the request context instead).
func (c *Client) streamClient() *http.Client {
	return &http.Client{Transport: c.hc.Transport}
}

// maxStreamCell bounds the cell index a stream line may carry: far past
// any sweep a server admits (its -max-sweep-cells defaults to 4096), and
// small enough that a hostile line cannot size an allocation that hurts.
const maxStreamCell = 1 << 24

// seenCells is a stream's dedupe set: seen[i] once cell i was delivered,
// grown to the highest index seen.
type seenCells []bool

// add records cell and reports whether it was new. The caller has
// checked 0 <= cell <= maxStreamCell.
func (s *seenCells) add(cell int) bool {
	if cell >= len(*s) {
		*s = append(*s, make([]bool, cell+1-len(*s))...)
	}
	was := (*s)[cell]
	(*s)[cell] = true
	return !was
}

// streamOnce consumes one connection's worth of the result stream.
// Returns the latest view (zero until an end marker arrives), whether
// the sweep is finished, and whether any event arrived.
func (c *Client) streamOnce(ctx context.Context, id string, seen *seenCells, fn func(sweep.Event) error) (view sweep.View, done, progressed bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/sweeps/"+id+"/results", nil)
	if err != nil {
		return sweep.View{}, false, false, err
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return sweep.View{}, false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweep.View{}, false, false, fmt.Errorf("stream sweep %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes()) // no copy: ParseLine copies what it keeps
		if len(line) == 0 {
			continue
		}
		l, perr := sweep.ParseLine(line)
		if perr != nil {
			return view, false, progressed, fmt.Errorf("stream sweep %s: bad line: %w", id, perr)
		}
		if l.End {
			if l.Sweep != nil {
				view = *l.Sweep
			}
			return view, view.Status == "done", progressed, nil
		}
		progressed = true
		if cell := l.Event.Cell; cell < 0 || cell > maxStreamCell {
			// Not a line to retry past, and not an index to size the set by.
			return view, false, progressed, &streamAbort{cause: fmt.Errorf(
				"stream sweep %s: event %d names cell %d, outside [0, %d]", id, l.Event.Seq, cell, maxStreamCell)}
		}
		if !seen.add(l.Event.Cell) {
			continue
		}
		if ferr := fn(l.Event); ferr != nil {
			return view, false, progressed, &streamAbort{cause: ferr}
		}
	}
	if serr := sc.Err(); serr != nil {
		return view, false, progressed, serr
	}
	return view, false, progressed, fmt.Errorf("stream sweep %s: connection closed mid-stream", id)
}
