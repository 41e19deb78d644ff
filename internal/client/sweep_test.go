package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"micromama/internal/sweep"
)

// sweepEventLine renders one NDJSON event line.
func sweepEventLine(seq, cell int) string {
	ev := sweep.Event{Seq: seq, Cell: cell, Status: sweep.CellDone,
		Key: fmt.Sprintf("k%d", cell), Result: json.RawMessage(`{"ws":1}`)}
	b, _ := json.Marshal(ev)
	return string(b) + "\n"
}

func sweepEndLine(status string, cells int) string {
	b, _ := json.Marshal(struct {
		End   bool       `json:"end"`
		Sweep sweep.View `json:"sweep"`
	}{true, sweep.View{ID: "s1", Status: status, Cells: cells, Done: cells}})
	return string(b) + "\n"
}

// TestStreamSweepResultsResume is the client half of the resume
// contract: the stream drops mid-way (server restart), the client
// reconnects, the server re-delivers the whole rebuilt log
// (at-least-once), and the caller still observes each cell exactly
// once before getting the final view.
func TestStreamSweepResultsResume(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweeps/s1/results" {
			http.NotFound(w, r)
			return
		}
		switch conns.Add(1) {
		case 1:
			// Two events, then the connection dies without an end marker.
			fmt.Fprint(w, sweepEventLine(0, 0))
			fmt.Fprint(w, sweepEventLine(1, 1))
		default:
			// Restarted server: rebuilt log re-delivers everything.
			fmt.Fprint(w, sweepEventLine(0, 0))
			fmt.Fprint(w, sweepEventLine(1, 1))
			fmt.Fprint(w, sweepEventLine(2, 2))
			fmt.Fprint(w, sweepEndLine("done", 3))
		}
	}))
	defer ts.Close()

	c, slept := newTestClient(ts, Options{})
	var got []int
	view, err := c.StreamSweepResults(context.Background(), "s1", func(ev sweep.Event) error {
		got = append(got, ev.Cell)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != "done" || view.Done != 3 {
		t.Fatalf("final view = %+v, want done with 3 cells", view)
	}
	if conns.Load() != 2 {
		t.Fatalf("client used %d connections, want 2 (drop + resume)", conns.Load())
	}
	// At-least-once delivery from the server, exactly-once to the
	// caller: cells 0 and 1 arrived on both connections but fn saw them
	// once.
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("caller observed cells %v, want [0 1 2] exactly once each", got)
	}
	if len(*slept) == 0 {
		t.Error("reconnect did not go through the backoff sleeper")
	}
}

// TestStreamSweepResultsAbort: an error from the caller's fn stops the
// stream immediately — no reconnect, the error comes back unwrapped.
func TestStreamSweepResultsAbort(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		fmt.Fprint(w, sweepEventLine(0, 0))
		fmt.Fprint(w, sweepEventLine(1, 1))
		fmt.Fprint(w, sweepEndLine("done", 2))
	}))
	defer ts.Close()

	c, _ := newTestClient(ts, Options{})
	boom := errors.New("boom")
	_, err := c.StreamSweepResults(context.Background(), "s1", func(ev sweep.Event) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the caller's abort error", err)
	}
	if conns.Load() != 1 {
		t.Errorf("abort reconnected anyway: %d connections", conns.Load())
	}
}

// TestStreamSweepResultsGivesUp: a sweep that never completes and a
// server that keeps closing the stream exhausts retries with an error
// instead of spinning forever.
func TestStreamSweepResultsGivesUp(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Always ends "running": the client must treat it as a drop.
		fmt.Fprint(w, sweepEndLine("running", 3))
	}))
	defer ts.Close()

	c, _ := newTestClient(ts, Options{MaxRetries: 2})
	_, err := c.StreamSweepResults(context.Background(), "s1", func(sweep.Event) error { return nil })
	if err == nil {
		t.Fatal("stream against a never-finishing sweep returned nil")
	}
}

// TestStreamSweepResultsRefusesWildCell: an event naming a cell no sweep
// has — negative, or far past any admitted size — stops the stream with
// an error at once: the index is never used to size or index the dedupe
// set, the caller's fn never sees the event, and a reconnect would only
// read the same line again.
func TestStreamSweepResultsRefusesWildCell(t *testing.T) {
	for _, cell := range []int{-1, maxStreamCell + 1, 1 << 62} {
		var conns atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conns.Add(1)
			fmt.Fprint(w, sweepEventLine(0, 0))
			fmt.Fprint(w, sweepEventLine(1, cell))
			fmt.Fprint(w, sweepEndLine("done", 2))
		}))
		c, _ := newTestClient(ts, Options{})
		var got []int
		_, err := c.StreamSweepResults(context.Background(), "s1", func(ev sweep.Event) error {
			got = append(got, ev.Cell)
			return nil
		})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cell %d", cell)) {
			t.Errorf("cell %d: err = %v, want one naming the cell", cell, err)
		}
		if len(got) != 1 || got[0] != 0 || conns.Load() != 1 {
			t.Errorf("cell %d: caller saw cells %v over %d connections, want [0] over 1", cell, got, conns.Load())
		}
	}
}

// TestStreamSweepResultsBadLines: a line the codec refuses, and one past
// the scanner's 8 MiB limit, are stream errors like a dropped
// connection — the client reconnects under the retry policy and reports
// the cause when it gives up.
func TestStreamSweepResultsBadLines(t *testing.T) {
	for name, tc := range map[string]struct {
		line string
		want error
	}{
		"truncated":   {line: `{"seq":0,"cell":0,"status":"done","result":{"ws":1` + "\n"},
		"wrong type":  {line: `{"seq":0,"cell":"0"}` + "\n"},
		"9 MiB event": {line: `{"seq":0,"cell":0,"result":"` + strings.Repeat("x", 9<<20) + `"}` + "\n", want: bufio.ErrTooLong},
	} {
		var conns atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			conns.Add(1)
			fmt.Fprint(w, tc.line)
			fmt.Fprint(w, sweepEndLine("done", 1))
		}))
		c, _ := newTestClient(ts, Options{MaxRetries: 1})
		_, err := c.StreamSweepResults(context.Background(), "s1", func(ev sweep.Event) error {
			t.Errorf("%s: the caller was handed %+v", name, ev)
			return nil
		})
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want a give-up after a retry wrapping %v", name, err, tc.want)
		}
		if conns.Load() != 2 {
			t.Errorf("%s: %d connections, want 2 (the line is retried once)", name, conns.Load())
		}
	}
}
