package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced pass. Times are nanoseconds
// since the process started; Parent is 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int64  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Workload is set in the invocation's span file, which holds the
	// spans of several child processes; IDs are unique per workload.
	Workload string `json:"workload,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func sinceStart(t time.Time) int64 { return int64(t.Sub(processStart)) }

// add records a span that has already ended.
func (t *tracer) add(name string, op int, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(span{ID: t.next.Add(1), Name: name, Op: op, Parent: parent, StartNs: sinceStart(start), EndNs: sinceStart(end)})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanRef names the span a piece of work belongs to: the op and the
// span that caused it. It travels in the context on the client side and
// in the X-Bench-Op header across the wire.
type spanRef struct {
	t      *tracer
	op     int
	parent int64
}

type spanRefKey struct{}

func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanRefKey{}).(spanRef)
	return r, ok
}

// liveSpan is a span that has started. Its ID is allotted up front so
// children can name it as their parent before it ends.
type liveSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// root starts the span of op, under which everything the op causes is
// filed, and returns a context that carries it. On a nil tracer it
// returns ctx and a nil span, whose end does nothing.
func (t *tracer) root(ctx context.Context, op int) (context.Context, *liveSpan) {
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, "op", op, 0)
}

// child starts a span under the one ctx carries. In the untraced pass
// ctx carries none and nothing is recorded.
func child(ctx context.Context, name string) (context.Context, *liveSpan) {
	r, ok := refFrom(ctx)
	if !ok {
		return ctx, nil
	}
	return r.t.start(ctx, name, r.op, r.parent)
}

func (t *tracer) start(ctx context.Context, name string, op int, parent int64) (context.Context, *liveSpan) {
	ls := &liveSpan{t: t, s: span{ID: t.next.Add(1), Name: name, Op: op, Parent: parent}, start: time.Now()}
	return context.WithValue(ctx, spanRefKey{}, spanRef{t: t, op: op, parent: ls.s.ID}), ls
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	ls.s.StartNs, ls.s.EndNs = sinceStart(ls.start), sinceStart(time.Now())
	ls.t.record(ls.s)
}

// spanUnder files an interval measured elsewhere (the server's own job
// timestamps) under the span ctx carries.
func spanUnder(ctx context.Context, name string, start, end time.Time) {
	if r, ok := refFrom(ctx); ok && !end.Before(start) {
		r.t.add(name, r.op, r.parent, start, end)
	}
}

const headerBenchOp = "X-Bench-Op"

// tracingTransport stamps each outgoing request with the op and client
// span it belongs to, so the middleware on the server side can file its
// span under them. It is only installed for the traced pass.
type tracingTransport struct{ base http.RoundTripper }

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if r, ok := refFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(headerBenchOp, strconv.Itoa(r.op)+"/"+strconv.FormatInt(r.parent, 10))
	}
	return tt.base.RoundTrip(req)
}

func parseBenchOp(v string) (op int, parent int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.Atoi(a)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// snapshot returns the spans recorded so far in ID order, each trimmed
// to its parent's interval. A child is timed on another goroutine than
// its parent (the server side of a request the client timed) or from the
// server's wall-clock job timestamps, so it can overhang by the few
// microseconds between the two readings; an ID is allotted when a span
// begins, so parents always come first.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	byID := make(map[int64]*span, len(out))
	for i := range out {
		s := &out[i]
		if p, ok := byID[s.Parent]; ok {
			s.StartNs = min(max(s.StartNs, p.StartNs), p.EndNs)
			s.EndNs = max(min(s.EndNs, p.EndNs), s.StartNs)
		}
		byID[s.ID] = s
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// spanStat is what the traced pass knows about one span name.
type spanStat struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	// SelfMs is the mean of duration minus the part of the interval the
	// span's children cover.
	SelfMs float64 `json:"self_ms"`
}

// checkForest verifies the spans form a forest — every parent exists,
// every child lies inside its parent, no self time is negative — and
// returns per-name statistics with self time computed.
func checkForest(spans []span) (map[string]spanStat, error) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if _, dup := byID[s.ID]; dup {
			return nil, fmt.Errorf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %d (%s) names parent %d, which was never recorded", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return nil, fmt.Errorf("span %d (%s) [%d,%d] lies outside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	type acc struct {
		n         int
		dur, self int64
	}
	accs := map[string]*acc{}
	for _, s := range spans {
		self := s.EndNs - s.StartNs - covered(children[s.ID])
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.dur += s.EndNs - s.StartNs
		a.self += self
	}
	out := make(map[string]spanStat, len(accs))
	for name, a := range accs {
		out[name] = spanStat{
			Count:  a.n,
			MeanMs: float64(a.dur) / float64(a.n) / 1e6,
			SelfMs: float64(a.self) / float64(a.n) / 1e6,
		}
	}
	return out, nil
}

// covered is the length of the union of the spans' intervals.
func covered(kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	lo, hi := kids[0].StartNs, kids[0].EndNs
	for _, k := range kids[1:] {
		if k.StartNs > hi {
			total += hi - lo
			lo, hi = k.StartNs, k.EndNs
			continue
		}
		if k.EndNs > hi {
			hi = k.EndNs
		}
	}
	return total + hi - lo
}
