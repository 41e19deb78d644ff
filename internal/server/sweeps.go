package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"micromama/internal/faultinject"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
)

// faultSweepWorkerKill simulates a worker dying while holding a sweep
// cell: the dispatched run is abandoned before it starts and its
// outcome is lost, so the ticket goes back to the manager as pending —
// the same path a real crash exercises through persistence and resume.
var faultSweepWorkerKill = faultinject.New("server/sweep/worker-kill")

// sweepExec adapts the Server into the sweep manager's execution
// backend: cell keys through the canonical job hash, result lookups
// against the content-addressed cache and, clustered, the peers' caches
// asked for what this one lacks.
type sweepExec struct{ s *Server }

func (e sweepExec) AppendKey(dst []byte, c sweep.Cell) ([]byte, error) {
	dst, _, err := e.s.appendKey(dst, &c)
	return dst, err
}

func (e sweepExec) Prefetch(ctx context.Context, keys string) {
	if e.s.cl != nil {
		e.s.cl.prefetch(ctx, keys)
	}
}

func (e sweepExec) CachedResult(key string) (json.RawMessage, bool) {
	hit, ok := e.s.cache.get(key)
	return hit.raw, ok
}

// runCell sees one dequeued ticket to an execution venue: this worker,
// or (clustered) the peer the dispatch rule picks — see reserve — in
// which case the worker moves on at once. A ticket whose key is already
// cached or running never gets that far — admitCell answers or attaches
// it.
func (s *Server) runCell(worker int, t sweep.Ticket) {
	if faultSweepWorkerKill.Fire() {
		s.log.Warn("sweep cell abandoned: injected worker death",
			"sweep", t.SweepID, "cell", t.Index, "worker", worker)
		s.sweeps.CellDone(t, sweep.CellPending, nil, "")
		return
	}
	var slot *remoteSlot
	if s.cl != nil {
		slot = s.cl.reserve(t.Key, true)
	}
	switch j := s.admitCell(t, slot != nil); {
	case j == nil:
		slot.release()
	case slot != nil:
		s.cl.runRemote(slot, j)
	default:
		if s.cl != nil {
			s.cl.dispatchNext() // this worker is about to be busy: keep the peers full meanwhile
		}
		s.pool.execute(worker, j)
	}
}

// admitCell runs the admit step for a dequeued ticket, so its key is in
// the job registry before its simulation starts anywhere — on a peer,
// when remote is set. It returns the new job the caller now owes an
// execution, or nil when there is nothing to run: the result was cached
// (the cell completes as deduped here) or an identical job is queued or
// running (the ticket rides on it and finishJob settles it).
func (s *Server) admitCell(t sweep.Ticket, remote bool) *job {
	spec := JobSpec{Cell: t.Cell, TimeoutMs: t.TimeoutMs}
	spec.Normalize()
	s.mu.Lock()
	j, how := s.admitLocked(t.Key, spec, telemetry.NewRequestID(jobID(t.Key)), &t, false, false)
	if how == admitNew {
		j.remote = remote
	}
	s.mu.Unlock()
	switch how {
	case admitNew:
		return j
	case admitHit:
		hit, _ := s.cache.get(t.Key)
		s.settle(nil, []sweep.Ticket{t}, hit.raw, nil)
	}
	return nil
}

// settle reports one outcome to the sweep cells waiting on it: ran is
// the ticket whose job executed (nil when an interactive job or the
// cache produced the outcome), riders the tickets that joined it. On
// success ran is done and the riders deduped, all sharing raw, the
// cache entry's JSON. A failure belongs to ran alone: the riders were
// never attempted, so each goes back for its own run. Shutdown and a
// lost peer are nobody's failure — ran goes back too and re-runs on the
// next dispatch or after restart.
func (s *Server) settle(ran *sweep.Ticket, riders []sweep.Ticket, raw json.RawMessage, err error) {
	ranAs, rideAs, msg := sweep.CellDone, sweep.CellDeduped, ""
	if err != nil {
		ranAs, rideAs, msg = sweep.CellFailed, sweep.CellPending, err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, errPeerUnavailable) {
			ranAs = sweep.CellPending
		}
	}
	if ran != nil {
		s.sweeps.CellDone(*ran, ranAs, raw, msg)
	}
	for _, t := range riders {
		s.sweeps.CellDone(t, rideAs, raw, msg)
	}
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable,
			errorBody{Error: "server is draining; retry against a healthy instance"})
		return
	}
	var spec sweep.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad sweep spec: " + err.Error()})
		return
	}
	view, created, err := s.sweeps.Submit(r.Context(), spec)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
		if s.cl != nil {
			s.cl.dispatchAdmitted()
		}
	}
	writeJSON(w, status, view)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Sweeps []sweep.View `json:"sweeps"`
	}{s.sweeps.List()})
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sweeps.View(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown sweep"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// sweepEnd is the terminal line of a result stream: the sweep's final
// view (or its state at client-cancel/drain time, when status is still
// "running" — reconnect with ?cursor= to resume).
type sweepEnd struct {
	End   bool       `json:"end"`
	Sweep sweep.View `json:"sweep"`
}

// streamChunk is how many bytes of event frames handleSweepResults
// gathers before it writes them: enough that a warm 512-event batch is a
// handful of writes instead of 512, small next to the log it bounds.
const streamChunk = 64 << 10

// streamBuf is what a result stream works in: the batch of events it
// last read and the frames it is writing them out as.
type streamBuf struct {
	events []sweep.Event
	frames []byte
}

// streamBufs recycles them: a warm batch is 512 events (94 KB) framed
// streamChunk at a time, and growing both from nothing on every request
// was 6 % (the frames) and 3 % (the events) of sweep_warm's CPU.
var streamBufs = sync.Pool{New: func() any { return new(streamBuf) }}

// handleSweepResults streams a sweep's event log incrementally.
//
//	GET /v1/sweeps/{id}/results?cursor=N&follow=0|1
//
// Default framing is NDJSON — one Event object per line, then one
// {"end":true,"sweep":…} line. With Accept: text/event-stream the same
// payloads go out as SSE (`id:` carries the cursor, the terminal frame
// is `event: end`). cursor resumes after the N'th event; delivery is
// at-least-once across server restarts, so consumers dedupe on the
// event's cell index. follow=0 dumps what exists and ends immediately.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cursor, _ := strconv.Atoi(r.URL.Query().Get("cursor"))
	follow := r.URL.Query().Get("follow") != "0"
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	sb := streamBufs.Get().(*streamBuf)
	events, view, changed, ok := s.sweeps.EventsSince(id, cursor, sb.events[:0])
	buf := sb.frames[:0]
	defer func() { sb.events, sb.frames = events, buf; streamBufs.Put(sb) }()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown sweep"})
		return
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	eol := "\n"
	if sse {
		eol = "\n\n"
	}
	// Frames are assembled in buf and go out whole, a batch in one Write
	// (or one per streamChunk of it: a long log never becomes one
	// buffer). writeEvents reports false when the client is gone, with
	// the cursor still on the first event of the chunk that was not
	// delivered, so a reconnect re-reads from there.
	writeEvents := func(events []sweep.Event) bool {
		for i, ev := range events {
			if sse {
				buf = append(strconv.AppendInt(append(buf, "id: "...), int64(ev.Seq), 10), "\ndata: "...)
			}
			buf = append(sweep.AppendEvent(buf, ev), eol...)
			if len(buf) < streamChunk && i < len(events)-1 {
				continue
			}
			if _, err := w.Write(buf); err != nil {
				s.log.Debug("sweep stream ended early", "sweep", id, "cursor", cursor, "err", err)
				return false
			}
			cursor, buf = ev.Seq+1, buf[:0]
		}
		_ = rc.Flush() // unsupported by w, or the client is gone: nothing to do about either
		return true
	}
	writeEnd := func(v sweep.View) {
		b, err := json.Marshal(sweepEnd{End: true, Sweep: v})
		if err != nil {
			return
		}
		if buf = buf[:0]; sse {
			buf = append(buf, "event: end\ndata: "...)
		}
		_, _ = w.Write(append(append(buf, b...), eol...)) // the last frame: a client that is gone misses nothing more
		_ = rc.Flush()
	}

	for {
		if !writeEvents(events) {
			return
		}
		if view.Status == "done" || !follow {
			writeEnd(view)
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.sweeps.DrainCh():
			// Shutdown: hand the client its resume point; whatever is
			// still pending completes on the restarted server.
			events, view, _, ok = s.sweeps.EventsSince(id, cursor, events[:0])
			if ok && writeEvents(events) {
				writeEnd(view)
			}
			return
		}
		events, view, changed, ok = s.sweeps.EventsSince(id, cursor, events[:0])
		if !ok {
			return
		}
	}
}
