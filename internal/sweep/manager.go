package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"micromama/internal/persist"
	"micromama/internal/telemetry"
)

// KeyLen is the length of a job key: the hex digits of a SHA-256.
const KeyLen = 64

// Exec is what the manager needs from its execution backend (the
// server): canonical cell resolution — validation plus the
// content-addressed job key — and result-cache lookups. Abstracting
// these calls keeps internal/sweep free of the server's types (the
// server imports sweep, not the reverse).
type Exec interface {
	// AppendKey validates a cell and appends its content-addressed job
	// key, KeyLen bytes, to dst. The error, if any, is a client error
	// (bad trace name, too many cores, unknown controller), and dst comes
	// back as it was given.
	AppendKey(dst []byte, c Cell) ([]byte, error)
	// Prefetch is handed the keys of a sweep that is about to be
	// admitted — KeyLen bytes each, back to back — before admission looks
	// any of them up: a backend whose results may sit elsewhere (a
	// cluster peer's cache) fetches what it can now, under the submitting
	// request's context. Best effort: a result it misses is recomputed.
	Prefetch(ctx context.Context, keys string)
	// CachedResult returns the cached result for a job key, encoded as
	// the API's JSON result object.
	CachedResult(key string) (json.RawMessage, bool)
}

// Config tunes a Manager. Zero values select defaults.
type Config struct {
	// Exec is the execution backend. Required.
	Exec Exec
	// MaxCells bounds a single sweep's expansion (default 4096).
	MaxCells int
	// MaxPriority clamps per-sweep priorities (default 8).
	MaxPriority int
	// Dir, when non-empty, persists sweep state (one JSON file per
	// sweep) so a restarted server resumes incomplete sweeps.
	Dir string
	// Registry receives the mama_server_sweep_* instruments; nil uses a
	// private throwaway registry (tests).
	Registry *telemetry.Registry
	// Logger receives sweep lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// Ticket is one dispatched cell: the manager's claim check, which the
// backend returns through CellDone. The manager does not know which
// keys are running — the backend's job registry does, and it may make
// several tickets wait on one execution.
type Ticket struct {
	SweepID   string
	Index     int
	Cell      Cell
	Key       string
	TimeoutMs int64
}

// state is the in-memory authority for one sweep. Per cell it holds a
// key, a status byte and, once the cell is terminal, a log entry; the
// cell itself is read off the spec.
type state struct {
	id        string
	spec      Spec // normalized; includes priority for persistence
	priority  int
	cells     layout  // over spec's own grid and cells
	keys      string  // KeyLen bytes per cell: one pointer-free allocation
	status    []uint8 // a statusNames index per cell
	errors    map[int]string
	events    []logged // terminal cells in completion order; position = Event.Seq
	createdAt time.Time
	finished  time.Time // zero while cells remain

	running int
	done    int
	failed  int
	deduped int
}

// logged is one entry of a sweep's append-only result log: which cell
// finished, and its result (the result cache's own bytes, read-only;
// nil for a failed cell). The rest of an Event is held once, in the
// per-cell slices — a terminal cell's status and error never change.
type logged struct {
	cell   int
	result json.RawMessage
}

// key is cell i's job key: a substring of keys, no allocation.
func (st *state) key(i int) string { return st.keys[i*KeyLen : (i+1)*KeyLen] }

func (st *state) terminalCount() int { return st.done + st.failed + st.deduped }

func (st *state) pendingCount() int {
	return st.cells.len() - st.running - st.terminalCount()
}

func (st *state) view() View {
	v := View{
		ID:        st.id,
		Name:      st.spec.Name,
		Status:    "running",
		Priority:  st.priority,
		Cells:     st.cells.len(),
		Pending:   st.pendingCount(),
		Running:   st.running,
		Done:      st.done,
		Failed:    st.failed,
		Deduped:   st.deduped,
		Events:    len(st.events),
		CreatedAt: st.createdAt,
	}
	if !st.finished.IsZero() {
		t := st.finished
		v.FinishedAt = &t
		v.Status = "done"
	}
	return v
}

// metrics is the mama_server_sweep_* instrument set.
type metrics struct {
	submitted     *telemetry.Counter
	resumed       *telemetry.Counter
	cellsExpanded *telemetry.Counter
	cellsDeduped  *telemetry.Counter
	cellsDone     *telemetry.Counter
	cellsFailed   *telemetry.Counter
	store         persist.Metrics
}

func newMetrics(r *telemetry.Registry, mgr *Manager) *metrics {
	m := &metrics{
		submitted: r.Counter("mama_server_sweeps_submitted_total",
			"Sweeps accepted at POST /v1/sweeps (excluding idempotent re-submissions)."),
		resumed: r.Counter("mama_server_sweeps_resumed_total",
			"Incomplete sweeps restored from disk at startup."),
		cellsExpanded: r.Counter("mama_server_sweep_cells_expanded_total",
			"Cells produced by sweep expansion."),
		cellsDeduped: r.Counter("mama_server_sweep_cells_deduped_total",
			"Sweep cells completed without running (result cache or an identical run)."),
		cellsDone: r.Counter("mama_server_sweep_cells_completed_total",
			"Sweep cells that ran to a successful result."),
		cellsFailed: r.Counter("mama_server_sweep_cells_failed_total",
			"Sweep cells that finished with an error."),
		store: persist.NewMetrics(r, "mama_server_sweep_persist", "sweep records"),
	}
	r.GaugeFunc("mama_server_sweeps_active",
		"Sweeps with cells still pending or running.",
		func() float64 { return float64(mgr.Counts().Active) })
	r.GaugeFunc("mama_server_sweep_cells_pending",
		"Sweep cells waiting for dispatch across all sweeps.",
		func() float64 { c := mgr.Counts(); return float64(c.CellsPending) })
	return m
}

// Counts is the sweep block of /v1/stats.
type Counts struct {
	Active       int    `json:"sweeps_active"`
	Total        int    `json:"sweeps_tracked"`
	Submitted    uint64 `json:"sweeps_submitted"`
	Resumed      uint64 `json:"sweeps_resumed"`
	CellsPending int    `json:"sweep_cells_pending"`
	CellsRunning int    `json:"sweep_cells_running"`
	CellsDone    uint64 `json:"sweep_cells_completed"`
	CellsDeduped uint64 `json:"sweep_cells_deduped"`
	CellsFailed  uint64 `json:"sweep_cells_failed"`
}

// Manager owns every sweep: admission (expansion, dedupe against the
// result cache), the weighted-fair pending queues, the per-sweep event
// logs that streams read, and the crash-safe store. All mutation is
// serialized under mu; dispatch is pull-based (the server's dispatcher
// calls TryDequeue when a worker is free, woken through WakeCh).
type Manager struct {
	exec        Exec
	maxCells    int
	maxPriority int
	log         *slog.Logger
	reg         *telemetry.Registry
	m           *metrics

	mu       sync.Mutex
	sweeps   map[string]*state
	sched    *sched
	notify   chan struct{} // closed and replaced whenever any event log grows
	draining bool

	wake    chan struct{} // cap 1; pokes the server's dispatcher
	drainCh chan struct{} // closed once Drain begins; ends follow-streams

	store *persist.Store[record] // nil without Config.Dir
}

// New builds a Manager and, when Config.Dir is set, restores persisted
// sweeps: finished cells whose results survive in the result cache stay
// finished; cells that were running (or whose results were lost) return
// to pending and are re-dispatched.
func New(cfg Config) (*Manager, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("sweep: Config.Exec is required")
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.MaxPriority <= 0 {
		cfg.MaxPriority = 8
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	mgr := &Manager{
		exec:        cfg.Exec,
		maxCells:    cfg.MaxCells,
		maxPriority: cfg.MaxPriority,
		log:         cfg.Logger,
		reg:         cfg.Registry,
		sweeps:      make(map[string]*state),
		sched:       newSched(),
		notify:      make(chan struct{}),
		wake:        make(chan struct{}, 1),
		drainCh:     make(chan struct{}),
	}
	mgr.m = newMetrics(cfg.Registry, mgr)
	if cfg.Dir != "" {
		st, err := persist.Open(persist.Options[record]{
			Dir:        cfg.Dir,
			What:       "sweep state",
			Key:        func(rec record) string { return rec.ID },
			Metrics:    mgr.m.store,
			WriteFault: faultSweepPersistWrite,
			ReadFault:  faultSweepPersistRead,
			Logger:     cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		mgr.store = st
		st.Load(mgr.resume)
	}
	return mgr, nil
}

// clampPriority normalizes a requested priority into [1, MaxPriority].
func (mgr *Manager) clampPriority(p int) int {
	if p < 1 {
		return 1
	}
	if p > mgr.maxPriority {
		return mgr.maxPriority
	}
	return p
}

// newState lays a spec out and keys every cell into a sweep with all of
// them pending, before any state is taken: a spec with one bad cell is
// refused whole, so a partially admitted sweep never exists.
func (mgr *Manager) newState(id string, spec Spec, createdAt time.Time) (*state, error) {
	cells, err := spec.layout(mgr.maxCells)
	if err != nil {
		return nil, err
	}
	spec.Priority = mgr.clampPriority(spec.Priority)
	n := cells.len()
	var keys strings.Builder
	keys.Grow(n * KeyLen)
	key := make([]byte, 0, KeyLen)
	for i := 0; i < n; i++ {
		if key, err = mgr.exec.AppendKey(key[:0], cells.at(i)); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		if len(key) != KeyLen { // key(i) slices the blob at fixed strides
			return nil, fmt.Errorf("cell %d: backend returned a %d-byte key", i, len(key))
		}
		keys.Write(key)
	}
	return &state{
		id: id, spec: spec, priority: spec.Priority, createdAt: createdAt,
		cells:  cells,
		keys:   keys.String(),
		status: make([]uint8, n), // codePending
		errors: make(map[int]string),
		events: make([]logged, 0, n), // every cell is logged once
	}, nil
}

// Submit admits a sweep: layout, content addressing, cache dedupe, and
// scheduling. Resubmitting an identical spec attaches to the existing
// sweep (created=false) and only updates its priority — submission is
// idempotent by construction, which is what lets clients blindly retry
// over flaky links — and costs a map lookup: an equal ID is an equal
// normalized spec, validated when it was admitted. ctx is the
// submitting request's, for Exec.Prefetch. Errors are client errors.
func (mgr *Manager) Submit(ctx context.Context, spec Spec) (View, bool, error) {
	id, err := spec.ID()
	if err != nil {
		return View{}, false, err
	}
	priority := mgr.clampPriority(spec.Priority)
	mgr.mu.Lock()
	v, held, err := mgr.attachLocked(id, priority)
	mgr.mu.Unlock()
	if held || err != nil {
		return v, false, err
	}
	// Keying a big sweep and fetching for it take a while: outside the lock.
	st, err := mgr.newState(id, spec, time.Now().UTC())
	if err != nil {
		return View{}, false, err
	}
	mgr.exec.Prefetch(ctx, st.keys)

	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if v, held, err := mgr.attachLocked(id, priority); held || err != nil {
		return v, false, err // a twin submission won the race
	}
	n := st.cells.len()
	mgr.sweeps[id] = st
	mgr.m.submitted.Inc()
	mgr.m.cellsExpanded.Add(uint64(n))

	// Dedupe against the warm cache at admission: anything already
	// simulated completes immediately without touching the scheduler.
	mgr.sched.add(id, priority)
	enqueued := 0
	for i := 0; i < n; i++ {
		if raw, ok := mgr.exec.CachedResult(st.key(i)); ok {
			mgr.completeLocked(st, i, CellDeduped, raw, "")
			continue
		}
		mgr.sched.push(id, i)
		enqueued++
	}
	if st.pendingCount() == 0 && st.running == 0 {
		mgr.finishIfDoneLocked(st)
	}
	if enqueued > 0 {
		mgr.registerDepthGauge(id)
	}
	mgr.saveLocked(st)
	mgr.log.Info("sweep submitted", "sweep", id, "name", spec.Name,
		"cells", n, "deduped", st.deduped, "enqueued", enqueued,
		"priority", priority)
	mgr.pokeLocked()
	mgr.broadcastLocked()
	return st.view(), true, nil
}

// attachLocked is Submit for a sweep the manager already holds
// (held=true): its view, after taking the resubmission's priority.
func (mgr *Manager) attachLocked(id string, priority int) (v View, held bool, err error) {
	if mgr.draining {
		return View{}, false, fmt.Errorf("server is draining; retry against a healthy instance")
	}
	old, held := mgr.sweeps[id]
	if !held {
		return View{}, false, nil
	}
	if old.priority != priority {
		old.priority = priority
		old.spec.Priority = priority
		mgr.sched.add(id, priority)
		mgr.saveLocked(old)
	}
	return old.view(), true, nil
}

// resume restores one persisted sweep. The spec lays out the same cells
// again; stored statuses are reconciled against the
// restored result cache: done/deduped cells keep their status only if
// the cached result is still present (otherwise they re-run), running
// cells return to pending (the process died under them), failed cells
// stay failed with their stored error.
func (mgr *Manager) resume(rec record) {
	st, err := mgr.newState(rec.ID, rec.Spec, rec.CreatedAt)
	if err != nil {
		mgr.log.Error("persisted sweep no longer expands and resolves; dropping", "sweep", rec.ID, "err", err)
		return
	}
	n := st.cells.len()

	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	mgr.sweeps[st.id] = st
	mgr.m.resumed.Inc()
	mgr.sched.add(st.id, st.priority)
	pending := 0
	for i := 0; i < n; i++ {
		prev := CellPending
		if i < len(rec.Status) {
			prev = rec.Status[i]
		}
		switch prev {
		case CellDone, CellDeduped:
			if raw, ok := mgr.exec.CachedResult(st.key(i)); ok {
				mgr.completeLocked(st, i, prev, raw, "")
				continue
			}
			// The result was lost (cache file quarantined or the cache dir
			// changed): re-run rather than lie.
		case CellFailed:
			mgr.completeLocked(st, i, CellFailed, nil, rec.Errors[i])
			continue
		}
		mgr.sched.push(st.id, i)
		pending++
	}
	if pending == 0 && st.running == 0 {
		mgr.finishIfDoneLocked(st)
	}
	if pending > 0 {
		mgr.registerDepthGauge(st.id)
	}
	mgr.saveLocked(st)
	mgr.log.Info("sweep resumed", "sweep", st.id, "name", st.spec.Name,
		"cells", n, "finished", st.terminalCount(), "pending", pending)
	mgr.pokeLocked()
}

// registerDepthGauge exposes this sweep's live pending-queue depth as
// mama_server_sweep_queue_depth{sweep="..."}; the series reads 0 once
// the sweep finishes. The registry cannot drop a series and a scrape
// takes mu once per series, so only a sweep that queued something gets
// one: a sweep answered whole at admission never had a depth to show.
func (mgr *Manager) registerDepthGauge(id string) {
	mgr.reg.GaugeFunc("mama_server_sweep_queue_depth",
		"Cells waiting for dispatch, per sweep.",
		func() float64 {
			mgr.mu.Lock()
			defer mgr.mu.Unlock()
			st, ok := mgr.sweeps[id]
			if !ok {
				return 0
			}
			return float64(st.pendingCount())
		},
		telemetry.L("sweep", id))
}

// TryDequeue hands the dispatcher the next cell under weighted round-
// robin and marks it running, or ok=false when nothing is dispatchable.
// Whether the cell then simulates, is answered from the cache, or waits
// on a twin already running is the backend's call (its admit step); the
// cell reads as running here until CellDone says which.
func (mgr *Manager) TryDequeue() (Ticket, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.draining {
		return Ticket{}, false
	}
	id, idx, ok := mgr.sched.pop()
	if !ok {
		return Ticket{}, false
	}
	st := mgr.sweeps[id]
	st.status[idx] = codeRunning
	st.running++
	// Cascade the wake: this call consumed at most one wake token but
	// may leave more dispatchable cells behind it, and other workers
	// may be blocked on the channel.
	if mgr.sched.anyPending() {
		mgr.pokeLocked()
	}
	return Ticket{
		SweepID:   id,
		Index:     idx,
		Cell:      st.cells.at(idx),
		Key:       st.key(idx),
		TimeoutMs: st.spec.TimeoutMs,
	}, true
}

// CellDone returns a dispatched ticket with its outcome. CellDone and
// CellDeduped carry the result (the cell ran, or shared a run or a
// cached result); CellFailed carries the error. CellPending hands the
// cell back without an outcome — shutdown, a lost peer, an injected
// worker death, a failed run this cell was only waiting on — and it
// re-runs on the next dispatch or after restart, from the head of its
// queue: it already waited its turn once.
func (mgr *Manager) CellDone(t Ticket, status CellStatus, raw json.RawMessage, errMsg string) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st := mgr.sweeps[t.SweepID]
	if st == nil || st.status[t.Index] != codeRunning {
		return
	}
	st.running--
	if status == CellPending {
		st.status[t.Index] = codePending
		mgr.sched.pushFront(st.id, t.Index)
	} else {
		mgr.completeLocked(st, t.Index, status, raw, errMsg)
	}
	mgr.saveLocked(st)
	mgr.pokeLocked()
	mgr.broadcastLocked()
}

// completeLocked finishes one cell and appends its event.
func (mgr *Manager) completeLocked(st *state, idx int, status CellStatus, raw json.RawMessage, errMsg string) {
	switch status {
	case CellDone:
		st.status[idx] = codeDone
		st.done++
		mgr.m.cellsDone.Inc()
	case CellDeduped:
		st.status[idx] = codeDeduped
		st.deduped++
		mgr.m.cellsDeduped.Inc()
	case CellFailed:
		st.status[idx] = codeFailed
		st.failed++
		mgr.m.cellsFailed.Inc()
		if errMsg != "" {
			st.errors[idx] = errMsg
		}
	}
	st.events = append(st.events, logged{idx, raw})
	mgr.finishIfDoneLocked(st)
}

// finishIfDoneLocked marks the sweep finished once every cell is
// terminal and retires it from the scheduler ring.
func (mgr *Manager) finishIfDoneLocked(st *state) {
	if st.terminalCount() != st.cells.len() || !st.finished.IsZero() {
		return
	}
	st.finished = time.Now().UTC()
	mgr.sched.remove(st.id)
	mgr.log.Info("sweep finished", "sweep", st.id, "name", st.spec.Name,
		"done", st.done, "deduped", st.deduped, "failed", st.failed)
}

// saveLocked snapshots one sweep into the crash-safe store.
func (mgr *Manager) saveLocked(st *state) {
	if mgr.store == nil {
		return
	}
	rec := record{
		ID:        st.id,
		Spec:      st.spec,
		Status:    make([]CellStatus, len(st.status)),
		CreatedAt: st.createdAt,
	}
	for i, code := range st.status {
		rec.Status[i] = statusNames[code]
	}
	if len(st.errors) > 0 {
		rec.Errors = make(map[int]string, len(st.errors))
		for i, e := range st.errors {
			rec.Errors[i] = e
		}
	}
	mgr.store.Save(rec)
}

// pokeLocked wakes the dispatcher (non-blocking; the channel holds one
// pending wake).
func (mgr *Manager) pokeLocked() {
	select {
	case mgr.wake <- struct{}{}:
	default:
	}
}

// broadcastLocked signals every stream waiter that event logs may have
// grown (close-and-replace; waiters re-check their cursor).
func (mgr *Manager) broadcastLocked() {
	close(mgr.notify)
	mgr.notify = make(chan struct{})
}

// WakeCh pokes whenever new work may be dispatchable; the server's
// dispatcher selects on it alongside the interactive queue.
func (mgr *Manager) WakeCh() <-chan struct{} { return mgr.wake }

// DrainCh is closed once Drain begins; result streams select on it so
// followers terminate cleanly at shutdown.
func (mgr *Manager) DrainCh() <-chan struct{} { return mgr.drainCh }

// View returns one sweep's snapshot.
func (mgr *Manager) View(id string) (View, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st, ok := mgr.sweeps[id]
	if !ok {
		return View{}, false
	}
	return st.view(), true
}

// List returns every tracked sweep, newest first.
func (mgr *Manager) List() []View {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	out := make([]View, 0, len(mgr.sweeps))
	for _, st := range mgr.sweeps {
		out = append(out, st.view())
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.After(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// EventsSince appends the sweep's events after cursor to dst — a stream
// hands back the slice it has just written out — and returns them with
// the current view (so callers can tell whether the log is final) and a
// channel that closes when any event log grows (re-check the cursor
// then). ok=false for an unknown sweep.
func (mgr *Manager) EventsSince(id string, cursor int, dst []Event) (events []Event, v View, changed <-chan struct{}, ok bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st, found := mgr.sweeps[id]
	if !found {
		return dst, View{}, nil, false
	}
	if cursor < 0 {
		cursor = 0
	}
	if cursor < len(st.events) {
		for seq, l := range st.events[cursor:] {
			i := l.cell
			dst = append(dst, Event{Seq: cursor + seq, Cell: i, Status: statusNames[st.status[i]],
				Key: st.key(i), Spec: st.cells.at(i), Result: l.result, Error: st.errors[i]})
		}
	}
	return dst, st.view(), mgr.notify, true
}

// Counts snapshots the sweep block of /v1/stats.
func (mgr *Manager) Counts() Counts {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	c := Counts{
		Total:        len(mgr.sweeps),
		Submitted:    mgr.m.submitted.Value(),
		Resumed:      mgr.m.resumed.Value(),
		CellsDone:    mgr.m.cellsDone.Value(),
		CellsDeduped: mgr.m.cellsDeduped.Value(),
		CellsFailed:  mgr.m.cellsFailed.Value(),
	}
	for _, st := range mgr.sweeps {
		if st.finished.IsZero() {
			c.Active++
		}
		c.CellsPending += st.pendingCount()
		c.CellsRunning += st.running
	}
	return c
}

// Drain stops dispatch (TryDequeue returns false; Submit refuses) and
// releases stream followers. In-flight cells still report through
// CellDone — a shutdown cancellation arrives there as CellPending, so
// the restarted server re-runs the cell.
func (mgr *Manager) Drain() {
	mgr.mu.Lock()
	if mgr.draining {
		mgr.mu.Unlock()
		return
	}
	mgr.draining = true
	mgr.mu.Unlock()
	close(mgr.drainCh)
}

// CloseStore flushes and stops the crash-safe store. Call only after
// the worker pool has fully stopped, so the final CellDone mutations
// (including cells handed back as pending) are captured on disk.
func (mgr *Manager) CloseStore() { mgr.store.Close() }
