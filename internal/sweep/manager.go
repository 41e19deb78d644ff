package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"micromama/internal/persist"
	"micromama/internal/telemetry"
)

// A job key is a SHA-256: the backend keys a cell into its DigestLen
// raw bytes, and the result cache, tickets and events hold its KeyLen
// hex digits.
const (
	DigestLen = sha256.Size
	KeyLen    = 2 * DigestLen
)

// Exec is what the manager needs from its execution backend (the
// server): canonical cell resolution — validation plus the
// content-addressed job key — and the result cache's key table, where
// each key the manager holds is a handle. Abstracting these calls keeps
// internal/sweep free of the server's types (the server imports sweep,
// not the reverse).
type Exec interface {
	// Intern keys a sweep's n cells, cell(i) the i'th, and returns the
	// result cache's handle for each, in order, admitting every key the
	// cache does not hold yet without a result. A cell that does not key
	// refuses the sweep whole: nothing is admitted, and the error — a
	// client error: bad trace name, too many cores, unknown controller —
	// names the first such cell ("cell 3: …"). A handle names its key for
	// the life of the process and never leaves it.
	Intern(n int, cell func(i int) Cell) ([]uint32, error)
	// Prefetch is handed the handles of a sweep that is about to be
	// admitted, before admission looks any of them up: a backend whose
	// results may sit elsewhere (a cluster peer's cache) fetches what it
	// can now, under the submitting request's context. Best effort: a
	// result it misses is recomputed.
	Prefetch(ctx context.Context, handles []uint32)
	// Lookup reads the cache entry behind a handle: its key, KeyLen hex
	// digits, and its result encoded as the API's JSON object, or nil
	// while it has none — both shared and read-only. A result once there
	// is never dropped.
	Lookup(h uint32) (key string, result json.RawMessage)
}

// Config tunes a Manager. Zero values select defaults.
type Config struct {
	// Exec is the execution backend. Required.
	Exec Exec
	// MaxCells bounds a single sweep's expansion (default 4096).
	MaxCells int
	// Dir, when non-empty, persists sweep state (a header line per sweep
	// and a line per cell deduped at dispatch or failed, appended to
	// Dir/records.log; see record) so a restarted server resumes
	// incomplete sweeps.
	Dir string
	// Epoch is the model epoch stamped on Dir's log (see persist.Options).
	Epoch int
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
	Key       string // KeyLen hex digits in a string of its own
	TimeoutMs int64
}

// state is the in-memory authority for one sweep. Per cell it holds the
// result cache's handle for its key, a status byte and, once the cell is
// terminal, its place in the completion order — 4 + 1 + 4 bytes in
// three pointer-free slices, which the collector never scans; the cell
// itself is read off the spec, and its key and result off the cache.
//
// The order is stored only once it leaves cell order: while every
// terminal cell completed in index order (a fully deduped admission, a
// resume of a finished sweep), event i is cell i, events is nil, and the
// sweep keeps 4 + 1 bytes per cell.
type state struct {
	id        string
	spec      Spec // normalized; includes priority for persistence
	priority  int
	cells     layout         // over spec's own grid and cells
	handles   []uint32       // Exec.Intern's handle per cell
	status    []uint8        // a statusNames index per cell
	errors    map[int]string // a failed cell's error; nil until one fails
	events    []int32        // terminal cells in completion order, position = Event.Seq; nil while that is cell order
	createdAt time.Time
	finished  time.Time // zero while cells remain

	running int
	done    int
	failed  int
	deduped int
}

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
		Events:    st.terminalCount(),
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
	exec     Exec
	maxCells int
	log      *slog.Logger
	m        *metrics

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
// sweeps: cells whose results survive in the result cache are finished,
// failed cells stay failed, and every other cell — running when the
// process died, or its result lost — is pending and re-dispatched.
func New(cfg Config) (*Manager, error) {
	if cfg.Exec == nil {
		return nil, fmt.Errorf("sweep: Config.Exec is required")
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.DiscardLogger()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	mgr := &Manager{
		exec:     cfg.Exec,
		maxCells: cfg.MaxCells,
		log:      cfg.Logger,
		sweeps:   make(map[string]*state),
		sched:    newSched(),
		notify:   make(chan struct{}),
		wake:     make(chan struct{}, 1),
		drainCh:  make(chan struct{}),
	}
	mgr.m = newMetrics(cfg.Registry, mgr)
	if cfg.Dir != "" {
		st, err := persist.Open(persist.Options[record]{
			Dir:        cfg.Dir,
			What:       "sweep state",
			Epoch:      cfg.Epoch,
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
		var sweeps []*loaded
		byID := make(map[string]*loaded)
		st.Load(func(rec record) error { return take(byID, &sweeps, rec) })
		for _, l := range sweeps {
			mgr.resume(l)
		}
	}
	return mgr, nil
}

// loaded is one sweep as the log holds it: its header, and its cell
// lines by cell index.
type loaded struct {
	header record
	cells  map[int]record
}

// take files one record Load hands over. Load hands a sweep's header
// over before its cell lines (its ID is their keys' prefix), so a cell
// line whose header is missing is refused: quarantined, not kept.
func take(byID map[string]*loaded, sweeps *[]*loaded, rec record) error {
	id, cell, isCell := strings.Cut(rec.ID, "/")
	if !isCell && rec.Spec != nil {
		byID[id] = &loaded{header: rec, cells: map[int]record{}}
		*sweeps = append(*sweeps, byID[id])
		return nil
	}
	i, err := strconv.Atoi(cell)
	if l := byID[id]; isCell && l != nil && err == nil && (rec.Cell == CellDeduped || rec.Cell == CellFailed) {
		l.cells[i] = rec
		return nil
	}
	return fmt.Errorf("sweep record %s is neither a header nor a cell line under one", rec.ID)
}

// maxPriority is the largest per-sweep priority the scheduler honours.
const maxPriority = 8

// clampPriority normalizes a requested priority into [1, maxPriority].
func clampPriority(p int) int {
	return min(max(p, 1), maxPriority)
}

// newState lays a spec out and interns every cell's key into a sweep
// with all of them pending, before any state is taken: a spec with one
// bad cell is refused whole, so a partially admitted sweep never exists.
func (mgr *Manager) newState(id string, spec Spec, createdAt time.Time) (*state, error) {
	cells, err := spec.layout(mgr.maxCells)
	if err != nil {
		return nil, err
	}
	spec.Priority = clampPriority(spec.Priority)
	n := cells.len()
	handles, err := mgr.exec.Intern(n, cells.at)
	if err != nil {
		return nil, err
	}
	return &state{
		id: id, spec: spec, priority: spec.Priority, createdAt: createdAt,
		cells:   cells,
		handles: handles,
		status:  make([]uint8, n), // codePending
	}, nil
}

// Submit admits a sweep: layout, content addressing, cache dedupe, and
// scheduling. Resubmitting an identical spec attaches to the existing
// sweep (created=false) and only updates its priority — submission is
// idempotent by construction, which is what lets clients blindly retry
// over flaky links — and costs a map lookup: an equal ID is an equal
// normalized spec, validated when it was admitted. ctx is the
// submitting request's, for Exec.Prefetch. Errors are client errors.
// Submit normalizes and keeps a copy of spec: the caller's slices are
// neither written nor shared with the sweep.
func (mgr *Manager) Submit(ctx context.Context, spec Spec) (View, bool, error) {
	spec = spec.clone()
	id, err := spec.ID()
	if err != nil {
		return View{}, false, err
	}
	priority := clampPriority(spec.Priority)
	mgr.mu.Lock()
	v, held, err := mgr.attachLocked(id, priority)
	mgr.mu.Unlock()
	if held || err != nil {
		return v, false, err
	}
	// Keying a big sweep and fetching for it take a while: outside the
	// lock.
	st, err := mgr.newState(id, spec, time.Now().UTC())
	if err != nil {
		return View{}, false, err
	}
	mgr.exec.Prefetch(ctx, st.handles)

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
		if _, res := mgr.exec.Lookup(st.handles[i]); res != nil {
			mgr.completeLocked(st, i, CellDeduped, "")
			continue
		}
		mgr.sched.push(id, i)
		enqueued++
	}
	if st.pendingCount() == 0 && st.running == 0 {
		mgr.finishIfDoneLocked(st)
	}
	mgr.saveHeaderLocked(st)
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
		if old.finished.IsZero() { // a finished sweep has left the rotation
			mgr.sched.add(id, priority)
		}
		mgr.saveHeaderLocked(old)
	}
	return old.view(), true, nil
}

// resume restores one persisted sweep. The spec lays out the same cells
// again, each reconciled against the restored result cache: a failed
// cell stays failed with its stored error; a cell whose result the
// cache holds is deduped if the log says so, and done otherwise; any
// other cell was running when the process died, or lost its result,
// and is pending (re-run rather than lie). A sweep whose spec no longer
// expands and resolves is logged and left on disk: the limits it broke
// (-max-sweep-cells, -max-cores) may be raised again by a later start.
func (mgr *Manager) resume(l *loaded) {
	rec := l.header
	var createdAt time.Time
	if rec.CreatedAt != nil {
		createdAt = *rec.CreatedAt
	}
	st, err := mgr.newState(rec.ID, *rec.Spec, createdAt)
	if err != nil {
		mgr.log.Error("persisted sweep no longer expands and resolves; skipping it", "sweep", rec.ID, "err", err)
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
		var was CellStatus // the cell's line
		errMsg, failed := rec.Errors[i]
		if line, ok := l.cells[i]; ok {
			was, errMsg = line.Cell, line.Error
		}
		_, res := mgr.exec.Lookup(st.handles[i])
		switch {
		case failed || was == CellFailed:
			mgr.completeLocked(st, i, CellFailed, errMsg)
		case res == nil:
			mgr.sched.push(st.id, i)
			pending++
		case was == CellDeduped || (i/8 < len(rec.Deduped) && rec.Deduped[i/8]>>(i%8)&1 == 1):
			mgr.completeLocked(st, i, CellDeduped, "")
		default:
			mgr.completeLocked(st, i, CellDone, "")
		}
	}
	if pending == 0 && st.running == 0 {
		mgr.finishIfDoneLocked(st)
	}
	mgr.log.Info("sweep resumed", "sweep", st.id, "name", st.spec.Name,
		"cells", n, "finished", st.terminalCount(), "pending", pending)
	mgr.pokeLocked()
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
	key, _ := mgr.exec.Lookup(st.handles[idx])
	return Ticket{
		SweepID:   id,
		Index:     idx,
		Cell:      st.cells.at(idx),
		Key:       key,
		TimeoutMs: st.spec.TimeoutMs,
	}, true
}

// CellDone returns a dispatched ticket with its outcome. CellDone and
// CellDeduped say the cell's result is in the backend's cache (the cell
// ran, or shared a run or a cached result), where streams will read it;
// CellFailed carries the error. CellPending hands the cell back without
// an outcome — shutdown, a lost peer, an injected worker death, a failed
// run this cell was only waiting on — and it re-runs on the next
// dispatch or after restart, from the head of its queue: it already
// waited its turn once.
func (mgr *Manager) CellDone(t Ticket, status CellStatus, errMsg string) {
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
		mgr.completeLocked(st, t.Index, status, errMsg)
		if status != CellDone { // a done cell's result says so after a restart
			mgr.store.Save(record{ID: st.id + "/" + strconv.Itoa(t.Index), Cell: status, Error: errMsg})
		}
	}
	mgr.pokeLocked()
	mgr.broadcastLocked()
}

// completeLocked finishes one cell and appends it to the completion
// order, which it starts storing at the first cell to complete out of
// index order.
func (mgr *Manager) completeLocked(st *state, idx int, status CellStatus, errMsg string) {
	if seq := st.terminalCount(); st.events != nil || idx != seq {
		if st.events == nil {
			st.events = make([]int32, seq, st.cells.len())
			for i := range st.events {
				st.events[i] = int32(i)
			}
		}
		st.events = append(st.events, int32(idx))
	}
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
			if st.errors == nil {
				st.errors = make(map[int]string)
			}
			st.errors[idx] = errMsg
		}
	}
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

// saveHeaderLocked writes one sweep's header: its spec and the cells
// deduped and failed so far.
func (mgr *Manager) saveHeaderLocked(st *state) {
	if mgr.store == nil {
		return
	}
	spec, createdAt := st.spec, st.createdAt // copies: the writer encodes them outside mu
	rec := record{ID: st.id, Spec: &spec, CreatedAt: &createdAt}
	for i, code := range st.status {
		switch code {
		case codeDeduped:
			if rec.Deduped == nil {
				rec.Deduped = make([]byte, (len(st.status)+7)/8)
			}
			rec.Deduped[i/8] |= 1 << (i % 8)
		case codeFailed:
			if rec.Errors == nil {
				rec.Errors = make(map[int]string)
			}
			rec.Errors[i] = st.errors[i]
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
// then). ok=false for an unknown sweep. A done or deduped event's key
// and result are the result cache's own; should the cache ever not hold
// one, err says so and events end before it: no event goes out without
// its result.
func (mgr *Manager) EventsSince(id string, cursor int, dst []Event) (events []Event, v View, changed <-chan struct{}, ok bool, err error) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st, found := mgr.sweeps[id]
	if !found {
		return dst, View{}, nil, false, nil
	}
	for seq := max(cursor, 0); seq < st.terminalCount(); seq++ {
		i := seq
		if st.events != nil {
			i = int(st.events[seq])
		}
		ev := Event{Seq: seq, Cell: i, Status: statusNames[st.status[i]], Spec: st.cells.at(i)}
		ev.Key, ev.Result = mgr.exec.Lookup(st.handles[i])
		if ev.Status == CellFailed {
			ev.Result, ev.Error = nil, st.errors[i]
		} else if ev.Result == nil {
			err = fmt.Errorf("sweep %s: event %d: cell %d's result %s is not in the result cache", id, seq, i, ev.Key)
			break
		}
		dst = append(dst, ev)
	}
	return dst, st.view(), mgr.notify, true, err
}

// Counts snapshots the sweep block of /v1/stats. A finished sweep has
// no pending or running cell and has left the scheduler's rotation, so
// the gauges sum over the rotation alone: their cost follows the sweeps
// in flight, not every sweep the process has held.
func (mgr *Manager) Counts() Counts {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	c := Counts{
		Active:       len(mgr.sched.order),
		Total:        len(mgr.sweeps),
		Submitted:    mgr.m.submitted.Value(),
		Resumed:      mgr.m.resumed.Value(),
		CellsDone:    mgr.m.cellsDone.Value(),
		CellsDeduped: mgr.m.cellsDeduped.Value(),
		CellsFailed:  mgr.m.cellsFailed.Value(),
	}
	for _, id := range mgr.sched.order {
		st := mgr.sweeps[id]
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
