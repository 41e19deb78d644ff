package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"micromama/internal/persist"
)

// recordingExec is a backend that caches nothing and writes down what
// the manager asks of it, in order. Its key table hands out a handle per
// key in the order they are first interned; a cell's key is keyOf's.
type recordingExec struct {
	calls []string          // "intern", "prefetch", "lookup"
	fetch []uint32          // what Prefetch was handed
	keys  []string          // the key behind each handle
	index map[string]uint32 // each key's handle
}

// keyOf is the key recordingExec gives a cell: KeyLen hex digits.
func keyOf(c Cell) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(c)))
	return hex.EncodeToString(sum[:])
}

func (e *recordingExec) Intern(n int, cell func(int) Cell) ([]uint32, error) {
	e.calls = append(e.calls, "intern")
	keys := make([]string, n)
	for i := range keys {
		c := cell(i)
		if c.Controller == "bad" {
			return nil, fmt.Errorf("cell %d: unknown controller %q", i, c.Controller)
		}
		keys[i] = keyOf(c)
	}
	if e.index == nil {
		e.index = make(map[string]uint32)
	}
	hs := make([]uint32, n)
	for i, key := range keys {
		h, ok := e.index[key]
		if !ok {
			h = uint32(len(e.keys))
			e.keys = append(e.keys, key)
			e.index[key] = h
		}
		hs[i] = h
	}
	return hs, nil
}

func (e *recordingExec) Prefetch(_ context.Context, handles []uint32) {
	e.calls = append(e.calls, "prefetch")
	e.fetch = handles
}

func (e *recordingExec) Lookup(h uint32) (string, json.RawMessage) {
	e.calls = append(e.calls, "lookup")
	return e.keys[h], nil
}

// A manager given no Logger renders no records to throw away.
func TestNilLoggerIsDisabled(t *testing.T) {
	mgr, err := New(Config{Exec: &recordingExec{}})
	if err != nil {
		t.Fatal(err)
	}
	if mgr.log.Enabled(context.Background(), slog.LevelError) {
		t.Error("a nil Config.Logger left a logger enabled at Error")
	}
}

// TestSubmitKeysOncePrefetchesThenLooksUp pins what admission asks of
// its backend: the sweep's cells interned in one call, the backend
// handed their handles — in cell order — to prefetch, both before the
// first cache lookup, each ticket keyed by its handle's key, and a
// resubmission none of it: an ID the manager holds is a map lookup that
// still takes the new priority.
func TestSubmitKeysOncePrefetchesThenLooksUp(t *testing.T) {
	exec := &recordingExec{}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := gridSpec()
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	v, created, err := mgr.Submit(ctx, spec)
	if err != nil || !created || v.Cells != 16 || v.Pending != 16 || v.Priority != 1 {
		t.Fatalf("submit: %+v created=%v err=%v", v, created, err)
	}
	want := strings.Fields("intern prefetch" + strings.Repeat(" lookup", 16))
	if fmt.Sprint(exec.calls) != fmt.Sprint(want) {
		t.Errorf("backend calls:\n got %v\nwant %v", exec.calls, want)
	}
	if len(exec.fetch) != 16 {
		t.Fatalf("Prefetch was handed %d handles, want the 16 cells'", len(exec.fetch))
	}
	for i := 0; i < 16; i++ {
		tk, ok := mgr.TryDequeue()
		if !ok || tk.Index != i || tk.Key != keyOf(cells[i]) || exec.keys[exec.fetch[i]] != tk.Key {
			t.Fatalf("ticket %d: %+v ok=%v, want cell %d under its key, the key of the handle prefetched for it", i, tk, ok, i)
		}
	}

	exec.calls = nil
	again := gridSpec()
	again.Priority = 5
	v2, created, err := mgr.Submit(ctx, again)
	if err != nil || created || v2.ID != v.ID || v2.Priority != 5 {
		t.Errorf("resubmission: %+v created=%v err=%v, want the same sweep at priority 5", v2, created, err)
	}
	if len(exec.calls) != 0 {
		t.Errorf("a resubmission asked the backend for %v", exec.calls)
	}

	// A refused sweep leaves nothing behind, and names the cell.
	exec.calls = nil
	bad := gridSpec()
	bad.Name, bad.Cells = "bad", []Cell{{Mix: []string{"a"}, Controller: "bad"}}
	if _, _, err := mgr.Submit(ctx, bad); err == nil || err.Error() != `cell 16: unknown controller "bad"` {
		t.Errorf("bad cell: %v", err)
	}
	if n := len(mgr.List()); n != 1 || fmt.Sprint(exec.calls) != "[intern]" || len(exec.keys) != 16 {
		t.Errorf("a refused sweep left %d sweeps tracked and %d keys interned, backend calls %v", n, len(exec.keys), exec.calls)
	}
}

// cacheExec is a backend whose cache holds what its map holds: a result
// per hex key, each handle's key string the key table's own.
type cacheExec struct {
	recordingExec
	m map[string]json.RawMessage
}

func (e *cacheExec) Lookup(h uint32) (string, json.RawMessage) {
	return e.keys[h], e.m[e.keys[h]]
}

// TestEventsReadTheCache: the log holds only the completion order, so a
// done or deduped event's key and result are the cache entry's own, a
// failed one carries its key and error and no result, and a result the
// cache no longer holds ends the events before it with an error rather
// than sending the cell without one.
func TestEventsReadTheCache(t *testing.T) {
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	spec := gridSpec()
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells[1:] { // cell 0 is not cached: it fails
		exec.m[keyOf(c)] = json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i+1))
	}
	v, _, err := mgr.Submit(context.Background(), spec)
	if err != nil || v.Deduped != 15 || v.Pending != 1 {
		t.Fatalf("submit: %+v err=%v, want 15 deduped and 1 pending", v, err)
	}
	tk, ok := mgr.TryDequeue()
	if !ok || tk.Index != 0 {
		t.Fatalf("dequeue: %+v ok=%v, want cell 0", tk, ok)
	}
	mgr.CellDone(tk, CellFailed, "boom")

	events, v, _, ok, err := mgr.EventsSince(v.ID, 0, nil)
	if !ok || err != nil || len(events) != 16 || v.Status != "done" {
		t.Fatalf("EventsSince: %d events, %+v ok=%v err=%v", len(events), v, ok, err)
	}
	for seq, ev := range events {
		want := keyOf(cells[ev.Cell])
		if ev.Seq != seq || ev.Key != want {
			t.Errorf("event %d: seq %d key %s, want key %s", seq, ev.Seq, ev.Key, want)
		}
		if ev.Cell == 0 {
			if ev.Status != CellFailed || ev.Error != "boom" || ev.Result != nil {
				t.Errorf("failed cell's event %+v, want its error and no result", ev)
			}
			continue
		}
		got, _ := exec.Lookup(exec.index[want])
		if ev.Status != CellDeduped || string(ev.Result) != string(exec.m[want]) ||
			unsafe.StringData(ev.Key) != unsafe.StringData(got) {
			t.Errorf("event %+v, want deduped with the cache's own key and result", ev)
		}
	}

	lost := events[5].Key
	delete(exec.m, lost)
	events, _, _, ok, err = mgr.EventsSince(v.ID, 2, nil)
	if !ok || err == nil || !strings.Contains(err.Error(), lost) || len(events) != 3 {
		t.Errorf("a result gone from the cache: %d events from cursor 2, err %v; want events 2-4 and an error naming %s",
			len(events), err, lost)
	}
}

// TestSubmitCopiesTheSpec: Submit neither writes the caller's spec nor
// keeps its slices, so the caller may change them at once — while the
// log's writer may still be encoding the sweep's header — and the sweep
// keeps the cells it was submitted with.
func TestSubmitCopiesTheSpec(t *testing.T) {
	mgr, err := New(Config{Exec: &recordingExec{}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.CloseStore()
	spec := paddedSpec()
	v, _, err := mgr.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, paddedSpec()) {
		t.Errorf("Submit rewrote the caller's spec: %+v", spec)
	}
	g := spec.Grid
	g.Mixes[0][0], g.Controllers[0], g.Scales[0], g.Seeds[1], g.DRAM[1].MTps = "z", "z", "z", 9, 9
	spec.Cells[0].Mix[0], spec.Cells[0].Controller = "z", "z"

	clean := paddedSpec()
	want, err := clean.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	st := mgr.sweeps[v.ID]
	for i, c := range want {
		if got := st.cells.at(i); !reflect.DeepEqual(got, c) {
			t.Errorf("cell %d is %+v after the caller changed its spec, want %+v", i, got, c)
		}
	}
}

// TestCountsMatchRecount: Counts sums its gauges over the scheduler's
// rotation instead of every sweep the manager holds. After every step of
// a mixed sequence — cells deduped at admission, dequeued, done, failed
// and handed back, a sweep finished and then resubmitted at a new
// priority, a restart that resumes the rest, and the rest run out —
// they equal a recount of every cell's status over every sweep.
func TestCountsMatchRecount(t *testing.T) {
	dir := t.TempDir()
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	grid := gridSpec()
	cells, err := grid.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:4] {
		exec.m[keyOf(c)] = json.RawMessage(`{}`)
	}
	check := func(mgr *Manager, when string) {
		t.Helper()
		var want Counts
		mgr.mu.Lock()
		for _, st := range mgr.sweeps {
			if st.finished.IsZero() {
				want.Active++
			}
			for _, code := range st.status {
				switch code {
				case codePending:
					want.CellsPending++
				case codeRunning:
					want.CellsRunning++
				}
			}
		}
		mgr.mu.Unlock()
		got := mgr.Counts()
		if got.Active != want.Active || got.CellsPending != want.CellsPending || got.CellsRunning != want.CellsRunning {
			t.Errorf("%s: active/pending/running %d/%d/%d, recount %d/%d/%d", when,
				got.Active, got.CellsPending, got.CellsRunning, want.Active, want.CellsPending, want.CellsRunning)
		}
	}
	done := func(mgr *Manager, tk Ticket) {
		exec.m[tk.Key] = json.RawMessage(`{}`)
		mgr.CellDone(tk, CellDone, "")
	}

	ctx := context.Background()
	mgr, err := New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Submit(ctx, gridSpec()); err != nil {
		t.Fatal(err)
	}
	check(mgr, "grid admitted")
	small, _, err := mgr.Submit(ctx, Spec{Name: "small", Cells: cells[:6]})
	if err != nil || small.Deduped != 4 || small.Pending != 2 {
		t.Fatalf("small sweep: %+v err=%v, want 4 deduped and 2 pending", small, err)
	}
	check(mgr, "small admitted")

	var held []Ticket
	for {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		held = append(held, tk)
	}
	check(mgr, "all dequeued")
	for i, tk := range held {
		switch {
		case tk.SweepID == small.ID:
			done(mgr, tk)
		case i%4 == 0:
			done(mgr, tk)
		case i%4 == 1:
			mgr.CellDone(tk, CellFailed, "boom")
		case i%4 == 2:
			mgr.CellDone(tk, CellPending, "")
		default:
			continue // still running when the process dies
		}
		check(mgr, fmt.Sprintf("ticket %d returned", i))
	}
	if v, _ := mgr.View(small.ID); v.Status != "done" {
		t.Fatalf("small sweep %+v, want done", v)
	}
	if v, created, err := mgr.Submit(ctx, Spec{Name: "small", Cells: cells[:6], Priority: 3}); err != nil || created || v.ID != small.ID {
		t.Fatalf("resubmitted small sweep: %+v created=%v err=%v, want it attached", v, created, err)
	}
	check(mgr, "finished sweep resubmitted at a new priority")
	mgr.CloseStore()

	mgr, err = New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.CloseStore()
	check(mgr, "resumed")
	if c := mgr.Counts(); c.Active != 1 || c.CellsPending == 0 || c.CellsRunning != 0 {
		t.Errorf("resumed counts %+v, want the grid active with cells pending and none running", c)
	}
	for {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		check(mgr, "resumed cell dequeued")
		done(mgr, tk)
	}
	check(mgr, "every cell run")
	if c := mgr.Counts(); c.Active != 0 || c.CellsPending != 0 || c.CellsRunning != 0 {
		t.Errorf("final counts %+v, want nothing active, pending or running", c)
	}
}

// TestResumeKeepsRecordOverLimits: a persisted sweep that does not fit
// the limits of the process restoring it is skipped, not quarantined, so
// a later start with the old limits resumes it.
func TestResumeKeepsRecordOverLimits(t *testing.T) {
	dir := t.TempDir()
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	mgr, err := New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := mgr.Submit(context.Background(), gridSpec())
	if err != nil {
		t.Fatal(err)
	}
	mgr.CloseStore()

	small, err := New(Config{Exec: exec, Dir: dir, MaxCells: v.Cells - 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := small.View(v.ID); ok {
		t.Errorf("a %d-cell sweep resumed under MaxCells %d", v.Cells, v.Cells-1)
	}
	if q := small.m.store.Quarantined.Value(); q != 0 {
		t.Errorf("%d sweep records quarantined, want 0", q)
	}
	small.CloseStore()

	again, err := New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseStore()
	if got, ok := again.View(v.ID); !ok || got.Pending != v.Cells {
		t.Errorf("restart at the old limits: %+v held=%v, want %d cells pending", got, ok, v.Cells)
	}
}

// TestResumeRestoresEveryOutcome: a restart brings every finished cell
// back as it finished — deduped at admission (the header's bitmap), at
// dispatch (its cell line), failed with its error (its cell line), done
// (its result alone) — and every other cell pending. The log is the
// header and those two cell lines, and the restart writes nothing.
func TestResumeRestoresEveryOutcome(t *testing.T) {
	dir := t.TempDir()
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	spec := gridSpec()
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:4] {
		exec.m[keyOf(c)] = json.RawMessage(`{}`)
	}
	mgr, err := New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := mgr.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	failed := -1
	for i := 0; ; i++ {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		switch i {
		case 0, 1:
			exec.m[tk.Key] = json.RawMessage(`{}`)
			mgr.CellDone(tk, CellDone, "")
		case 2:
			exec.m[tk.Key] = json.RawMessage(`{}`)
			mgr.CellDone(tk, CellDeduped, "")
		case 3:
			failed = tk.Index
			mgr.CellDone(tk, CellFailed, "boom")
		case 4:
			mgr.CellDone(tk, CellPending, "")
		} // the rest are running when the process dies
	}
	want := make([]CellStatus, len(cells))
	mgr.mu.Lock()
	for i, code := range mgr.sweeps[v.ID].status {
		want[i] = statusNames[code]
		if code == codeRunning {
			want[i] = CellPending
		}
	}
	mgr.mu.Unlock()
	mgr.CloseStore()

	mgr, err = New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mgr.CloseStore()
	st := mgr.sweeps[v.ID]
	got := make([]CellStatus, len(st.status))
	for i, code := range st.status {
		got[i] = statusNames[code]
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(st.errors, map[int]string{failed: "boom"}) {
		t.Errorf("resumed as %v (errors %v), want %v with the failure's error", got, st.errors, want)
	}
	if w := mgr.m.store.Writes.Value(); w != 0 {
		t.Errorf("the restart wrote %d lines, want none", w)
	}
	if b := readLog(t, dir); bytes.Count(b, []byte("\n")) != 3 {
		t.Errorf("the log holds %d lines, want a header and two cell lines:\n%s", bytes.Count(b, []byte("\n")), b)
	}
}

// stamp is the first line of the sweep log of a manager whose Config
// sets no Epoch.
const stamp = `{"format":1,"epoch":0}` + "\n"

// readLog returns what dir's sweep log holds after its stamp: nothing
// when there is no log.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, persist.LogName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	body, ok := bytes.CutPrefix(b, []byte(stamp))
	if !ok {
		t.Fatalf("the sweep log does not open with its stamp: %q", b)
	}
	return body
}
