package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fourCells is a four-cell sweep over single-trace mixes a-d.
func fourCells(name string) Spec {
	spec := Spec{Name: name}
	for _, mix := range []string{"a", "b", "c", "d"} {
		spec.Cells = append(spec.Cells, Cell{Mix: []string{mix}, Controller: "no"})
	}
	return spec
}

// finishedHeaders runs a four-cell sweep to its end — cell 1 deduped at
// admission, then cell 0 done, cell 2 failed with an empty message and
// cell 3 deduped at dispatch — gives it a fixed creation time and a new
// priority, restarts a manager over its log and changes the priority
// again. It returns the two headers the priority changes wrote, the
// first of a sweep finished out of cell order and the second of one
// resumed finished, one line each.
func finishedHeaders(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	spec := fourCells("headers")
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	exec.m[keyOf(cells[1])] = json.RawMessage(`{"cell":1}`)
	ctx := context.Background()
	lastHeader := func(id string) []byte {
		var last []byte
		for _, line := range bytes.SplitAfter(readLog(t, dir), []byte("\n")) {
			var rec record
			if json.Unmarshal(line, &rec) == nil && rec.ID == id {
				last = line
			}
		}
		return last
	}

	mgr, err := New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := mgr.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	mgr.sweeps[v.ID].createdAt = time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	mgr.mu.Unlock()
	for _, outcome := range []CellStatus{CellDone, CellFailed, CellDeduped} {
		tk, ok := mgr.TryDequeue()
		if !ok {
			t.Fatal("nothing to dequeue")
		}
		if outcome != CellFailed {
			exec.m[tk.Key] = json.RawMessage(fmt.Sprintf(`{"cell":%d}`, tk.Index))
		}
		mgr.CellDone(tk, outcome, "")
	}
	spec.Priority = 4
	if v, _, err := mgr.Submit(ctx, spec); err != nil || v.Status != "done" || v.Priority != 4 {
		t.Fatalf("priority change: %+v err=%v, want the finished sweep at priority 4", v, err)
	}
	mgr.CloseStore()
	out := lastHeader(v.ID)

	mgr, err = New(Config{Exec: exec, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec.Priority = 2
	if v, _, err := mgr.Submit(ctx, spec); err != nil || v.Status != "done" || v.Priority != 2 {
		t.Fatalf("priority change after the restart: %+v err=%v, want the finished sweep at priority 2", v, err)
	}
	mgr.CloseStore()
	return append(out, lastHeader(v.ID)...)
}

// TestFinishedHeaderBytes: a finished sweep, whether its order is
// stored (finished out of cell order) or not (resumed), writes on a
// priority change byte for byte the header a manager that stored every
// order wrote (testdata/finished-headers.ndjson, written by
// finishedHeaders at the commit before the order was dropped): the
// deduped bitmap, and a failure with an empty message listed under
// errors.
func TestFinishedHeaderBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "finished-headers.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if got := finishedHeaders(t); !bytes.Equal(got, want) {
		t.Errorf("headers differ from the fixture:\n got %s\nwant %s", got, want)
	}
}

// TestOutOfOrderStreamSurvivesFinish: a sweep whose cells complete out
// of index order — some deduped at admission, the rest returned in
// reverse with every outcome, one handed back and run again — streams,
// once finished, exactly the events it streamed while running (seq,
// cell, status, key, result bytes), from cursor 0 and from a middle
// cursor, in the order the cells completed.
func TestOutOfOrderStreamSurvivesFinish(t *testing.T) {
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	spec := gridSpec()
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	var order []int // cells in the order they complete
	for _, i := range []int{3, 7, 8} {
		exec.m[keyOf(cells[i])] = json.RawMessage(fmt.Sprintf(`{"warm":%d}`, i))
		order = append(order, i)
	}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := mgr.Submit(context.Background(), spec)
	if err != nil || v.Deduped != 3 {
		t.Fatalf("submit: %+v err=%v, want 3 deduped", v, err)
	}
	var held []Ticket
	for {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		held = append(held, tk)
	}
	var running [][]Event // every stream from cursor 0 while the sweep ran
	stream := func(cursor int) ([]Event, View) {
		t.Helper()
		events, v, _, ok, err := mgr.EventsSince(v.ID, cursor, nil)
		if !ok || err != nil {
			t.Fatalf("EventsSince(%d): ok=%v err=%v", cursor, ok, err)
		}
		return events, v
	}
	for k := len(held) - 1; k >= 0; k-- {
		tk := held[k]
		if k == len(held)/2 { // handed back, then run again
			mgr.CellDone(tk, CellPending, "")
			if tk, ok := mgr.TryDequeue(); !ok || tk.Index != held[k].Index {
				t.Fatalf("redispatch: %+v ok=%v, want cell %d", tk, ok, held[k].Index)
			}
		}
		status := []CellStatus{CellDone, CellDeduped, CellFailed}[k%3]
		if status == CellFailed {
			mgr.CellDone(tk, status, strings.Repeat("x", k%2)) // an empty message too
		} else {
			exec.m[tk.Key] = json.RawMessage(fmt.Sprintf(`{"ran":%d}`, tk.Index))
			mgr.CellDone(tk, status, "")
		}
		order = append(order, tk.Index)
		if events, v := stream(0); v.Status != "done" {
			running = append(running, events)
		}
	}

	final, v := stream(0)
	mgr.mu.Lock()
	st := mgr.sweeps[v.ID]
	kept := st.events != nil
	mgr.mu.Unlock()
	if v.Status != "done" || len(final) != len(cells) || !kept {
		t.Fatalf("finished sweep: %+v, %d events, order kept: %v", v, len(final), kept)
	}
	for seq, ev := range final {
		if ev.Seq != seq || ev.Cell != order[seq] || ev.Key != keyOf(cells[ev.Cell]) {
			t.Errorf("event %d: seq %d cell %d key %s, want cell %d under its key", seq, ev.Seq, ev.Cell, ev.Key, order[seq])
		}
	}
	for _, events := range running {
		if !reflect.DeepEqual(events, final[:len(events)]) {
			t.Fatalf("a stream read while running is not a prefix of the finished one:\n got %+v\nwant %+v", events, final[:len(events)])
		}
	}
	if mid, _ := stream(len(final) / 2); !reflect.DeepEqual(mid, final[len(final)/2:]) {
		t.Errorf("from cursor %d:\n got %+v\nwant %+v", len(final)/2, mid, final[len(final)/2:])
	}
}

// TestInOrderSweepStoresNoOrder: cells that complete in index order need
// no completion order — event i is cell i. A fully deduped submission
// never allocates one; a sweep
// whose cached cells are a prefix and whose others complete in order
// does not either, and streams cell i as event i.
func TestInOrderSweepStoresNoOrder(t *testing.T) {
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	spec := gridSpec()
	cells, err := spec.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:4] {
		exec.m[keyOf(c)] = json.RawMessage(`{}`)
	}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	order := func(id string) []int32 {
		mgr.mu.Lock()
		defer mgr.mu.Unlock()
		return mgr.sweeps[id].events
	}
	v, _, err := mgr.Submit(context.Background(), spec)
	if err != nil || v.Deduped != 4 {
		t.Fatalf("submit: %+v err=%v, want 4 deduped", v, err)
	}
	for {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		exec.m[tk.Key] = json.RawMessage(`{}`)
		mgr.CellDone(tk, CellDone, "")
		if events := order(v.ID); events != nil {
			t.Fatalf("after cell %d an in-order sweep stores its order %v", tk.Index, events)
		}
	}
	events, _, _, _, err := mgr.EventsSince(v.ID, 0, nil)
	if err != nil || len(events) != len(cells) {
		t.Fatalf("%d events, err %v", len(events), err)
	}
	for seq, ev := range events {
		if ev.Seq != seq || ev.Cell != seq {
			t.Errorf("event %d is cell %d at seq %d", seq, ev.Cell, ev.Seq)
		}
	}

	warm := gridSpec()
	warm.Name = "warm"
	v, _, err = mgr.Submit(context.Background(), warm)
	if err != nil || v.Status != "done" || v.Deduped != len(cells) {
		t.Fatalf("warm submit: %+v err=%v, want every cell deduped", v, err)
	}
	if events := order(v.ID); events != nil {
		t.Errorf("a fully deduped sweep stores its order %v", events)
	}
}

// TestStaleTicketOnFinishedSweep: a ticket returned again after its
// sweep has finished is ignored with every outcome: no panic, and the
// view, events and counters stay.
func TestStaleTicketOnFinishedSweep(t *testing.T) {
	exec := &cacheExec{m: map[string]json.RawMessage{}}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := mgr.Submit(context.Background(), fourCells("stale"))
	if err != nil {
		t.Fatal(err)
	}
	var tickets []Ticket
	for {
		tk, ok := mgr.TryDequeue()
		if !ok {
			break
		}
		exec.m[tk.Key] = json.RawMessage(`{}`)
		mgr.CellDone(tk, CellDone, "")
		tickets = append(tickets, tk)
	}
	before, _ := mgr.View(v.ID)
	events, _, _, _, _ := mgr.EventsSince(v.ID, 0, nil)
	counts := mgr.Counts()
	if before.Status != "done" || len(tickets) != 4 {
		t.Fatalf("sweep %+v after %d tickets, want done after 4", before, len(tickets))
	}
	for _, tk := range tickets {
		for _, status := range []CellStatus{CellDone, CellDeduped, CellFailed, CellPending} {
			mgr.CellDone(tk, status, "late")
		}
	}
	after, _ := mgr.View(v.ID)
	again, _, _, _, _ := mgr.EventsSince(v.ID, 0, nil)
	if !reflect.DeepEqual(after, before) || !reflect.DeepEqual(again, events) || mgr.Counts() != counts {
		t.Errorf("stale tickets moved the sweep: view %+v → %+v, counts %+v → %+v", before, after, counts, mgr.Counts())
	}
}
