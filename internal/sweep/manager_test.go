package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"unsafe"
)

// recordingExec is a backend that caches nothing and writes down what
// the manager asks of it, in order.
type recordingExec struct {
	calls   []string // "key", "prefetch", "lookup"
	digests strings.Builder
	fetch   string // what Prefetch was handed
}

func (e *recordingExec) AppendKey(dst []byte, c Cell) ([]byte, error) {
	if c.Controller == "bad" {
		return dst, fmt.Errorf("unknown controller %q", c.Controller)
	}
	if c.Controller == "short" {
		return append(dst, "abc"...), nil
	}
	e.calls = append(e.calls, "key")
	sum := sha256.Sum256([]byte(fmt.Sprint(c)))
	e.digests.Write(sum[:])
	return append(dst, sum[:]...), nil
}

func (e *recordingExec) Prefetch(_ context.Context, digests string) {
	e.calls = append(e.calls, "prefetch")
	e.fetch = digests
}

func (e *recordingExec) Lookup([]byte) (string, json.RawMessage, bool) {
	e.calls = append(e.calls, "lookup")
	return "", nil, false
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
// its backend: every cell keyed once, the backend handed all the key
// digests — the ones just computed, in cell order — before the first
// cache lookup, each ticket keyed by its digest's hex, and a
// resubmission none of it: an ID the manager holds is a map lookup that
// still takes the new priority.
func TestSubmitKeysOncePrefetchesThenLooksUp(t *testing.T) {
	exec := &recordingExec{}
	mgr, err := New(Config{Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v, created, err := mgr.Submit(ctx, gridSpec())
	if err != nil || !created || v.Cells != 16 || v.Pending != 16 || v.Priority != 1 {
		t.Fatalf("submit: %+v created=%v err=%v", v, created, err)
	}
	want := strings.Fields(strings.Repeat("key ", 16) + "prefetch" + strings.Repeat(" lookup", 16))
	if fmt.Sprint(exec.calls) != fmt.Sprint(want) {
		t.Errorf("backend calls:\n got %v\nwant %v", exec.calls, want)
	}
	if exec.fetch != exec.digests.String() || len(exec.fetch) != 16*DigestLen {
		t.Errorf("Prefetch was handed %d bytes that are not the 16 digests computed", len(exec.fetch))
	}
	for i := 0; i < 16; i++ {
		tk, ok := mgr.TryDequeue()
		if !ok || tk.Index != i || tk.Key != hex.EncodeToString([]byte(exec.fetch[i*DigestLen:(i+1)*DigestLen])) {
			t.Fatalf("ticket %d: %+v ok=%v, want cell %d under its key", i, tk, ok, i)
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
	// So does one whose key would shift every later cell's in the blob.
	bad.Name, bad.Cells = "short", []Cell{{Mix: []string{"a"}, Controller: "short"}}
	if _, _, err := mgr.Submit(ctx, bad); err == nil || err.Error() != "cell 16: backend returned a 3-byte key" {
		t.Errorf("short key: %v", err)
	}
	if n := len(mgr.List()); n != 1 || strings.Contains(fmt.Sprint(exec.calls), "prefetch") {
		t.Errorf("a refused sweep left %d sweeps tracked, backend calls %v", n, exec.calls)
	}
}

// cacheExec is a backend whose cache holds what its map holds: a result
// per hex key, each entry's key string its own.
type cacheExec struct {
	recordingExec
	m map[string]json.RawMessage
}

func (e *cacheExec) Lookup(key []byte) (string, json.RawMessage, bool) {
	for k, raw := range e.m {
		if k == string(key) {
			return k, raw, true
		}
	}
	return "", nil, false
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
		key, _ := exec.AppendKey(nil, c)
		exec.m[hex.EncodeToString(key)] = json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i+1))
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
		key, _ := exec.AppendKey(nil, cells[ev.Cell])
		want := hex.EncodeToString(key)
		if ev.Seq != seq || ev.Key != want {
			t.Errorf("event %d: seq %d key %s, want key %s", seq, ev.Seq, ev.Key, want)
		}
		if ev.Cell == 0 {
			if ev.Status != CellFailed || ev.Error != "boom" || ev.Result != nil {
				t.Errorf("failed cell's event %+v, want its error and no result", ev)
			}
			continue
		}
		got, _, _ := exec.Lookup([]byte(want))
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
