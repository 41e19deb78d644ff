package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// recordingExec is a backend that caches nothing and writes down what
// the manager asks of it, in order.
type recordingExec struct {
	calls []string // "key", "prefetch", "lookup"
	keys  strings.Builder
	fetch string // what Prefetch was handed
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
	dst = hex.AppendEncode(dst, sum[:])
	e.keys.Write(dst[len(dst)-KeyLen:])
	return dst, nil
}

func (e *recordingExec) Prefetch(_ context.Context, keys string) {
	e.calls = append(e.calls, "prefetch")
	e.fetch = keys
}

func (e *recordingExec) CachedResult(string) (json.RawMessage, bool) {
	e.calls = append(e.calls, "lookup")
	return nil, false
}

// TestSubmitKeysOncePrefetchesThenLooksUp pins what admission asks of
// its backend: every cell keyed once, the backend told all the keys —
// the ones just computed, in cell order — before the first cache
// lookup, and a resubmission none of it: an ID the manager holds is a
// map lookup that still takes the new priority.
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
	if exec.fetch != exec.keys.String() || len(exec.fetch) != 16*KeyLen {
		t.Errorf("Prefetch was handed %d bytes that are not the 16 keys computed", len(exec.fetch))
	}
	for i := 0; i < 16; i++ {
		tk, ok := mgr.TryDequeue()
		if !ok || tk.Index != i || tk.Key != exec.fetch[i*KeyLen:(i+1)*KeyLen] {
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
