package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"
)

// refSweep is a sweep as a reference model keeps it: a status byte per
// cell and the whole completion order, however the cells completed —
// the representation the manager kept before it stopped storing an
// order that equals cell order. Its rules are the manager's, written
// out once more.
type refSweep struct {
	id        string
	spec      Spec // normalized
	priority  int
	cells     []Cell
	status    []uint8
	errors    map[int]string // a failed cell's error, when it had one
	events    []int32
	createdAt time.Time
	running   int
	done      int
	failed    int
	deduped   int
	finished  bool
	saved     []byte // the last header written, as the log spells it
}

func (r *refSweep) complete(i int, status CellStatus, errMsg string) {
	switch status {
	case CellDone:
		r.status[i] = codeDone
		r.done++
	case CellDeduped:
		r.status[i] = codeDeduped
		r.deduped++
	case CellFailed:
		r.status[i] = codeFailed
		r.failed++
		if errMsg != "" {
			if r.errors == nil {
				r.errors = map[int]string{}
			}
			r.errors[i] = errMsg
		}
	}
	r.events = append(r.events, int32(i))
	r.finished = r.done+r.failed+r.deduped == len(r.cells)
}

func (r *refSweep) view() View {
	terminal := r.done + r.failed + r.deduped
	v := View{ID: r.id, Name: r.spec.Name, Status: "running", Priority: r.priority, Cells: len(r.cells),
		Pending: len(r.cells) - r.running - terminal, Running: r.running,
		Done: r.done, Failed: r.failed, Deduped: r.deduped, Events: len(r.events), CreatedAt: r.createdAt}
	if r.finished {
		v.Status = "done"
	}
	return v
}

// header is the sweep's header record, the cells deduped and failed
// read off the status bytes.
func (r *refSweep) header() record {
	spec, createdAt := r.spec, r.createdAt
	spec.Priority = r.priority
	rec := record{ID: r.id, Spec: &spec, CreatedAt: &createdAt}
	for i, code := range r.status {
		switch code {
		case codeDeduped:
			if rec.Deduped == nil {
				rec.Deduped = make([]byte, (len(r.status)+7)/8)
			}
			rec.Deduped[i/8] |= 1 << (i % 8)
		case codeFailed:
			if rec.Errors == nil {
				rec.Errors = map[int]string{}
			}
			rec.Errors[i] = r.errors[i]
		}
	}
	return rec
}

// logLine is rec as the sweep log spells it.
func logLine(t *testing.T, rec record) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// lifecycleSpecs are the sweeps FuzzSweepLifecycle submits: two four-
// cell sweeps over the same cells, and a ten-cell one (a bitmap of two
// bytes) that shares four of its keys with them.
func lifecycleSpecs() []Spec {
	ten := Spec{Name: "r"}
	for _, mix := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		ten.Cells = append(ten.Cells, Cell{Mix: []string{mix}, Controller: "no"})
	}
	return []Spec{fourCells("p"), fourCells("q"), ten}
}

// FuzzSweepLifecycle drives a Manager and the reference model through
// the same random sequence of submissions (each sweep's first, and
// resubmissions that change its priority), dequeues, returned tickets —
// every outcome, a hand-back as pending and a ticket returned twice
// among them — and streams from any cursor. After every step each
// sweep's view and its events from cursor 0 equal the model's, and a
// stream from the step's cursor is the tail of the model's log; at the
// end the log holds, per sweep, the last header the model saved, byte
// for byte.
func FuzzSweepLifecycle(f *testing.F) {
	f.Add([]byte{0x05, 0x00, 0, 2, 1, 1, 1, 2, 0, 0, 2, 1, 1, 2, 2, 2, 3, 0, 7})
	f.Add([]byte{0x00, 0x03, 12, 1, 1, 1, 1, 2, 3, 4, 2, 2, 9, 2, 1, 7, 6, 1, 3, 1, 5, 0, 8, 7, 3})
	f.Add([]byte{0xff, 0x03, 0, 1, 6, 0, 12, 5, 3, 5, 0})
	f.Add([]byte{0x0a, 0x01, 0, 0, 1, 1, 1, 1, 2, 4, 2, 1, 2, 2, 12, 9, 2, 0, 1, 2, 3, 2, 1, 0, 2, 2, 6, 4, 0, 3, 1, 4})
	specs := lifecycleSpecs()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		exec := &cacheExec{m: map[string]json.RawMessage{}}
		cached := next() | next()<<8 // which of the ten keys start cached
		for i, c := range specs[2].Cells {
			if cached>>i&1 == 1 {
				c.Normalize()
				exec.m[keyOf(c)] = json.RawMessage(`{"warm":true}`)
			}
		}
		dir := t.TempDir()
		mgr, err := New(Config{Exec: exec, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		model := map[string]*refSweep{}
		var order []string // sweep IDs in submission order
		var held []Ticket  // every ticket dequeued, returned or not
		results := 0

		events := func(r *refSweep, cursor int) []Event {
			var out []Event
			for seq := max(cursor, 0); seq < len(r.events); seq++ {
				i := int(r.events[seq])
				key := keyOf(r.cells[i])
				ev := Event{Seq: seq, Cell: i, Status: statusNames[r.status[i]], Key: key, Spec: r.cells[i], Result: exec.m[key]}
				if ev.Status == CellFailed {
					ev.Result, ev.Error = nil, r.errors[i]
				}
				out = append(out, ev)
			}
			return out
		}
		check := func(step int, cursorID string, cursor int) {
			t.Helper()
			var want Counts
			for _, id := range order {
				r := model[id]
				got, ok := mgr.View(id)
				finished := got.FinishedAt != nil
				got.FinishedAt = nil
				if wantV := r.view(); !ok || finished != r.finished || got != wantV {
					t.Fatalf("step %d: view (finished_at set: %v)\n got %+v\nwant %+v", step, finished, got, wantV)
				}
				gotEv, _, _, _, err := mgr.EventsSince(id, 0, nil)
				if wantEv := events(r, 0); err != nil || !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("step %d: sweep %s events (err %v)\n got %+v\nwant %+v", step, id, err, gotEv, wantEv)
				}
				if !r.finished {
					want.Active++
					want.CellsPending += len(r.cells) - r.running - r.done - r.failed - r.deduped
					want.CellsRunning += r.running
				}
			}
			if got := mgr.Counts(); got.Active != want.Active || got.CellsPending != want.CellsPending || got.CellsRunning != want.CellsRunning {
				t.Fatalf("step %d: counts %+v, want active/pending/running %d/%d/%d", step, got, want.Active, want.CellsPending, want.CellsRunning)
			}
			if cursorID != "" {
				got, _, _, _, err := mgr.EventsSince(cursorID, cursor, nil)
				if want := events(model[cursorID], cursor); err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: sweep %s events from %d (err %v)\n got %+v\nwant %+v", step, cursorID, cursor, err, got, want)
				}
			}
		}

		for step := 0; len(data) > 0 && step < 200; step++ {
			cursorID, cursor := "", 0
			switch op := next(); op % 4 {
			case 0: // submit, or resubmit at a new priority
				k := op / 4 % len(specs)
				spec := specs[k]
				spec.Priority = next() % 10
				v, created, err := mgr.Submit(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				r := model[v.ID]
				if r == nil {
					if !created {
						t.Fatalf("step %d: first submission of %s attached", step, v.ID)
					}
					cells, err := specs[k].Expand(0)
					if err != nil {
						t.Fatal(err)
					}
					r = &refSweep{id: v.ID, spec: specs[k], priority: clampPriority(spec.Priority),
						cells: cells, status: make([]uint8, len(cells)), createdAt: v.CreatedAt}
					model[v.ID] = r
					order = append(order, v.ID)
					for i, c := range cells {
						if exec.m[keyOf(c)] != nil {
							r.complete(i, CellDeduped, "")
						}
					}
					r.saved = logLine(t, r.header())
				} else if created {
					t.Fatalf("step %d: resubmission of %s created a sweep", step, v.ID)
				} else if p := clampPriority(spec.Priority); p != r.priority {
					r.priority = p
					r.saved = logLine(t, r.header())
				}
			case 1: // dequeue
				tk, ok := mgr.TryDequeue()
				pending := false
				for _, r := range model {
					pending = pending || slices.Contains(r.status, codePending)
				}
				if !ok {
					if pending {
						t.Fatalf("step %d: nothing dequeued while the model has pending cells", step)
					}
					break
				}
				r := model[tk.SweepID]
				if r == nil || r.status[tk.Index] != codePending || tk.Key != keyOf(r.cells[tk.Index]) ||
					!reflect.DeepEqual(tk.Cell, r.cells[tk.Index]) {
					t.Fatalf("step %d: dequeued %+v, not a pending cell of the model", step, tk)
				}
				r.status[tk.Index] = codeRunning
				r.running++
				held = append(held, tk)
			case 2, 3: // return a ticket, maybe one returned before
				if len(held) == 0 {
					break
				}
				tk := held[next()%len(held)]
				b := next()
				status := []CellStatus{CellDone, CellDeduped, CellFailed, CellPending}[b%4]
				errMsg := ""
				if b&4 != 0 {
					errMsg = "boom"
				}
				if status == CellDone || status == CellDeduped {
					if exec.m[tk.Key] == nil {
						results++
						exec.m[tk.Key] = json.RawMessage(`{"run":` + strconv.Itoa(results) + `}`)
					}
				}
				mgr.CellDone(tk, status, errMsg)
				r := model[tk.SweepID]
				if r.status[tk.Index] != codeRunning {
					break // stale: ignored
				}
				r.running--
				if status == CellPending {
					r.status[tk.Index] = codePending
				} else {
					r.complete(tk.Index, status, errMsg)
				}
			}
			if len(order) > 0 {
				cursorID = order[next()%len(order)]
				cursor = next()%(len(model[cursorID].cells)+3) - 1
			}
			check(step, cursorID, cursor)
		}

		mgr.CloseStore()
		last := map[string][]byte{}
		for _, line := range bytes.SplitAfter(readLog(t, dir), []byte("\n")) {
			var rec record
			if json.Unmarshal(line, &rec) == nil && rec.Spec != nil {
				last[rec.ID] = line
			}
		}
		for _, id := range order {
			if !bytes.Equal(last[id], model[id].saved) {
				t.Errorf("sweep %s: the log's header\n got %s\nwant %s", id, last[id], model[id].saved)
			}
		}
	})
}
