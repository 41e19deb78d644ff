package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micromama/internal/persist"
)

// fuzzSpecCorpus seeds FuzzSweepSpec, and TestLayoutMatchesReference
// runs it under more budgets than the fuzzer's one.
var fuzzSpecCorpus = []string{
	`{"name":"a","grid":{"mixes":[["x","y"],["z"]],"controllers":["no","mumama"],"scales":["tiny",""],"seeds":[1,2],"dram":[{},{"mtps":2400,"channels":2}],"target":5}}`,
	`{"cells":[{"mix":[" a "],"controller":" x","scale":"TINY","seed":18446744073709551615}],"timeout_ms":-1,"priority":99}`,
	`{"grid":{"controllers":["x"]}}`,
	`{"grid":{"mixes":[[]],"controllers":[""],"seeds":[0,0,0]},"cells":[{}]}`,
	`{}`,
}

// FuzzSweepSpec feeds POST /v1/sweeps bodies — the one untrusted shape
// this package parses — through what admission does with them: Expand
// and ID never panic, give the same answer on a second decode of the
// same bytes and on a second call (normalization is idempotent), never
// return more cells than the budget, and the cells read off the layout
// are the nested loops' (referenceExpand), refusals text for text.
func FuzzSweepSpec(f *testing.F) {
	for _, body := range fuzzSpecCorpus {
		f.Add([]byte(body))
	}
	// TestExpandErrors' two grids whose cell count wraps an int.
	for _, spec := range []Spec{axesSpec(13, 13, 13, 12, 12, 0), axesSpec(13, 13, 13, 13, 12, 1)} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	const budget = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		var a, b Spec
		if json.Unmarshal(body, &a) != nil || json.Unmarshal(body, &b) != nil {
			t.Skip("not a spec")
		}
		cellsA, errA := a.Expand(budget)
		cellsB, errB := b.Expand(budget)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(cellsA, cellsB) {
			t.Fatalf("two decodes of %s expand differently: %v / %v", body, errA, errB)
		}
		checkLayout(t, &a, budget)
		if errA == nil && (len(cellsA) == 0 || len(cellsA) > budget) {
			t.Fatalf("expanded %d cells under a budget of %d", len(cellsA), budget)
		}
		again, errAgain := a.Expand(budget)
		if (errAgain == nil) != (errA == nil) || !reflect.DeepEqual(again, cellsA) {
			t.Fatalf("second Expand of %s differs: %v / %v", body, errA, errAgain)
		}
		idA, errA := a.ID()
		idB, errB := b.ID()
		if errA != nil || errB != nil || idA != idB || len(idA) != 17 {
			t.Fatalf("IDs %q (%v) and %q (%v) of %s", idA, errA, idB, errB, body)
		}
	})
}

// FuzzEventLine holds AppendEvent — the payload of an NDJSON line — to
// encoding/json: for any envelope
// strings and any result in the form the cache hands out (what
// json.Marshal emits: compact, HTML-escaped) it is exactly
// json.Marshal(ev); for a result that is merely valid compact JSON it
// is still one line of valid JSON that decodes to the same event. And
// it holds the round trip: ParseLine reads either form back as
// json.Unmarshal does.
func FuzzEventLine(f *testing.F) {
	f.Add(0, 0, "done", "k", "spec06.mcf", "mumama", "tiny", uint64(7), "", []byte(`{"mix":"a","ws":1.5,"ipc":[0.1,2e-7]}`))
	f.Add(511, 3, "failed", "abc", "a,b", "no", "", uint64(0), "job panicked: \"x\"\n\tgoroutine 1 <&>", []byte(nil))
	f.Add(-1, 1<<40, "deduped", "\xff ", " <mix> ", `c"t\rl`, "FULL", uint64(1)<<63, "boom", []byte(`["<>&",null,{"a":" "}]`))
	f.Add(1, 1, "", "", "", "", "", uint64(0), "", []byte(`null`))
	f.Fuzz(func(t *testing.T, seq, cell int, status, key, mix, ctrl, scale string, seed uint64, errMsg string, result []byte) {
		ev := Event{
			Seq: seq, Cell: cell, Status: CellStatus(status), Key: key, Error: errMsg,
			Spec: Cell{Mix: strings.Split(mix, ","), Controller: ctrl, Scale: scale, Seed: seed, Target: seed / 3, Step: seed / 5, DRAMMTps: cell, DRAMChannels: -seq},
		}
		if mix == "" {
			ev.Spec.Mix = nil
		}
		var compact bytes.Buffer
		if len(result) > 0 {
			if err := json.Compact(&compact, result); err != nil {
				t.Skip("result is not JSON")
			}
			ev.Result, _ = json.Marshal(json.RawMessage(result))
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", ev, err)
		}
		var wantEv Event
		if err := json.Unmarshal(want, &wantEv); err != nil {
			t.Fatal(err)
		}
		for _, form := range []struct {
			res    json.RawMessage
			strict bool // bytes must match json.Marshal's
		}{{ev.Result, true}, {compact.Bytes(), false}} {
			ev.Result = form.res
			const prefix = "{\"seq\":6}\n"
			scratch := []byte(prefix + "left over from the previous batch")
			framed := AppendEvent(scratch[:len(prefix)], ev)
			payload := framed[len(prefix):]
			if string(framed[:len(prefix)]) != prefix || bytes.ContainsAny(payload, "\n\r") {
				t.Fatalf("payload is not one line appended to its prefix: %q", framed)
			}
			if form.strict && !bytes.Equal(payload, want) {
				t.Fatalf("payload differs from json.Marshal:\n got %s\nwant %s", payload, want)
			}
			checkAgainstReference(t, payload)
			var parsed Line
			if err := ParseLine(payload, &parsed); err != nil {
				t.Fatalf("ParseLine(%s): %v", payload, err)
			}
			got := parsed.Event
			// A result that was not HTML-escaped decodes to different
			// bytes that mean the same value.
			var gotRes, wantRes any
			if len(got.Result) > 0 {
				if err := json.Unmarshal(got.Result, &gotRes); err != nil {
					t.Fatal(err)
				}
			}
			if len(wantEv.Result) > 0 {
				if err := json.Unmarshal(wantEv.Result, &wantRes); err != nil {
					t.Fatal(err)
				}
			}
			got.Result = wantEv.Result
			if !reflect.DeepEqual(got, wantEv) || !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("decoded event differs:\n got %+v (%v)\nwant %+v (%v)", got, gotRes, wantEv, wantRes)
			}
		}
	})
}

// FuzzParseLine feeds ParseLine what a broken or hostile server could
// send: for any bytes it never panics, and it accepts a line exactly
// when json.Unmarshal accepts it for the line's declared shape, with the
// same value. Member names that match a field only by case folding are
// the documented difference: ParseLine must ignore them (or refuse the
// line for another reason), which checkAgainstReference asserts by
// comparing with encoding/json's reading of the line with those members
// renamed out of the way.
func FuzzParseLine(f *testing.F) {
	for _, payload := range streamFixture(f) { // a real stream: events, a failed cell's escaped error, the end marker
		f.Add(payload)
		f.Add(append(payload[:len(payload):len(payload)], '\n')) // as read off the wire, terminator and all
	}
	f.Add([]byte(`{"result":null,"Cell":3,"cell":1,"spec":{"mix":["a",null],"MIX":[],"seed":18446744073709551615},"spec":{"mix":[null,"b","c"]}}`))
	f.Add([]byte(`{"cell":-0,"end":false,"sweep":{"id":"s"},"sweep":{"name":"n"},"x":[{"y":"😀"}]}`))
	f.Add([]byte(" null\n"))
	f.Add([]byte(`{"cell":1.5}`))
	f.Add([]byte(`{"seq":1}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstReference(t, line)
	})
}

// halfCachedExec is a backend whose cache holds a result for about half
// of all keys: those whose first hex digit is below 8.
type halfCachedExec struct{ recordingExec }

func (e *halfCachedExec) Lookup(h uint32) (string, json.RawMessage) {
	if key := e.keys[h]; key[0] < '8' {
		return key, json.RawMessage(`{}`)
	}
	return e.keys[h], nil
}

// FuzzSweepResume takes any bytes as the sweep log after its stamp and
// restarts a manager over it. New never panics; each seed resumes at
// least one sweep; no cell it resumes reads done or
// deduped unless the backend holds its result, so every resumed sweep
// streams without a gap; a resumed sweep that is finished streams each
// cell exactly once from cursor 0, with the status resume gave it; and a
// second restart, which finds the log as the first one's Load rewrote
// it, resumes every cell as the first did.
func FuzzSweepResume(f *testing.F) {
	const spec = `"spec":{"name":"f","cells":[{"mix":["a"],"controller":"no"},{"mix":["b"],"controller":"no"},` +
		`{"mix":["c"],"controller":"no"},{"mix":["d"],"controller":"no"}]},"created_at":"2026-01-01T00:00:00Z"`
	seeds := map[string]bool{}
	for _, log := range []string{
		// A header, and a cell line for each outcome it can have.
		`{"id":"s1",` + spec + `,"deduped":"Aw=="}` + "\n" + `{"id":"s1/2","cell":"deduped"}` + "\n" +
			`{"id":"s1/3","cell":"failed","error":"boom"}` + "\n",
		// A header rewritten on a priority change, with the failures.
		`{"id":"s1",` + spec + `,"deduped":"AQ==","errors":{"1":"","3":"x"}}` + "\n" + `{"id":"s1",` + spec + "}\n",
		// A header superseded by one carrying a deduped and a failed cell.
		`{"id":"s2",` + spec + "}\n" +
			`{"id":"s2",` + spec + `,"deduped":"Ag==","errors":{"2":"x"}}` + "\n" +
			`{"id":"s2/3","cell":"deduped"}` + "\n",
		// Cell lines without their header, or naming no cell or outcome.
		`{"id":"s9/1","cell":"deduped"}` + "\n" + `{"id":"s1",` + spec + "}\n" + `{"id":"s1/x","cell":"failed"}` + "\n" +
			`{"id":"s1/-1","cell":"deduped"}` + "\n" + `{"id":"s1/99","cell":"deduped"}` + "\n" + `{"id":"s1/0","cell":"done"}` + "\n" +
			`{"id":"s1/","cell":"failed"}` + "\n" + `{"id":"/0","cell":"failed"}` + "\n",
		// A torn tail, and a spec that no longer lays out.
		`{"id":"s1",` + spec + "}\n" + `{"id":"s3","spec":{"cells":[{"mix":["a"],"controller":"bad"}]}}` + "\n" + `{"id":"s1/2","cell":"ded`,
	} {
		f.Add([]byte(log))
		seeds[log] = true
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, persist.LogName), append([]byte(stamp), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		resume := func() map[string][]uint8 {
			exec := &halfCachedExec{}
			mgr, err := New(Config{Exec: exec, Dir: dir, MaxCells: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.CloseStore()
			out := map[string][]uint8{}
			for id, st := range mgr.sweeps {
				for i, code := range st.status {
					if _, res := exec.Lookup(st.handles[i]); res == nil && (code == codeDone || code == codeDeduped) {
						t.Fatalf("sweep %s cell %d resumed %s without its result", id, i, statusNames[code])
					}
				}
				events, v, _, _, err := mgr.EventsSince(id, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if v.Status == "done" {
					seen := make([]bool, len(st.status))
					for _, ev := range events {
						if seen[ev.Cell] || ev.Status != statusNames[st.status[ev.Cell]] {
							t.Fatalf("finished sweep %s streams cell %d again or as %s, resumed as %s",
								id, ev.Cell, ev.Status, statusNames[st.status[ev.Cell]])
						}
						seen[ev.Cell] = true
					}
					if len(events) != len(st.status) {
						t.Fatalf("finished sweep %s streams %d events for %d cells", id, len(events), len(st.status))
					}
				}
				out[id] = append([]uint8(nil), st.status...)
			}
			return out
		}
		first := resume()
		if seeds[string(data)] && len(first) == 0 {
			t.Fatal("a seed resumed no sweep")
		}
		if again := resume(); !reflect.DeepEqual(again, first) {
			t.Fatalf("a second restart resumed %v, the first %v", again, first)
		}
	})
}
