package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
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

// FuzzEventLine holds AppendEvent — the payload of an NDJSON line and
// of an SSE data field alike — to encoding/json: for any envelope
// strings and any result in the form the cache hands out (what
// json.Marshal emits: compact, HTML-escaped) it is exactly
// json.Marshal(ev); for a result that is merely valid compact JSON it
// is still one line of valid JSON that decodes to the same event. And
// it holds the round trip: ParseLine reads either payload back as
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
			const prefix = "id: 7\ndata: "
			scratch := []byte(prefix + "left over from the previous frame")
			framed := AppendEvent(scratch[:len(prefix)], ev)
			payload := framed[len(prefix):]
			if string(framed[:len(prefix)]) != prefix || bytes.ContainsAny(payload, "\n\r") {
				t.Fatalf("payload is not one line appended to its prefix: %q", framed)
			}
			if form.strict && !bytes.Equal(payload, want) {
				t.Fatalf("payload differs from json.Marshal:\n got %s\nwant %s", payload, want)
			}
			checkAgainstReference(t, payload)
			parsed, err := ParseLine(payload)
			if err != nil {
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
	for _, payload := range streamFixture(f) { // a real stream: events, a failed cell's escaped error, the end marker, NDJSON and SSE
		f.Add(payload)
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
