package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"micromama/internal/sweep"
)

// FuzzEventLine holds the stream's spliced event encoder — the payload
// of an NDJSON line and of an SSE data field alike — to encoding/json:
// for any envelope strings and any result in the form the cache hands
// out (what json.Marshal emits: compact, HTML-escaped) it is exactly
// json.Marshal(ev); for a result that is merely valid compact JSON it
// is still one line of valid JSON that decodes to the same event.
func FuzzEventLine(f *testing.F) {
	f.Add(0, 0, "done", "k", "spec06.mcf", "mumama", "tiny", uint64(7), "", []byte(`{"mix":"a","ws":1.5,"ipc":[0.1,2e-7]}`))
	f.Add(511, 3, "failed", "abc", "a,b", "no", "", uint64(0), "job panicked: \"x\"\n\tgoroutine 1 <&>", []byte(nil))
	f.Add(-1, 1<<40, "deduped", "\xff ", " <mix> ", `c"t\rl`, "FULL", uint64(1)<<63, "boom", []byte(`["<>&",null,{"a":" "}]`))
	f.Add(1, 1, "", "", "", "", "", uint64(0), "", []byte(`null`))
	f.Fuzz(func(t *testing.T, seq, cell int, status, key, mix, ctrl, scale string, seed uint64, errMsg string, result []byte) {
		ev := sweep.Event{
			Seq: seq, Cell: cell, Status: sweep.CellStatus(status), Key: key, Error: errMsg,
			Spec: sweep.Cell{Mix: strings.Split(mix, ","), Controller: ctrl, Scale: scale, Seed: seed, Target: seed / 3, DRAMMTps: cell},
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
		var wantEv sweep.Event
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
			framed, err := appendEventJSON(scratch[:len(prefix)], ev)
			if err != nil {
				t.Fatal(err)
			}
			payload := framed[len(prefix):]
			if string(framed[:len(prefix)]) != prefix || bytes.ContainsAny(payload, "\n\r") {
				t.Fatalf("payload is not one line appended to its prefix: %q", framed)
			}
			if form.strict && !bytes.Equal(payload, want) {
				t.Fatalf("payload differs from json.Marshal:\n got %s\nwant %s", payload, want)
			}
			if !json.Valid(payload) {
				t.Fatalf("payload is not valid JSON: %s", payload)
			}
			var got sweep.Event
			if err := json.Unmarshal(payload, &got); err != nil {
				t.Fatal(err)
			}
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
