package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// refLine is the shape a stream line was decoded into before ParseLine
// existed; encoding/json's reading of it is the reference the parser is
// held to.
type refLine struct {
	End   bool  `json:"end"`
	Sweep *View `json:"sweep"`
	Event
}

func refParse(line []byte) (Line, error) {
	var l refLine
	if err := json.Unmarshal(line, &l); err != nil {
		return Line{}, err
	}
	return Line{End: l.End, Sweep: l.Sweep, Event: l.Event}, nil
}

var (
	lineKeys = []string{"end", "sweep", "seq", "cell", "status", "key", "spec", "result", "error"}
	cellKeys = []string{"mix", "controller", "scale", "seed", "target", "step", "dram_mtps", "dram_channels"}
)

// exactKeys rewrites a valid line so that every member name
// encoding/json would match to a field by case folding alone ("Cell",
// "SPEC") becomes a name it cannot match — the line as ParseLine, which
// matches names exactly, reads it. Values are copied byte for byte.
// changed is false when there was nothing to rename.
func exactKeys(obj []byte, known []string) (out []byte, changed bool) {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return obj, false
	}
	out = append(out, '{')
	for n := 0; dec.More(); n++ {
		tok, err := dec.Token()
		var val json.RawMessage
		if err != nil || dec.Decode(&val) != nil {
			return obj, false
		}
		key := tok.(string)
		exact := false
		for _, k := range known {
			if key == k {
				exact = true
			} else if strings.EqualFold(key, k) {
				key, changed = "~"+key, true
			}
		}
		if exact && key == "spec" {
			if inner, ch := exactKeys(val, cellKeys); ch {
				val, changed = inner, true
			}
		}
		if n > 0 {
			out = append(out, ',')
		}
		name, _ := json.Marshal(key)
		out = append(append(append(out, name...), ':'), val...)
	}
	return append(out, '}'), changed
}

// checkAgainstReference holds ParseLine to encoding/json on one line:
// both refuse it, or both accept it and decode the same value.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	ref := line
	if json.Valid(line) {
		if renamed, changed := exactKeys(line, lineKeys); changed {
			ref = renamed // the documented difference: such members are ignored, not decoded
		}
	}
	want, wantErr := refParse(ref)
	got, err := ParseLine(line)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseLine(%q) error = %v, encoding/json's = %v", line, err, wantErr)
	}
	if err != nil {
		if !reflect.DeepEqual(got, Line{}) {
			t.Fatalf("ParseLine(%q) failed and still returned %+v", line, got)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseLine(%q)\n got %+v (result %s)\nwant %+v (result %s)", line, got, got.Event.Result, want, want.Event.Result)
	}
}

// streamFixture returns the lines of testdata/stream.ndjson: a finished
// four-cell sweep, one cell failed with a panic's multi-line error,
// captured from the server of the commit before AppendEvent existed.
func streamFixture(t testing.TB) [][]byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/stream.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	payloads := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(payloads) != 5 {
		t.Fatalf("fixture holds %d lines, want 4 events + end", len(payloads))
	}
	return payloads
}

// TestWireBytesDoNotMove: every event the old server wrote is what
// AppendEvent writes for it, and every line it wrote — the failed
// cell's escaped error and the end marker included — parses to what
// encoding/json made of it.
func TestWireBytesDoNotMove(t *testing.T) {
	events, ends := 0, 0
	for _, payload := range streamFixture(t) {
		checkAgainstReference(t, payload)
		l, err := ParseLine(payload)
		if err != nil {
			t.Fatal(err)
		}
		if l.End {
			if ends++; l.Sweep == nil || l.Sweep.Cells != 4 || l.Sweep.Failed != 1 || l.Sweep.FinishedAt == nil {
				t.Errorf("end marker's view = %+v", l.Sweep)
			}
			continue
		}
		events++
		if got := AppendEvent(nil, l.Event); !bytes.Equal(got, payload) {
			t.Errorf("AppendEvent moved the wire bytes:\n got %s\nwant %s", got, payload)
		}
	}
	if events != 4 || ends != 1 {
		t.Errorf("fixture gave %d events and %d end markers, want 4 and 1", events, ends)
	}
}

// fill sets every field under v to a non-zero value.
func fill(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i))
		}
	case reflect.Int:
		v.SetInt(-7)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			v.SetBytes([]byte(`{"ws":1.5}`))
		} else {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(t, v.Index(0))
			fill(t, v.Index(1))
		}
	default:
		t.Fatalf("the codec's field-coverage test does not know how to fill a %s", v.Type())
	}
}

// TestCodecCoversEveryField: the codec spells Event's and Cell's
// members out by hand, so a field added to either must be added to
// AppendEvent and ParseLine too — this fails until it is.
func TestCodecCoversEveryField(t *testing.T) {
	var ev Event
	fill(t, reflect.ValueOf(&ev).Elem())
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendEvent(nil, ev)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendEvent\n got %s\nwant %s", got, want)
	}
	l, err := ParseLine(got)
	if err != nil || !reflect.DeepEqual(l.Event, ev) {
		t.Fatalf("ParseLine(%s) = %+v, %v; want %+v", got, l.Event, err, ev)
	}
}

func TestParseLine(t *testing.T) {
	deep := strings.Repeat("[", maxLineDepth-1) + strings.Repeat("]", maxLineDepth-1)
	for _, tc := range []struct {
		name, line string
		check      func(t *testing.T, l Line)
		bad        bool
	}{
		{name: "members in any order", line: `{"error":"e","result":[1],"spec":{"dram_channels":2,"controller":"no","mix":["a","b"]},"key":"k","status":"failed","cell":3,"seq":9}`,
			check: func(t *testing.T, l Line) {
				want := Event{Seq: 9, Cell: 3, Status: CellFailed, Key: "k", Error: "e", Result: json.RawMessage(`[1]`),
					Spec: Cell{Mix: []string{"a", "b"}, Controller: "no", DRAMChannels: 2}}
				if !reflect.DeepEqual(l.Event, want) {
					t.Errorf("got %+v, want %+v", l.Event, want)
				}
			}},
		{name: "unknown members are skipped, validated", line: `{"cell":1,"later":{"a":[true,false,null,-0.5e+3,"é"]},"spec":{"mix":["a"],"controller":"c","cores":4},"x":0}`,
			check: func(t *testing.T, l Line) {
				if l.Event.Cell != 1 || l.Event.Spec.Controller != "c" {
					t.Errorf("got %+v", l.Event)
				}
			}},
		{name: "a repeated member decodes over the earlier one", line: `{"cell":1,"cell":2,"key":"a","key":"b","result":{"a":1},"result":7,"spec":{"mix":["a","b"],"seed":3},"spec":{"mix":[null,"c","d"],"controller":"x"}}`,
			check: func(t *testing.T, l Line) {
				want := Event{Cell: 2, Key: "b", Result: json.RawMessage(`7`),
					Spec: Cell{Mix: []string{"a", "c", "d"}, Controller: "x", Seed: 3}}
				if !reflect.DeepEqual(l.Event, want) {
					t.Errorf("got %+v, want %+v", l.Event, want)
				}
			}},
		{name: "a null result is kept as its bytes; any other null changes nothing", line: `{"cell":4,"result":null,"cell":null,"status":"done","status":null,"spec":null,"end":null,"sweep":null}`,
			check: func(t *testing.T, l Line) {
				if string(l.Event.Result) != "null" || l.Event.Cell != 4 || l.Event.Status != CellDone || l.End || l.Sweep != nil {
					t.Errorf("got %+v", l)
				}
			}},
		{name: "whitespace", line: " \t{ \"seq\" : 1 ,\r\n\"spec\" : { \"mix\" : [ \"a\" , \"b\" ] , \"controller\" : \"c\" } , \"result\" :  { \"a\" : [ 1 , 2 ] }  } \n",
			check: func(t *testing.T, l Line) {
				if string(l.Event.Result) != `{ "a" : [ 1 , 2 ] }` || len(l.Event.Spec.Mix) != 2 {
					t.Errorf("got %+v (result %q)", l.Event, l.Event.Result)
				}
			}},
		{name: "escapes in names and values", line: `{"c\u0065ll":5,"key":"a\"\\\/\b\f\n\r\té😀\ud800","error":"café <&>"}`,
			check: func(t *testing.T, l Line) {
				if l.Event.Cell != 5 || l.Event.Key != "a\"\\/\b\f\n\r\té\U0001F600�" || l.Event.Error != "café <&>" {
					t.Errorf("got %+q", l.Event)
				}
			}},
		{name: "the end marker", line: `{"end":true,"sweep":{"id":"s1","status":"done","cells":2,"created_at":"2026-10-05T09:52:46Z"}}`,
			check: func(t *testing.T, l Line) {
				if !l.End || l.Sweep == nil || l.Sweep.ID != "s1" || l.Sweep.Cells != 2 || l.Sweep.CreatedAt.Year() != 2026 {
					t.Errorf("got %+v", l)
				}
			}},
		{name: "a bare null is an empty line's worth of nothing", line: ` null `, check: func(t *testing.T, l Line) {}},
		{name: "nesting to encoding/json's limit", line: `{"result":` + deep + `}`, check: func(t *testing.T, l Line) {}},
		// The one stated difference from encoding/json: names match
		// exactly. A name that differs by case is an unknown member —
		// its value is validated and dropped, whatever its type.
		{name: "names match exactly", line: `{"Cell":7,"CELL":"not a number","cell":1,"ſeq":3,"Spec":{"controller":"x"},"spec":{"Controller":"y","mix":["a"]},"End":true}`,
			check: func(t *testing.T, l Line) {
				want := Line{Event: Event{Cell: 1, Spec: Cell{Mix: []string{"a"}}}}
				if !reflect.DeepEqual(l, want) {
					t.Errorf("got %+v, want %+v", l, want)
				}
			}},

		{name: "empty", line: ``, bad: true},
		{name: "not an object", line: `[1]`, bad: true},
		{name: "truncated", line: `{"seq":1,"cell":2,"status":"do`, bad: true},
		{name: "truncated in result", line: `{"seq":1,"result":{"a":[1,2`, bad: true},
		{name: "bad syntax inside result", line: `{"seq":1,"result":{"a":01}}`, bad: true},
		{name: "bad syntax inside a skipped member", line: `{"seq":1,"later":{"a":tru}}`, bad: true},
		{name: "bad escape in a skipped string", line: `{"later":"\x"}`, bad: true},
		{name: "short \\u escape", line: `{"key":"\u12"}`, bad: true},
		{name: "control character in a string", line: "{\"key\":\"a\tb\"}", bad: true},
		{name: "non-integer cell", line: `{"cell":1.0}`, bad: true},
		{name: "exponent cell", line: `{"cell":1e2}`, bad: true},
		{name: "cell past int64", line: `{"cell":9223372036854775808}`, bad: true},
		{name: "negative seed", line: `{"spec":{"seed":-1}}`, bad: true},
		{name: "wrong-typed status", line: `{"status":5}`, bad: true},
		{name: "wrong-typed end", line: `{"end":"true"}`, bad: true},
		{name: "wrong-typed spec", line: `{"spec":["a"]}`, bad: true},
		{name: "wrong-typed mix", line: `{"spec":{"mix":"a"}}`, bad: true},
		{name: "wrong-typed mix element", line: `{"spec":{"mix":["a",1]}}`, bad: true},
		{name: "wrong-typed sweep", line: `{"end":true,"sweep":[]}`, bad: true},
		{name: "bad time in the view", line: `{"end":true,"sweep":{"created_at":"yesterday"}}`, bad: true},
		{name: "trailing bytes", line: `{"seq":1} {"seq":2}`, bad: true},
		{name: "trailing comma", line: `{"seq":1,}`, bad: true},
		{name: "missing colon", line: `{"seq" 1}`, bad: true},
		{name: "unquoted name", line: `{seq:1}`, bad: true},
		{name: "nesting past encoding/json's limit", line: `{"result":[` + deep + `]}`, bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstReference(t, []byte(tc.line))
			l, err := ParseLine([]byte(tc.line))
			if tc.bad {
				if err == nil {
					t.Fatalf("accepted, as %+v", l)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, l)
		})
	}
}

// TestParseLineCopiesWhatItKeeps: the client hands ParseLine the
// scanner's buffer, which the next line overwrites.
func TestParseLineCopiesWhatItKeeps(t *testing.T) {
	line := []byte(`{"seq":1,"cell":2,"status":"done","key":"abc","spec":{"mix":["m1","m2"],"controller":"ctl","scale":"tiny"},"result":{"ws":1.5},"error":"e"}`)
	want, err := refParse(line)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	for i := range line {
		line[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded event aliases the line: %+v (result %s)", got, got.Event.Result)
	}
}

// benchEvent is one deduped event as sweep_warm streams it: a 4-trace
// mix and a real result payload (fixture cell 1).
func benchEvent(b *testing.B) (Event, []byte) {
	b.Helper()
	payload := streamFixture(b)[1]
	l, err := ParseLine(payload)
	if err != nil || len(l.Event.Spec.Mix) != 4 || len(l.Event.Result) == 0 {
		b.Fatalf("fixture event = %+v, %v", l.Event, err)
	}
	l.Event.Status = CellDeduped
	return l.Event, AppendEvent(nil, l.Event)
}

func BenchmarkEventAppend(b *testing.B) {
	ev, line := benchEvent(b)
	buf := make([]byte, 0, 2*len(line))
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEvent(buf[:0], ev)
	}
	if !bytes.Equal(buf, line) {
		b.Fatalf("encoded %s", buf)
	}
}

func BenchmarkParseLine(b *testing.B) {
	ev, line := benchEvent(b)
	var l Line
	var err error
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l, err = ParseLine(line); err != nil {
			b.Fatal(err)
		}
	}
	if !reflect.DeepEqual(l.Event, ev) {
		b.Fatalf("decoded %+v", l.Event)
	}
}

// benchSingleEvent is one deduped event as sweep_warm streams it: a
// single-trace mix, its seed and budget override, and a one-core result
// (fixture cell 3), about 470 bytes.
func benchSingleEvent(b *testing.B) (Event, []byte) {
	b.Helper()
	l, err := ParseLine(streamFixture(b)[3])
	if err != nil || len(l.Event.Spec.Mix) != 1 || len(l.Event.Result) == 0 {
		b.Fatalf("fixture event = %+v, %v", l.Event, err)
	}
	l.Event.Status = CellDeduped
	l.Event.Spec.Seed, l.Event.Spec.Target = 7, 20_000
	return l.Event, AppendEvent(nil, l.Event)
}

// BenchmarkParseLineSingle reads that line as a stream's Decoder does,
// line after line of one grid run: the mix name, controller and scale
// are the previous line's strings.
func BenchmarkParseLineSingle(b *testing.B) {
	ev, line := benchSingleEvent(b)
	var d Decoder
	var l Line
	var err error
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l, err = d.Parse(line); err != nil {
			b.Fatal(err)
		}
	}
	if !reflect.DeepEqual(l.Event, ev) {
		b.Fatalf("decoded %+v", l.Event)
	}
}

// TestDecoderMatchesParseLine: a Decoder remembers the previous event's
// strings, and that changes no value. For every pair of lines from a
// corpus of real, respelled and broken ones, the second read after the
// first decodes exactly as ParseLine reads it alone; and a mix name,
// controller or scale equal to the previous event's is that event's
// string, not a copy.
func TestDecoderMatchesParseLine(t *testing.T) {
	corpus := [][]byte{
		[]byte(`{"seq":0,"cell":0,"status":"deduped","key":"k0","spec":{"mix":["a"],"controller":"c","scale":"tiny","seed":1},"result":{"ws":1}}`),
		[]byte(`{"seq":1,"cell":1,"status":"deduped","key":"k1","spec":{"mix":["a"],"controller":"c","scale":"tiny","seed":2},"result":{"ws":2}}`),
		[]byte(`{"seq":2,"cell":2,"status":"done","key":"k2","spec":{"mix":["a","b","a"],"controller":"d","scale":"small"}}`),
		[]byte(`{"spec":{"mix":["b",null,"a"],"controller":"cd","scale":null},"spec":{"mix":["x"]}}`),
		[]byte(`{"spec":{"mix":[],"controller":"","scale":""}}`),
		[]byte(`{"spec":null,"status":"running","error":"e"}`),
		[]byte(`{"spec":{"mix":["a","b"],"controller":"c"},"spec":{"mix":[null,"é"]}}`),
		[]byte(`{"spec":{"mix":["a"],"controller":"c","scale":"tiny"},"cell":"broken"}`),
		[]byte(` null `),
	}
	corpus = append(corpus, streamFixture(t)...)
	for _, first := range corpus {
		for _, second := range corpus {
			var d Decoder
			d.Parse(first)
			got, err := d.Parse(second)
			want, wantErr := ParseLine(second)
			if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s, the decoder read %s as %+v (%v); ParseLine as %+v (%v)", first, second, got, err, want, wantErr)
			}
		}
	}

	var d Decoder
	a, _ := d.Parse(corpus[0])
	b, _ := d.Parse(corpus[1])
	if unsafe.StringData(a.Event.Spec.Mix[0]) != unsafe.StringData(b.Event.Spec.Mix[0]) ||
		unsafe.StringData(a.Event.Spec.Controller) != unsafe.StringData(b.Event.Spec.Controller) ||
		unsafe.StringData(a.Event.Spec.Scale) != unsafe.StringData(b.Event.Spec.Scale) {
		t.Error("a repeated mix name, controller or scale was copied again")
	}
	if &a.Event.Spec.Mix[0] == &b.Event.Spec.Mix[0] || unsafe.StringData(a.Event.Key) == unsafe.StringData(b.Event.Key) {
		t.Error("two events share a mix slice or a key")
	}
}
