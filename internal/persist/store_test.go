package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"micromama/internal/faultinject"
	"micromama/internal/telemetry"
)

type rec struct {
	ID string `json:"id"`
	N  int    `json:"n"`
}

func open(t *testing.T, dir string) (*Store[rec], Metrics) {
	t.Helper()
	m := NewMetrics(telemetry.NewRegistry(), "t", "test records")
	s, err := Open(Options[rec]{
		Dir: dir, What: "test", Key: func(r rec) string { return r.ID }, Metrics: m,
		WriteFault: faultinject.New("persist/test/write"),
		ReadFault:  faultinject.New("persist/test/read"),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// TestLatestSnapshotWins: many saves of one key leave one record holding
// the last of them, Close is the flush barrier, and a reload returns
// every record in key order while quarantining what it cannot read and
// what its owner refuses, and setting a *.json file aside unread.
func TestLatestSnapshotWins(t *testing.T) {
	dir := t.TempDir()
	s, m := open(t, dir)
	for n := 1; n <= 100; n++ {
		s.Save(rec{ID: "b", N: n})
	}
	s.Save(rec{ID: "a", N: 7})
	s.Close()
	s.Close()            // idempotent
	s.Save(rec{ID: "c"}) // after Close: dropped, not a panic
	if w := m.Writes.Value(); w < 2 || w > 101 {
		t.Errorf("writes = %d, want between 2 (fully coalesced) and 101", w)
	}
	damaged := `{"id":"","n":3}` + "\n" + `{"id":"y","n":-1}` + "\n"
	if err := appendFile(filepath.Join(dir, LogName), []byte(damaged)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "z.json"), []byte(`{"id":"z"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, m2 := open(t, dir)
	defer s2.Close()
	var got []rec
	s2.Load(func(r rec) error {
		if r.N < 0 {
			return fmt.Errorf("negative n")
		}
		got = append(got, r)
		return nil
	})
	if len(got) != 2 || got[0] != (rec{"a", 7}) || got[1] != (rec{"b", 100}) {
		t.Errorf("reloaded %+v, want a=7 then b=100", got)
	}
	if m2.Loaded.Value() != 2 || m2.Quarantined.Value() != 2 || m2.SetAside.Value() != 1 {
		t.Errorf("loaded/quarantined/set aside = %d/%d/%d, want 2/2/1", m2.Loaded.Value(), m2.Quarantined.Value(), m2.SetAside.Value())
	}
	if q, _ := os.ReadFile(filepath.Join(dir, quarantineName)); string(q) != damaged {
		t.Errorf("quarantined %q, want the keyless and the refused record %q", q, damaged)
	}
	if b, err := os.ReadFile(filepath.Join(dir, setAsideDir, "z.json")); string(b) != `{"id":"z"}` {
		t.Errorf("z.json set aside as %q (%v), want its bytes", b, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "z.json")); !os.IsNotExist(err) {
		t.Errorf("z.json left in place: %v", err)
	}
}

// TestNilStoreKeepsNothing: the owner without a directory holds a nil
// store and calls it unconditionally.
func TestNilStoreKeepsNothing(t *testing.T) {
	var s *Store[rec]
	s.Save(rec{ID: "a"})
	s.Close()
}

// loadAll loads s, keeping every record, and returns them in the order
// Load handed them over.
func loadAll(s *Store[rec]) []rec {
	var got []rec
	s.Load(func(r rec) error { got = append(got, r); return nil })
	return got
}

// stamp is the first line, without its newline, of the log of a store
// that open makes.
const stamp = `{"format":1,"epoch":0}`

// writeLog makes dir's log hold exactly b after its stamp.
func writeLog(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, LogName), append([]byte(stamp+"\n"), b...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readLog returns what dir's log holds after its stamp.
func readLog(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := bytes.CutPrefix(b, []byte(stamp+"\n"))
	if !ok {
		t.Fatalf("the log does not open with its stamp: %q", b)
	}
	return body
}

// TestTornTailLosesOnlyTheTornRecord: a crash mid-append cuts the log's
// last line at any offset. A restart loads every earlier record and
// quarantines at most the cut one, and what it appends next — after
// Load, or with no Load at all — is not glued to the cut bytes.
func TestTornTailLosesOnlyTheTornRecord(t *testing.T) {
	src := t.TempDir()
	s, _ := open(t, src)
	for _, id := range []string{"a", "b", "c", "d"} {
		s.Save(rec{ID: id, N: len(id)})
	}
	s.Close()
	s, _ = open(t, src)
	s.Save(rec{ID: "e", N: 12345})
	s.Close()
	full := readLog(t, src)
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	if string(full[last:]) != `{"id":"e","n":12345}`+"\n" {
		t.Fatalf("log ends in %q, want e's line", full[last:])
	}
	for cut := last; cut < len(full); cut++ {
		dir := t.TempDir()
		writeLog(t, dir, full[:cut])
		s, m := open(t, dir)
		got := loadAll(s)
		s.Save(rec{ID: "f", N: 6})
		s.Close()
		earlier := []rec{{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}}
		whole := cut == len(full)-1 // only the newline is missing
		if whole {
			earlier = append(earlier, rec{"e", 12345})
		}
		if !reflect.DeepEqual(got, earlier) {
			t.Fatalf("cut at %d: loaded %+v, want %+v", cut, got, earlier)
		}
		if q := m.Quarantined.Value(); q > 1 || (q == 1) != (cut > last && !whole) {
			t.Fatalf("cut at %d: quarantined %d", cut, q)
		}
		s, m = open(t, dir)
		again := loadAll(s)
		s.Close()
		if want := append(earlier, rec{"f", 6}); !reflect.DeepEqual(again, want) || m.Quarantined.Value() != 0 {
			t.Fatalf("cut at %d: after an append, a restart loaded %+v (quarantined %d), want %+v",
				cut, again, m.Quarantined.Value(), want)
		}

		writeLog(t, dir, full[:cut])
		s, _ = open(t, dir)
		s.Save(rec{ID: "f", N: 6}) // appended to the cut log as it is
		s.Close()
		s, _ = open(t, dir)
		again = loadAll(s)
		s.Close()
		if want := append(earlier, rec{"f", 6}); !reflect.DeepEqual(again, want) {
			t.Fatalf("cut at %d: after an append without Load, a restart loaded %+v, want %+v", cut, again, want)
		}
	}
}

// TestLoadBoundsTheLog: a running store never compacts, so keys saved
// over and over leave every line they wrote in the log; the next Load
// hands over each key's last line and rewrites the log to those lines
// alone. A log whose records are all live is never rewritten.
func TestLoadBoundsTheLog(t *testing.T) {
	dir := t.TempDir()
	s, m := open(t, dir)
	s.Load(func(rec) error { return nil })
	const keys = 10
	for n := 1000; n < 1100; n++ {
		for k := range keys {
			s.Save(rec{ID: fmt.Sprint("k", k), N: n})
		}
		time.Sleep(time.Microsecond) // let batches stay small
	}
	s.Close()
	if n := bytes.Count(readLog(t, dir), []byte("\n")); uint64(n) != m.Writes.Value() || n <= keys {
		t.Errorf("the log holds %d lines after %d writes of %d keys, want every write", n, m.Writes.Value(), keys)
	}
	s, _ = open(t, dir)
	got := loadAll(s)
	s.Close()
	var live bytes.Buffer
	for k := range keys {
		if k >= len(got) || got[k] != (rec{fmt.Sprint("k", k), 1099}) {
			t.Fatalf("reloaded %+v, want each key at 1099", got)
		}
		fmt.Fprintf(&live, "{\"id\":\"k%d\",\"n\":1099}\n", k)
	}
	if b := readLog(t, dir); !bytes.Equal(b, live.Bytes()) {
		t.Errorf("after Load the log is\n%s\nwant its live lines\n%s", b, live.Bytes())
	}

	dir = t.TempDir()
	s, _ = open(t, dir)
	s.Save(rec{ID: "k0000"})
	s.Close()
	before, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	s, _ = open(t, dir)
	loadAll(s)
	for k := 1; k < 1000; k++ {
		s.Save(rec{ID: fmt.Sprintf("k%04d", k)})
	}
	s.Close()
	after, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("a log of live records was rewritten")
	}
	s, _ = open(t, dir)
	if got := loadAll(s); len(got) != 1000 {
		t.Errorf("reloaded %d records, want 1000", len(got))
	}
	s.Close()
}

// TestSetAsideKeepsEveryFile: a log of another epoch and a *.json file
// are set aside unread by every start that finds them, and what an
// earlier start set aside under the same name stays: nothing is lost.
func TestSetAsideKeepsEveryFile(t *testing.T) {
	dir := t.TempDir()
	const other = `{"format":1,"epoch":1}` + "\n"
	body := func(n int) string { return fmt.Sprintf(`{"id":"a","n":%d}`+"\n", n) }
	for n := range 3 {
		if err := os.WriteFile(filepath.Join(dir, LogName), []byte(other+body(n)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "a.json"), []byte(body(n)), 0o644); err != nil {
			t.Fatal(err)
		}
		s, m := open(t, dir)
		if got := loadAll(s); len(got) != 0 || m.SetAside.Value() != 2 {
			t.Errorf("start %d loaded %+v and set aside %d files, want nothing and 2", n, got, m.SetAside.Value())
		}
		s.Close()
	}
	for n, suffix := range []string{"", ".1", ".2"} {
		for name, want := range map[string]string{LogName: other + body(n), "a.json": body(n)} {
			if b, err := os.ReadFile(filepath.Join(dir, setAsideDir, name+suffix)); string(b) != want {
				t.Errorf("%s%s holds %q (%v), want %q", name, suffix, b, err, want)
			}
		}
	}
}

// FuzzStoreLog takes any bytes as a store's log. Load never panics. A
// log whose first line is not the stamp is set aside byte for byte and
// nothing loads. In a stamped log every non-empty line after the stamp
// either decodes to a record claiming a key, and that key loads with its
// last such line's value, or is quarantined, byte for byte. Either way a
// save on top of what loaded survives a restart with everything else.
func FuzzStoreLog(f *testing.F) {
	for _, log := range []string{
		`{"id":"a","n":1}` + "\n" + `{"id":"b","n":2}` + "\n",
		`{"id":"a","n":1}` + "\n" + `{"id":"a","n":2}` + "\n" + `{"id":"a","n":`,
		"\n\nnull\n{}\n{\"id\":\"\"}\n  {\"id\":\"x\"}  \r\n{\"id\":\"y\",\"n\":1.5}",
		`{"id":"fuzz","n":-7}` + "\n" + `[1,2]` + "\n" + `{"id":"é\ud800"}`,
	} {
		f.Add([]byte(stamp + "\n" + log))
	}
	f.Add([]byte(`{"id":"a","n":1}` + "\n"))                            // an older build's log
	f.Add([]byte(`{"format":1,"epoch":1}` + "\n" + `{"id":"a","n":1}`)) // another epoch's
	f.Add([]byte(stamp))                                                // a torn stamp
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, body, _ := bytes.Cut(data, []byte("\n"))
		stamped := string(first) == stamp
		want := map[string]rec{}
		var bad []byte
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(line) == 0 || !stamped {
				continue
			}
			var r rec
			if err := json.Unmarshal(line, &r); err != nil || r.ID == "" {
				bad = append(append(bad, line...), '\n')
				continue
			}
			want[r.ID] = r
		}
		s, m := open(t, dir)
		got := map[string]rec{}
		s.Load(func(r rec) error { got[r.ID] = r; return nil })
		s.Save(rec{ID: "fuzz", N: 1})
		s.Close()
		if !reflect.DeepEqual(got, want) || m.Loaded.Value() != uint64(len(want)) {
			t.Fatalf("loaded %+v (%d), want %+v", got, m.Loaded.Value(), want)
		}
		q, _ := os.ReadFile(filepath.Join(dir, quarantineName))
		if !bytes.Equal(q, bad) || m.Quarantined.Value() != uint64(bytes.Count(bad, []byte("\n"))) {
			t.Fatalf("quarantined %q (%d), want %q", q, m.Quarantined.Value(), bad)
		}
		aside, err := os.ReadFile(filepath.Join(dir, setAsideDir, LogName))
		if stamped || len(data) == 0 {
			if err == nil || m.SetAside.Value() != 0 {
				t.Fatalf("a stamped or empty log was set aside (%d): %q", m.SetAside.Value(), aside)
			}
		} else if !bytes.Equal(aside, data) || m.SetAside.Value() != 1 {
			t.Fatalf("set aside %q (%d, %v), want the unstamped log %q", aside, m.SetAside.Value(), err, data)
		}

		want["fuzz"] = rec{ID: "fuzz", N: 1}
		s, m = open(t, dir)
		got = map[string]rec{}
		s.Load(func(r rec) error { got[r.ID] = r; return nil })
		s.Close()
		if !reflect.DeepEqual(got, want) || m.Quarantined.Value() != 0 || m.SetAside.Value() != 0 {
			t.Fatalf("after a save, a restart loaded %+v (quarantined %d, set aside %d), want %+v",
				got, m.Quarantined.Value(), m.SetAside.Value(), want)
		}
	})
}
