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
	"runtime"
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

// TestLatestSnapshotWins: many saves of one key leave one file holding
// the last of them, Close is the flush barrier, and a reload returns
// every record in key order while quarantining what it cannot read and
// what its owner refuses.
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
	if err := os.WriteFile(filepath.Join(dir, "z.json"), []byte(`{"id":"not-z"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "y.json"), []byte(`{"id":"y","n":-1}`), 0o644); err != nil {
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
	if m2.Loaded.Value() != 2 || m2.Quarantined.Value() != 2 {
		t.Errorf("loaded/quarantined = %d/%d, want 2/2", m2.Loaded.Value(), m2.Quarantined.Value())
	}
	for _, name := range []string{"z.json.quarantine", "y.json.quarantine"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("mismatched or refused record not quarantined: %v", err)
		}
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

// writeLog makes dir's log hold exactly b.
func writeLog(t *testing.T, dir string, b []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, LogName), b, 0o644); err != nil {
		t.Fatal(err)
	}
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
	full, err := os.ReadFile(filepath.Join(src, LogName))
	if err != nil {
		t.Fatal(err)
	}
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

// TestSaveDuringLoadIsKept: an owner saves from inside Load (the sweep
// manager re-saves every sweep it resumes) while Load is about to
// rewrite the log. The save reaches the rewritten log, not the one the
// rewrite replaces.
func TestSaveDuringLoadIsKept(t *testing.T) {
	dir := t.TempDir()
	// A superseded line, so that Load rewrites the log.
	writeLog(t, dir, []byte(`{"id":"a","n":1}`+"\n"+`{"id":"a","n":2}`+"\n"))
	s, m := open(t, dir)
	s.Load(func(r rec) error {
		s.Save(rec{ID: r.ID, N: r.N + 1})
		// Wait for the writer to take the save, then give a writer that
		// did not wait for Load up to 20 ms to append it; this one never
		// appends before Load returns.
		for taken := false; !taken; runtime.Gosched() {
			s.mu.Lock()
			taken = len(s.dirty) == 0
			s.mu.Unlock()
		}
		for end := time.Now().Add(20 * time.Millisecond); m.Writes.Value() == 0 && time.Now().Before(end); runtime.Gosched() {
		}
		return nil
	})
	s.Close()
	s, _ = open(t, dir)
	defer s.Close()
	if got := loadAll(s); !reflect.DeepEqual(got, []rec{{"a", 3}}) {
		t.Errorf("restart loaded %+v, want the save made during Load, a=3", got)
	}
}

// TestCompactionBoundsTheLog: keys saved over and over leave a log
// within twice its live bytes plus one batch, whenever it is looked at;
// a log whose records are all live is never rewritten.
func TestCompactionBoundsTheLog(t *testing.T) {
	dir := t.TempDir()
	s, m := open(t, dir)
	s.Load(func(rec) error { return nil })
	const keys = 10
	line := int64(len(`{"id":"k0","n":1000}` + "\n")) // every line is this long
	bound := 2*keys*line + keys*line
	for n := 1000; n < 2000; n++ {
		for k := range keys {
			s.Save(rec{ID: fmt.Sprint("k", k), N: n})
		}
		time.Sleep(time.Microsecond) // let batches stay small
		if fi, err := os.Stat(filepath.Join(dir, LogName)); err == nil && fi.Size() > bound {
			t.Fatalf("log is %d bytes, bound %d", fi.Size(), bound)
		}
	}
	s.Close()
	fi, err := os.Stat(filepath.Join(dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if w := m.Writes.Value(); int64(w)*line <= bound {
		t.Skipf("only %d lines written; the bound does not show compaction", w)
	}
	if fi.Size() > bound {
		t.Errorf("log is %d bytes after %d lines, bound %d", fi.Size(), m.Writes.Value(), bound)
	}
	s, _ = open(t, dir)
	got := loadAll(s)
	s.Close()
	if len(got) != keys || got[0] != (rec{"k0", 1999}) || got[keys-1] != (rec{"k9", 1999}) {
		t.Errorf("reloaded %+v, want each key at 1999", got)
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

// TestLegacyLayoutImported: the one-file-per-record layout the log
// replaced loads as it did — a good file loads, and a torn, mismatched
// or refused one is renamed aside and counted — and is then folded into
// the log: a second start finds no <key>.json file and loads the same
// records from the log alone.
func TestLegacyLayoutImported(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"good":     `{"id":"good", "n": 1}` + "\n", // as a person might write it
		"torn":     `{"id":"torn","n":`,
		"mismatch": `{"id":"other","n":1}`,
		"refused":  `{"id":"refused","n":-1}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A log line for the good key, older than its file.
	writeLog(t, dir, []byte(`{"id":"good","n":0}`+"\n"+`{"id":"logged","n":2}`+"\n"))
	refuse := func(r rec) error {
		if r.N < 0 {
			return fmt.Errorf("negative n")
		}
		return nil
	}
	want := []rec{{"good", 1}, {"logged", 2}}
	for start := 1; start <= 2; start++ {
		s, m := open(t, dir)
		var got []rec
		s.Load(func(r rec) error {
			if err := refuse(r); err != nil {
				return err
			}
			got = append(got, r)
			return nil
		})
		s.Close()
		wantQ := uint64(3)
		if start == 2 {
			wantQ = 0
		}
		if !reflect.DeepEqual(got, want) || m.Loaded.Value() != 2 || m.Quarantined.Value() != wantQ {
			t.Errorf("start %d: loaded %+v (%d), quarantined %d; want %+v, %d quarantined",
				start, got, m.Loaded.Value(), m.Quarantined.Value(), want, wantQ)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 0 {
			t.Errorf("start %d: imported files left behind: %v", start, files)
		}
		for _, name := range []string{"torn", "mismatch", "refused"} {
			if _, err := os.Stat(filepath.Join(dir, name+".json.quarantine")); err != nil {
				t.Errorf("start %d: %s.json not quarantined: %v", start, name, err)
			}
		}
	}
	b, _ := os.ReadFile(filepath.Join(dir, LogName))
	if string(b) != `{"id":"good","n":1}`+"\n"+`{"id":"logged","n":2}`+"\n" {
		t.Errorf("log is %q, want one compact line per record", b)
	}
}

// FuzzStoreLog takes any bytes as a store's log. Load never panics;
// every non-empty line either decodes to a record claiming a key, and
// that key loads with its last such line's value, or is quarantined,
// byte for byte; and a save on top of what loaded survives a restart
// with everything else.
func FuzzStoreLog(f *testing.F) {
	f.Add([]byte(`{"id":"a","n":1}` + "\n" + `{"id":"b","n":2}` + "\n"))
	f.Add([]byte(`{"id":"a","n":1}` + "\n" + `{"id":"a","n":2}` + "\n" + `{"id":"a","n":`))
	f.Add([]byte("\n\nnull\n{}\n{\"id\":\"\"}\n  {\"id\":\"x\"}  \r\n{\"id\":\"y\",\"n\":1.5}"))
	f.Add([]byte(`{"id":"fuzz","n":-7}` + "\n" + `[1,2]` + "\n" + `{"id":"é\ud800"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		writeLog(t, dir, data)
		want := map[string]rec{}
		var bad []byte
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
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

		want["fuzz"] = rec{ID: "fuzz", N: 1}
		s, m = open(t, dir)
		got = map[string]rec{}
		s.Load(func(r rec) error { got[r.ID] = r; return nil })
		s.Close()
		if !reflect.DeepEqual(got, want) || m.Quarantined.Value() != 0 {
			t.Fatalf("after a save, a restart loaded %+v (quarantined %d), want %+v", got, m.Quarantined.Value(), want)
		}
	})
}
