package persist

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

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
