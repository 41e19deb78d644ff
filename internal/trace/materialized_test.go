package trace

import (
	"fmt"
	"path/filepath"
	"testing"
)

// Materialized replay must emit exactly the streaming generator's
// sequence, for every generator class, across two full loops.
func TestMaterializedEquivalence(t *testing.T) {
	for _, g := range generators() {
		want := drain(g)
		g.Reset()
		m := Materialize(g, 0)
		if m.Len() != len(want) {
			t.Fatalf("%s: materialized %d records, want %d", g.Name(), m.Len(), len(want))
		}
		r := m.Replay()
		for loop := 0; loop < 2; loop++ {
			got := drain(r)
			if len(got) != len(want) {
				t.Fatalf("%s loop %d: replayed %d records, want %d", g.Name(), loop, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s loop %d: record %d = %+v, want %+v", g.Name(), loop, i, got[i], want[i])
				}
			}
			r.Reset()
		}
	}
}

func TestMaterializeTruncates(t *testing.T) {
	g := NewCompute("k", ComputeConfig{Seed: 5, MemRatio: 0.2, Length: 5000})
	m := Materialize(g, 100)
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	if got := drain(m.Replay()); len(got) != 100 {
		t.Fatalf("replayed %d records, want 100", len(got))
	}
}

// NextBlock must walk the same sequence as Next, in any block size,
// and report exhaustion as an empty block.
func TestReplayBatchForms(t *testing.T) {
	g := NewStride("st", StrideConfig{Seed: 2, Strides: []uint64{128, 384}, MemRatio: 0.3, Length: 777})
	want := drain(g)
	r := NewMaterialized("st", want).Replay()
	for _, max := range []int{1, 7, 100, 1000} {
		var got []Instr
		for blk := r.NextBlock(max); len(blk) > 0; blk = r.NextBlock(max) {
			got = append(got, blk...)
		}
		equalInstrs(t, fmt.Sprintf("NextBlock(%d)", max), got, want)
		r.Reset()
	}
}

// A materialized trace must survive a save/load round trip through the
// MMT1 file format bit-identically.
func TestMaterializedFileRoundTrip(t *testing.T) {
	g := NewGraph("g", GraphConfig{Seed: 4, MemRatio: 0.3, GatherMemRatio: 0.1, ScanPhase: 500, GatherPhase: 500, Length: 3000})
	m := Materialize(g, 0)

	path := filepath.Join(t.TempDir(), "g.mmt")
	if err := SaveMaterialized(path, m); err != nil {
		t.Fatalf("SaveMaterialized: %v", err)
	}
	got, err := LoadMaterialized(path)
	if err != nil {
		t.Fatalf("LoadMaterialized: %v", err)
	}
	if got.Name() != m.Name() {
		t.Fatalf("name = %q, want %q", got.Name(), m.Name())
	}
	if got.Len() != m.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), m.Len())
	}
	equalInstrs(t, "loaded", drain(got.Replay()), drain(m.Replay()))
}

// FileTrace.ReadBatch must decode the same records Next does.
func TestFileTraceReadBatch(t *testing.T) {
	g := NewChase("c", ChaseConfig{Seed: 3, MemRatio: 0.3, LocalRatio: 0.5, Length: 1000})
	want := drain(g)
	g.Reset()

	path := filepath.Join(t.TempDir(), "c.mmt")
	if _, err := WriteFile(path, g, 0); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer ft.Close()

	var got []Instr
	buf := make([]Instr, 33)
	for {
		n := ft.ReadBatch(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
