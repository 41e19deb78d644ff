package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"
)

func equalInstrs(t *testing.T, what string, got, want []Instr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// The run count lives in what was padding: slab budgets, the 18-byte
// file record and every benchmark figure quoted per instruction assume
// a 24-byte record.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 24", got)
	}
}

// appendExpanded appends every record of a packed block Run+1 times.
func appendExpanded(out, blk []Instr) []Instr {
	for _, rec := range blk {
		n := int(rec.Run) + 1
		rec.Run = 0
		for i := 0; i < n; i++ {
			out = append(out, rec)
		}
	}
	return out
}

// expandPacked reads the rest of r through NextPacked, expanded.
func expandPacked(r PackedReader, max int) []Instr {
	var out []Instr
	for blk := r.NextPacked(max); len(blk) > 0; blk = r.NextPacked(max) {
		out = appendExpanded(out, blk)
	}
	return out
}

// checkSurfaces reads a whole trace through each read surface of r, and
// through all of them interleaved, and checks every reading against
// want. r must be at its start; it is left Reset.
func checkSurfaces(t *testing.T, what string, r Reader, want []Instr) {
	t.Helper()
	equalInstrs(t, what+" Next", drain(r), want)
	r.Reset()

	br := r.(BatchReader)
	var got []Instr
	buf := make([]Instr, 37)
	for n := br.ReadBatch(buf); n > 0; n = br.ReadBatch(buf) {
		got = append(got, buf[:n]...)
	}
	equalInstrs(t, what+" ReadBatch", got, want)
	r.Reset()

	bl := r.(BlockReader)
	got = got[:0]
	for blk := bl.NextBlock(256); len(blk) > 0; blk = bl.NextBlock(256) {
		got = append(got, blk...)
	}
	equalInstrs(t, what+" NextBlock", got, want)
	r.Reset()

	pr := r.(PackedReader)
	equalInstrs(t, what+" NextPacked", expandPacked(pr, 256), want)
	r.Reset()

	// Interleaved: a surface may leave a run half delivered for the next.
	got = got[:0]
	for step := 0; ; step++ {
		before := len(got)
		switch step % 4 {
		case 0:
			if ins, ok := r.Next(); ok {
				got = append(got, ins)
			}
		case 1:
			got = append(got, buf[:br.ReadBatch(buf[:5])]...)
		case 2:
			got = append(got, bl.NextBlock(3)...)
		case 3:
			got = appendExpanded(got, pr.NextPacked(2))
		}
		if len(got) == before {
			break
		}
	}
	equalInstrs(t, what+" interleaved", got, want)
	r.Reset()
}

// Every read surface of a packed slab — Materialized, pooled, and
// pooled under a per-trace cap that leaves most of the trace to tail
// streaming — delivers the generator's sequence, for every generator
// class.
func TestPackedSurfacesMatchGenerator(t *testing.T) {
	for i, g := range generators() {
		want := drain(g)
		g.Reset()
		factory := func() Reader { return generators()[i] }

		m := Materialize(g, 0)
		if m.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", g.Name(), m.Len(), len(want))
		}
		checkSurfaces(t, g.Name()+" materialized", m.Replay(), want)

		pool := NewPool(1<<30, 0)
		checkSurfaces(t, g.Name()+" pooled", pool.Shared(g.Name(), factory), want)
		if st := pool.Stats(); st.Instructions != int64(len(want)) || st.UsedBytes >= int64(len(want))*instrFootprint {
			t.Errorf("%s: pool holds %d instructions in %d bytes, want %d in fewer than %d",
				g.Name(), st.Instructions, st.UsedBytes, len(want), int64(len(want))*instrFootprint)
		}

		capped := NewPool(1<<30, 300*instrFootprint)
		first := capped.Shared(g.Name(), factory)  // inherits the entry's generator at the frontier
		second := capped.Shared(g.Name(), factory) // rebuilds one and skips the prefix
		checkSurfaces(t, g.Name()+" capped", first, want)
		checkSurfaces(t, g.Name()+" capped, second reader", second, want)
		st := capped.Stats()
		if st.UsedBytes != 300*instrFootprint || st.Instructions <= 300 || st.Instructions >= int64(len(want)) {
			t.Errorf("%s: capped pool holds %d instructions in %d bytes, want between 300 and %d in %d",
				g.Name(), st.Instructions, st.UsedBytes, len(want), 300*instrFootprint)
		}
		if st.TailStreams == 0 {
			t.Errorf("%s: no reader streamed the tail of a capped slab", g.Name())
		}
	}
}

// The packing rule: only byte-identical Kind Other neighbours merge.
func TestPackRule(t *testing.T) {
	other := Instr{PC: 0x1000}
	load := Instr{PC: 0x2000, Addr: 0x40, Kind: Load}
	cases := []struct {
		name string
		in   []Instr
		want []Instr
	}{
		{"run", []Instr{other, other, other}, []Instr{{PC: 0x1000, Run: 2}}},
		{"loads never merge", []Instr{load, load}, []Instr{load, load}},
		{"stores never merge", []Instr{{PC: 1, Kind: Store}, {PC: 1, Kind: Store}}, []Instr{{PC: 1, Kind: Store}, {PC: 1, Kind: Store}}},
		{"split by a load", []Instr{other, other, load, other}, []Instr{{PC: 0x1000, Run: 1}, load, other}},
		{"differing PC", []Instr{other, {PC: 0x1004}}, []Instr{other, {PC: 0x1004}}},
		{"differing Addr", []Instr{other, {PC: 0x1000, Addr: 8}}, []Instr{other, {PC: 0x1000, Addr: 8}}},
		{"differing Flags", []Instr{other, {PC: 0x1000, Flags: DependsPrev}}, []Instr{other, {PC: 0x1000, Flags: DependsPrev}}},
		{"load then identical-PC other", []Instr{{PC: 0x1000, Kind: Load}, other}, []Instr{{PC: 0x1000, Kind: Load}, other}},
	}
	for _, tc := range cases {
		m := NewMaterialized(tc.name, tc.in)
		if fmt.Sprint(m.recs) != fmt.Sprint(tc.want) {
			t.Errorf("%s: packed %+v, want %+v", tc.name, m.recs, tc.want)
		}
		equalInstrs(t, tc.name, drain(m.Replay()), tc.in)
	}
}

// runTrace is a trace whose slab frontier is easy to place: a load,
// then run non-memory instructions, repeated.
func runTrace(groups, run int) []Instr {
	var ins []Instr
	for g := 0; g < groups; g++ {
		ins = append(ins, Instr{PC: 0x2000, Addr: uint64(g) * 64, Kind: Load})
		for i := 0; i < run; i++ {
			ins = append(ins, Instr{PC: 0x1000})
		}
	}
	return ins
}

// A slab grows in chunks of extendChunk instructions, a run is cut at
// the chunk boundary rather than merged into a published record, and
// the byte accounting is the records actually held.
func TestPoolChunksCountInstructions(t *testing.T) {
	want := runTrace(3, extendChunk) // three runs, each straddling a chunk boundary
	pool := NewPool(1<<30, 0)
	r := pool.Shared("runs", func() Reader { return NewSlice("runs", want) }).(*sharedReplay)

	r.Next()
	snap := r.sh.snap.Load()
	if snap.n != extendChunk || len(snap.recs) != 2 {
		t.Fatalf("after one read the slab holds %d instructions in %d records, want %d in 2", snap.n, len(snap.recs), extendChunk)
	}
	r.Reset()
	equalInstrs(t, "chunked", drain(r), want)
	snap = r.sh.snap.Load()
	// Per chunk boundary one cut; the three loads; the three run heads.
	if !snap.done || snap.n != len(want) || len(snap.recs) != 9 {
		t.Fatalf("whole slab: done=%v, %d instructions in %d records, want %d in 9", snap.done, snap.n, len(snap.recs), len(want))
	}
	if st := pool.Stats(); st.UsedBytes != 9*instrFootprint || st.Instructions != int64(len(want)) {
		t.Fatalf("stats %+v, want %d bytes, %d instructions", st, 9*instrFootprint, len(want))
	}
}

// A cap that falls inside a run: the slab ends on a record that stands
// for part of the run, and tail streaming resumes at exactly the next
// instruction, for the reader that inherits the generator and for one
// that rebuilds it.
func TestPoolCapInsideRun(t *testing.T) {
	want := runTrace(40, 100)
	for _, recs := range []int64{1, 2, 3, 7} {
		// An odd cap ends the slab on a load; an even one on a run head
		// whose followers the budget no longer admits.
		pool := NewPool(1<<30, recs*instrFootprint)
		factory := func() Reader { return NewSlice("runs", want) }
		a, b := pool.Shared("runs", factory), pool.Shared("runs", factory)
		checkSurfaces(t, fmt.Sprintf("cap %d first", recs), a, want)
		checkSurfaces(t, fmt.Sprintf("cap %d second", recs), b, want)
		snap := a.(*sharedReplay).sh.snap.Load()
		if !snap.capped || int64(len(snap.recs)) != recs {
			t.Fatalf("cap %d: capped=%v with %d records", recs, snap.capped, len(snap.recs))
		}
	}
}

// Readers at different speeds over a slab that grows by many chunks:
// under -race this is what shows a published record being written.
func TestPoolConcurrentGrowth(t *testing.T) {
	gen := func() Reader {
		return NewStream("s", StreamConfig{Seed: 9, MemRatio: 0.05, StoreRatio: 0.2, Length: 5 * extendChunk})
	}
	want := drain(gen())
	pool := NewPool(1<<30, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		r := pool.Shared("s", gen).(PackedReader)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := expandPacked(r, 1+w*100)
			if len(got) != len(want) {
				errs <- fmt.Errorf("reader %d: %d instructions, want %d", w, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("reader %d: instruction %d = %+v, want %+v", w, i, got[i], want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// SaveMaterialized writes a packed slab as plain MMT1: one 18-byte
// record per instruction, the same header, no version bump.
func TestMaterializedFileFormatUnchanged(t *testing.T) {
	want := runTrace(5, 50)
	m := NewMaterialized("fmt", want)
	if len(m.recs) >= len(want)/10 {
		t.Fatalf("slab of %d records for %d instructions is not packed", len(m.recs), len(want))
	}
	path := filepath.Join(t.TempDir(), "fmt.mmt")
	if err := SaveMaterialized(path, m); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := 4 + 2 + len("fmt") + 8
	if string(raw[:4]) != "MMT1" || len(raw) != header+recordBytes*len(want) {
		t.Fatalf("file is %d bytes with magic %q, want %d with MMT1", len(raw), raw[:4], header+recordBytes*len(want))
	}
	if n := binary.LittleEndian.Uint64(raw[header-8:]); n != uint64(len(want)) {
		t.Fatalf("header counts %d records, want %d", n, len(want))
	}
	got, err := LoadMaterialized(path)
	if err != nil {
		t.Fatal(err)
	}
	equalInstrs(t, "reloaded", drain(got.Replay()), want)
	if fmt.Sprint(got.recs) != fmt.Sprint(m.recs) {
		t.Fatal("a reloaded slab packs differently from the one saved")
	}
}

// fuzzInstrs decodes fuzz bytes into a sequence over a small alphabet,
// so that runs, near-runs and memory records all occur.
func fuzzInstrs(data []byte) []Instr {
	ins := make([]Instr, len(data))
	for i, b := range data {
		ins[i] = Instr{
			PC:    0x1000 + uint64(b>>2&1)*4,
			Addr:  uint64(b >> 3 & 1),
			Kind:  Kind(b & 3 % 3),
			Flags: Flags(b >> 4 & 1),
		}
	}
	return ins
}

// FuzzPackRoundTrip: packing then expanding is the identity on any
// sequence, through every surface, and the packed form is canonical —
// runs hold only Kind Other, and no two neighbours could have merged.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 4, 0, 8, 0, 16, 0, 2, 2})
	f.Add([]byte{1, 1, 2, 2, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		want := fuzzInstrs(data)
		m := NewMaterialized("fuzz", want)
		checkSurfaces(t, "fuzz", m.Replay(), want)
		total := 0
		for i, rec := range m.recs {
			total += int(rec.Run) + 1
			if rec.Run > 0 && rec.Kind != Other {
				t.Fatalf("record %d %+v: a run of memory instructions", i, rec)
			}
			if i > 0 && rec.Kind == Other {
				prev := m.recs[i-1]
				prev.Run, rec.Run = 0, 0
				if prev == rec {
					t.Fatalf("records %d and %d are identical and were not merged", i-1, i)
				}
			}
		}
		if total != len(want) || m.Len() != len(want) {
			t.Fatalf("slab stands for %d instructions, Len %d, want %d", total, m.Len(), len(want))
		}
	})
}

// FuzzLoadMaterialized: the MMT1 loader returns an error or a slab that
// holds exactly the records the header counted, on any bytes — it never
// panics and never sizes an allocation from the header.
func FuzzLoadMaterialized(f *testing.F) {
	dir := f.TempDir()
	good := filepath.Join(dir, "good.mmt")
	if err := SaveMaterialized(good, NewMaterialized("seed", runTrace(3, 4))); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-7])                                                               // truncated mid-record
	f.Add(append([]byte("MMT1\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)) // 2^63 records claimed
	f.Add([]byte("MMT1\xff\xffshort name"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.mmt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := LoadMaterialized(path)
		if err != nil {
			return
		}
		header := 4 + 2 + len(m.Name()) + 8
		if want := binary.LittleEndian.Uint64(data[header-8:]); uint64(m.Len()) != want || len(data) < header+recordBytes*m.Len() {
			t.Fatalf("loaded %d instructions from %d bytes whose header counts %d", m.Len(), len(data), want)
		}
		// What was loaded survives a save and a second load.
		again := filepath.Join(t.TempDir(), "again.mmt")
		if err := SaveMaterialized(again, m); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadMaterialized(again)
		if err != nil {
			t.Fatal(err)
		}
		equalInstrs(t, "second load", drain(m2.Replay()), drain(m.Replay()))
	})
}
