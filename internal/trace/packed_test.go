package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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

// A record is 8 bytes: every slab and batch holds records, so a field
// added to Rec regrows all of them, and slab budgets and every
// benchmark figure quoted per instruction assume this size.
func TestRecSize(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got != 8 {
		t.Fatalf("unsafe.Sizeof(Rec{}) = %d, want 8", got)
	}
}

// packedRec is the record of ins with a run of run idle instructions.
func packedRec(ins Instr, run uint16) Rec {
	rec := appendPacked(nil, 0, ins)[0]
	rec.bits |= run
	return rec
}

// appendExpanded appends every record of a packed block as its head and
// then Run idle instructions.
func appendExpanded(out []Instr, blk []Rec) []Instr {
	for _, rec := range blk {
		out = append(out, rec.Instr())
		for i := uint16(0); i < rec.Run(); i++ {
			out = append(out, idle)
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
func checkSurfaces(t *testing.T, what string, r PackedReader, want []Instr) {
	t.Helper()
	equalInstrs(t, what+" Next", drain(r), want)
	r.Reset()

	equalInstrs(t, what+" NextPacked", expandPacked(r, 256), want)
	r.Reset()

	bl, blocks := r.(BlockReader)
	var got []Instr
	if blocks {
		for blk := bl.NextBlock(256); len(blk) > 0; blk = bl.NextBlock(256) {
			got = append(got, blk...)
		}
		equalInstrs(t, what+" NextBlock", got, want)
		r.Reset()
	}

	// Interleaved: a surface may leave a run half delivered for the next.
	got = got[:0]
	for step := 0; ; step++ {
		before := len(got)
		switch step % 3 {
		case 0:
			if ins, ok := r.Next(); ok {
				got = append(got, ins)
			}
		case 1:
			if blocks {
				got = append(got, bl.NextBlock(3)...)
			} else if ins, ok := r.Next(); ok {
				got = append(got, ins)
			}
		case 2:
			got = appendExpanded(got, r.NextPacked(2))
		}
		if len(got) == before {
			break
		}
	}
	equalInstrs(t, what+" interleaved", got, want)
	r.Reset()
}

// streamOnly hides every surface of a Reader but Next, Reset and Name,
// as a generator has them.
type streamOnly struct{ Reader }

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
		checkSurfaces(t, g.Name()+" packed on the fly", Packed(factory()), want)

		pool := NewPool(1<<30, 0)
		checkSurfaces(t, g.Name()+" pooled", pool.Shared(g.Name(), factory).(PackedReader), want)
		if st := pool.Stats(); st.Instructions != int64(len(want)) || st.UsedBytes >= int64(len(want))*recBytes {
			t.Errorf("%s: pool holds %d instructions in %d bytes, want %d in fewer than %d",
				g.Name(), st.Instructions, st.UsedBytes, len(want), int64(len(want))*recBytes)
		}

		capped := NewPool(1<<30, 300*recBytes)
		first := capped.Shared(g.Name(), factory).(PackedReader)  // inherits the entry's generator at the frontier
		second := capped.Shared(g.Name(), factory).(PackedReader) // rebuilds one and skips the prefix
		checkSurfaces(t, g.Name()+" capped", first, want)
		checkSurfaces(t, g.Name()+" capped, second reader", second, want)
		st := capped.Stats()
		if st.UsedBytes != 300*recBytes || st.Instructions <= 300 || st.Instructions >= int64(len(want)) {
			t.Errorf("%s: capped pool holds %d instructions in %d bytes, want between 300 and %d in %d",
				g.Name(), st.Instructions, st.UsedBytes, len(want), 300*recBytes)
		}
		if st.TailStreams == 0 {
			t.Errorf("%s: no reader streamed the tail of a capped slab", g.Name())
		}
	}
}

// packChunked packs ins the way a pool entry grows: the floor rises to
// the slab's end every `every` instructions (never when every is 0). It
// also returns which records open a chunk.
func packChunked(ins []Instr, every int) (*Materialized, map[int]bool) {
	m := &Materialized{name: "chunked"}
	floors := map[int]bool{}
	floor := 0
	for i, in := range ins {
		if every > 0 && i%every == 0 {
			floor = len(m.recs)
			floors[floor] = true
		}
		m.recs = appendPacked(m.recs, floor, in)
		m.n++
	}
	return m, floors
}

// The packing rule: an idle instruction joins the run of the record
// before it, whatever that record is, a record stands for at most
// 8 191 instructions, and a run never reaches below a chunk floor.
func TestPackRule(t *testing.T) {
	load := Instr{PC: 0x2000, Addr: 0x40, Kind: Load}
	store := Instr{PC: 1, Kind: Store}
	elsewhere := Instr{PC: 0x1004}
	idles := func(n int) []Instr {
		ins := make([]Instr, n)
		for i := range ins {
			ins[i] = idle
		}
		return ins
	}
	const rest = 20_000 - 2*(maxRun+1) // idles(20_000) is two full records and this
	cases := []struct {
		name  string
		in    []Instr
		every int // chunk length, 0 for one chunk
		want  []Rec
	}{
		{"run", idles(3), 0, []Rec{packedRec(idle, 2)}},
		{"loads never merge", []Instr{load, load}, 0, []Rec{packedRec(load, 0), packedRec(load, 0)}},
		{"stores never merge", []Instr{store, store}, 0, []Rec{packedRec(store, 0), packedRec(store, 0)}},
		{"a load absorbs the idle run after it", append([]Instr{load}, idles(3)...), 0, []Rec{packedRec(load, 3)}},
		{"split by a load", []Instr{idle, idle, load, idle}, 0, []Rec{packedRec(idle, 1), packedRec(load, 1)}},
		{"a store absorbs the idle run after it", []Instr{store, idle}, 0, []Rec{packedRec(store, 1)}},
		{"Others elsewhere than IdlePC stay one record each", []Instr{elsewhere, elsewhere, elsewhere}, 0,
			[]Rec{packedRec(elsewhere, 0), packedRec(elsewhere, 0), packedRec(elsewhere, 0)}},
		{"an Other elsewhere absorbs the idle run after it", []Instr{elsewhere, idle, idle}, 0, []Rec{packedRec(elsewhere, 2)}},
		{"differing Addr", []Instr{idle, {PC: IdlePC, Addr: 8}}, 0, []Rec{packedRec(idle, 0), packedRec(Instr{PC: IdlePC, Addr: 8}, 0)}},
		{"differing Flags", []Instr{idle, {PC: IdlePC, Flags: DependsPrev}}, 0,
			[]Rec{packedRec(idle, 0), packedRec(Instr{PC: IdlePC, Flags: DependsPrev}, 0)}},
		{"load at IdlePC then idle", []Instr{{PC: IdlePC, Kind: Load}, idle}, 0, []Rec{packedRec(Instr{PC: IdlePC, Kind: Load}, 1)}},
		{"run longer than a record holds", idles(20_000), 0,
			[]Rec{packedRec(idle, maxRun), packedRec(idle, maxRun), packedRec(idle, rest-1)}},
		{"a load's run longer than a record holds", append([]Instr{load}, idles(20_000)...), 0,
			[]Rec{packedRec(load, maxRun), packedRec(idle, maxRun), packedRec(idle, rest)}},
		{"an idle run is cut at a chunk floor", append([]Instr{load}, idles(4)...), 3,
			[]Rec{packedRec(load, 2), packedRec(idle, 1)}},
		{"the widest fields", []Instr{{Addr: 1<<32 - 1, PC: 0xffff, Kind: Store, Flags: DependsPrev}, idle}, 0,
			[]Rec{packedRec(Instr{Addr: 1<<32 - 1, PC: 0xffff, Kind: Store, Flags: DependsPrev}, 1)}},
	}
	for _, tc := range cases {
		m := NewMaterialized(tc.name, tc.in)
		if tc.every > 0 {
			m, _ = packChunked(tc.in, tc.every)
		}
		if !slices.Equal(m.recs, tc.want) {
			t.Errorf("%s: packed %+v, want %+v", tc.name, m.recs, tc.want)
		}
		checkSurfaces(t, tc.name, m.Replay(), tc.in)
	}
}

// Only appendPacked makes a Rec, and it refuses what a Rec cannot hold.
func TestPackRefusesUnrepresentable(t *testing.T) {
	for _, ins := range []Instr{
		{Addr: 1 << 32, Kind: Load},
		{Kind: Store + 1},
		{Flags: DependsPrev << 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v was packed", ins)
				}
			}()
			appendPacked(nil, 0, ins)
		}()
	}
}

// Packed packs a stream exactly as a pool entry's slab holds it: the
// same records, with runs cut at the same chunk floors, buffer after
// buffer.
func TestPackedMatchesPoolSlab(t *testing.T) {
	streams := map[string]func() Reader{
		"runs straddling chunk floors": func() Reader { return streamOnly{NewSlice("a", runTrace(24, 8000))} },
		"runs longer than a record":    func() Reader { return streamOnly{NewSlice("b", runTrace(5, 20_000))} },
		"sparse stream": func() Reader {
			return NewStream("c", StreamConfig{Seed: 9, MemRatio: 0.05, StoreRatio: 0.2, Length: 3*extendChunk + 777})
		},
		"dense stream": func() Reader {
			return NewStream("d", StreamConfig{Seed: 9, MemRatio: 0.9, StoreRatio: 0.2, Length: extendChunk + 77})
		},
	}
	for name, gen := range streams {
		pool := NewPool(1<<30, 0)
		r := pool.Shared(name, gen).(*sharedReplay)
		for len(r.NextPacked(packBatch)) > 0 {
		}
		want := r.sh.snap.Load().recs
		p := Packed(gen())
		if _, ok := p.(*packer); !ok {
			t.Fatalf("%s: Packed returned a %T, not the adapter", name, p)
		}
		var got []Rec
		for loop := 0; loop < 2; loop++ {
			got = got[:0]
			for blk := p.NextPacked(packBatch); len(blk) > 0; blk = p.NextPacked(packBatch) {
				if len(blk) > packBatch {
					t.Fatalf("%s: a block of %d records", name, len(blk))
				}
				got = append(got, blk...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s loop %d: Packed gave %d records, the slab holds %d", name, loop, len(got), len(want))
			}
			p.Reset()
		}
	}
}

// runTrace is a trace whose slab frontier is easy to place: a load,
// then run idle instructions, repeated.
func runTrace(groups, run int) []Instr {
	var ins []Instr
	for g := 0; g < groups; g++ {
		ins = append(ins, Instr{PC: 0x2000, Addr: uint64(g) * 64, Kind: Load})
		for i := 0; i < run; i++ {
			ins = append(ins, Instr{PC: IdlePC})
		}
	}
	return ins
}

// A slab grows in chunks of extendChunk instructions, a run is cut at
// the chunk boundary rather than merged into a published record, and
// the byte accounting is the records actually held.
func TestPoolChunksCountInstructions(t *testing.T) {
	// Groups of 8 001 instructions: the chunk floors at 65 536 and
	// 131 072 fall inside the runs of groups 8 and 16.
	want := runTrace(24, 8000)
	pool := NewPool(1<<30, 0)
	r := pool.Shared("runs", func() Reader { return NewSlice("runs", want) }).(*sharedReplay)

	r.Next()
	snap := r.sh.snap.Load()
	// Groups 0-7 whole, then group 8's load and the start of its run.
	if snap.n != extendChunk || len(snap.recs) != 9 {
		t.Fatalf("after one read the slab holds %d instructions in %d records, want %d in 9", snap.n, len(snap.recs), extendChunk)
	}
	r.Reset()
	equalInstrs(t, "chunked", drain(r), want)
	snap = r.sh.snap.Load()
	// The 24 loads, and an idle record at each of the two chunk floors.
	if !snap.done || snap.n != len(want) || len(snap.recs) != 26 {
		t.Fatalf("whole slab: done=%v, %d instructions in %d records, want %d in 26", snap.done, snap.n, len(snap.recs), len(want))
	}
	if st := pool.Stats(); st.UsedBytes != 26*recBytes || st.Instructions != int64(len(want)) {
		t.Fatalf("stats %+v, want %d bytes, %d instructions", st, 26*recBytes, len(want))
	}
}

// A cap that falls inside a run: the slab ends on a load whose run the
// budget no longer admits, and tail streaming resumes at exactly the
// next instruction, the run's first, for the reader that inherits the
// generator and for one that rebuilds it.
func TestPoolCapInsideRun(t *testing.T) {
	want := runTrace(40, 100)
	for _, recs := range []int64{1, 2, 3, 7} {
		pool := NewPool(1<<30, recs*recBytes)
		factory := func() Reader { return NewSlice("runs", want) }
		a, b := pool.Shared("runs", factory).(PackedReader), pool.Shared("runs", factory).(PackedReader)
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
	if !slices.Equal(got.recs, m.recs) {
		t.Fatal("a reloaded slab packs differently from the one saved")
	}
}

// fuzzInstrs decodes fuzz bytes into a sequence over a small alphabet
// of instructions a Rec holds, so that idle runs, near-idle
// instructions and memory records all occur: a byte with its top bit
// set is idle, and 0xff is a run of maxRun idle instructions while the
// sequence is shorter than three of them, so that two in a row are
// longer than one record holds.
func fuzzInstrs(data []byte) []Instr {
	ins := make([]Instr, 0, len(data))
	for _, b := range data {
		switch {
		case b == 0xff && len(ins) < 3*maxRun:
			for i := 0; i < maxRun; i++ {
				ins = append(ins, idle)
			}
		case b >= 0x80:
			ins = append(ins, idle)
		default:
			ins = append(ins, Instr{
				PC:    IdlePC + uint16(b>>2&1)*0xefff, // IdlePC or 0xffff
				Addr:  uint64(b>>3&1) * math.MaxUint32,
				Kind:  Kind(b & 3 % 3),
				Flags: Flags(b >> 4 & 1),
			})
		}
	}
	return ins
}

// FuzzPackRoundTrip: packing then expanding is the identity on any
// sequence, cut into chunks of any length, through every surface, and
// the packed form is canonical — no record is followed by a bare idle
// record while its run has room, unless a chunk floor sits between them.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0}, uint8(0))
	f.Add([]byte{0, 4, 0, 8, 0, 16, 0, 2, 2}, uint8(0))
	f.Add([]byte{1, 1, 2, 2, 3, 3}, uint8(0))
	f.Add([]byte{1, 0x80, 0x80, 0x80, 4, 0x80, 2, 0x80, 0x80}, uint8(3))
	f.Add([]byte{1, 0xff, 0xff, 0x80, 0, 0xff, 0x80}, uint8(0))
	f.Add([]byte{0x80, 0xff, 0xff, 0xff, 2}, uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, every uint8) {
		want := fuzzInstrs(data)
		m, floors := packChunked(want, int(every))
		checkSurfaces(t, "fuzz", m.Replay(), want)
		total := 0
		for i, rec := range m.recs {
			total += int(rec.Run()) + 1
			if i > 0 && rec.Instr() == idle && !floors[i] && m.recs[i-1].Run() < maxRun {
				t.Fatalf("record %d %+v is a bare idle record after %+v, whose run had room", i, m.recs[i], m.recs[i-1])
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
	f.Add(raw[:len(raw)-7]) // truncated mid-record
	for _, bad := range refusedRecords {
		f.Add(patchRecord(raw, 2, bad.patch))
	}
	f.Add(append([]byte("MMT1\x00\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)) // 2^63 records claimed
	f.Add([]byte("MMT1\xff\xffshort name"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.mmt")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		// A record the decoder let through that no Rec holds would
		// panic in appendPacked.
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
