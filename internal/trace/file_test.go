package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mmt")

	src := NewStride("roundtrip", StrideConfig{Seed: 5, Strides: []uint64{64}, MemRatio: 0.5, StoreRatio: 0.2, Length: 1234})
	n, err := WriteFile(path, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1234 {
		t.Fatalf("wrote %d records, want 1234", n)
	}

	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	if ft.Name() != "roundtrip" || ft.Len() != 1234 {
		t.Errorf("header: name=%q len=%d", ft.Name(), ft.Len())
	}

	src.Reset()
	want := drain(src)
	got := drain(ft)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Reset re-reads from the first record.
	ft.Reset()
	again := drain(ft)
	if len(again) != len(want) || again[0] != want[0] {
		t.Error("FileTrace.Reset did not rewind")
	}
}

func TestWriteFileMax(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.mmt")
	src := NewCompute("capped", ComputeConfig{Seed: 1, MemRatio: 0.3, Length: 100000})
	n, err := WriteFile(path, src, 50)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("wrote %d, want 50", n)
	}
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	if got := len(drain(ft)); got != 50 {
		t.Errorf("read %d, want 50", got)
	}
}

func TestOpenFileBadMagic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad")
	if err := os.WriteFile(path, []byte("this is not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil {
		t.Error("OpenFile accepted a non-trace file")
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("OpenFile of missing path succeeded")
	}
}

// refusedRecords are the MMT1 records a reader refuses, as patches to
// an 18-byte record ({PC, Addr, Kind, Flags}), with what the error
// says.
var refusedRecords = []struct {
	name, want string
	patch      func(rec []byte)
}{
	{"PC of 2^32 or more", "PC 0x100002000 does not fit in 16 bits", func(rec []byte) { rec[4] = 1 }},
	{"PC of 2^16", "PC 0x10000 does not fit in 16 bits", func(rec []byte) { binary.LittleEndian.PutUint64(rec[0:8], 0x10000) }},
	{"address of 2^32", "address 0x100000000 does not fit in 32 bits", func(rec []byte) { binary.LittleEndian.PutUint64(rec[8:16], 1<<32) }},
	{"kind 7", "unknown kind 7", func(rec []byte) { rec[16] = 7 }},
	{"unknown flag bit", "unknown flags 0x3", func(rec []byte) { rec[17] = 3 }},
}

// patchRecord returns a copy of the MMT1 file raw with record i patched.
func patchRecord(raw []byte, i int, patch func(rec []byte)) []byte {
	out := append([]byte(nil), raw...)
	header := 4 + 2 + int(binary.LittleEndian.Uint16(out[4:6])) + 8
	patch(out[header+i*recordBytes : header+(i+1)*recordBytes])
	return out
}

// A record the model cannot represent is refused where it stands: the
// trace ends before it, Err names it, and Reset keeps it so. The
// largest values that fit still load.
func TestFileRefusesRecords(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mmt")
	want := runTrace(3, 4)
	if _, err := WriteFile(good, NewSlice("seed", want), 0); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range refusedRecords {
		path := filepath.Join(dir, "bad.mmt")
		if err := os.WriteFile(path, patchRecord(raw, 5, tc.patch), 0o600); err != nil {
			t.Fatal(err)
		}
		ft, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		equalInstrs(t, tc.name, drain(ft), want[:5])
		if _, ok := ft.Next(); ok {
			t.Errorf("%s: a record was read past the refused one", tc.name)
		}
		if err := ft.Err(); err == nil || err.Error() != "record 5: "+tc.want {
			t.Errorf("%s: Err() = %v, want record 5: %s", tc.name, err, tc.want)
		}
		ft.Reset()
		equalInstrs(t, tc.name+" after Reset", drain(ft), want[:5])
		if err := ft.Err(); err == nil || err.Error() != "record 5: "+tc.want {
			t.Errorf("%s: after Reset, Err() = %v, want record 5: %s", tc.name, err, tc.want)
		}
		ft.Close()
	}

	edge := patchRecord(raw, 5, func(rec []byte) {
		binary.LittleEndian.PutUint64(rec[0:8], 0xffff)      // PC 2^16-1
		binary.LittleEndian.PutUint64(rec[8:16], 0xffffffff) // address 2^32-1
		rec[16], rec[17] = byte(Store), byte(DependsPrev)
	})
	path := filepath.Join(dir, "bad.mmt")
	if err := os.WriteFile(path, edge, 0o600); err != nil {
		t.Fatal(err)
	}
	if got := drain(loadFile(t, path).Replay())[5]; got != (Instr{Addr: 0xffffffff, PC: 0xffff, Kind: Store, Flags: DependsPrev}) {
		t.Errorf("record 5 loaded as %+v", got)
	}
}

// loadFile reads a whole MMT1 file through OpenFile into a slab, as
// tracestat does, and fails the test on a refused record or a file
// shorter than its header says.
func loadFile(t *testing.T, path string) *Materialized {
	t.Helper()
	ft, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	m := Materialize(ft, 0)
	if err := ft.Err(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if uint64(m.Len()) != ft.Len() {
		t.Fatalf("%s: read %d of the %d records the header counts", path, m.Len(), ft.Len())
	}
	return m
}

// FuzzOpenFile: on any bytes, the MMT1 reader refuses the header or
// yields, in batches, records a Rec holds — never more than the header
// counts or the bytes hold. It stops early only at a record it refuses,
// which Err names, and Reset replays the same records. What it yields
// survives WriteFile and a second read.
func FuzzOpenFile(f *testing.F) {
	good := filepath.Join(f.TempDir(), "good.mmt")
	if _, err := WriteFile(good, NewSlice("seed", runTrace(3, 4)), 0); err != nil {
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
		ft, err := OpenFile(path)
		if err != nil {
			return
		}
		defer ft.Close()
		buf := make([]Instr, 7)
		read := func() []Instr {
			var got []Instr
			for n := ft.ReadBatch(buf); n > 0; n = ft.ReadBatch(buf) {
				got = append(got, buf[:n]...)
			}
			return got
		}
		got := read()
		header := 4 + 2 + len(ft.Name()) + 8
		held := min(ft.Len(), uint64(len(data)-header)/recordBytes)
		if err := ft.Err(); err != nil {
			if want := fmt.Sprintf("record %d: ", len(got)); uint64(len(got)) >= held || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("read %d of %d records, then Err() = %v", len(got), held, err)
			}
		} else if uint64(len(got)) != held {
			t.Fatalf("read %d records from %d bytes whose header counts %d", len(got), len(data), ft.Len())
		}
		ft.Reset()
		equalInstrs(t, "after Reset", read(), got)

		// A record the reader let through that no Rec holds would panic
		// in appendPacked.
		m := NewMaterialized(ft.Name(), got)
		again := filepath.Join(t.TempDir(), "again.mmt")
		if _, err := WriteFile(again, m.Replay(), 0); err != nil {
			t.Fatal(err)
		}
		equalInstrs(t, "second read", drain(loadFile(t, again).Replay()), got)
	})
}
