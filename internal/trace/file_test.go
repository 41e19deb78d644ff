package trace

import (
	"encoding/binary"
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
	{"PC of 2^32 or more", "PC 0x100002000 does not fit in 32 bits", func(rec []byte) { rec[4] = 1 }},
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
// trace ends before it, Err names it, and the loaders report it rather
// than a truncation. The largest values that fit still load.
func TestFileRefusesRecords(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.mmt")
	want := runTrace(3, 4)
	if err := SaveMaterialized(good, NewMaterialized("seed", want)); err != nil {
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
		ft.Close()

		if _, err := LoadMaterialized(path); err == nil || !strings.HasSuffix(err.Error(), "record 5: "+tc.want) {
			t.Errorf("%s: LoadMaterialized error %v, want it to end in record 5: %s", tc.name, err, tc.want)
		}
		n, errs := NewPool(1<<20, 0).PreloadDir(dir)
		if n != 1 || len(errs) != 1 || !strings.Contains(errs[0].Error(), "record 5: "+tc.want) {
			t.Errorf("%s: PreloadDir loaded %d with errors %v, want the good file and record 5's error", tc.name, n, errs)
		}
	}

	edge := patchRecord(raw, 5, func(rec []byte) {
		copy(rec[:4], []byte{0xff, 0xff, 0xff, 0xff}) // PC 2^32-1
		rec[16], rec[17] = byte(Store), byte(DependsPrev)
	})
	path := filepath.Join(dir, "bad.mmt")
	if err := os.WriteFile(path, edge, 0o600); err != nil {
		t.Fatal(err)
	}
	m, err := LoadMaterialized(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(m.Replay())[5]; got != (Instr{Addr: 64, PC: 0xffffffff, Kind: Store, Flags: DependsPrev}) {
		t.Errorf("record 5 loaded as %+v", got)
	}
}
