package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Binary on-disk trace format ("MMT1"):
//
//	magic   [4]byte  "MMT1"
//	nameLen uint16   little-endian
//	name    []byte
//	count   uint64   number of records
//	records count × {PC uint64, Addr uint64, Kind uint8, Flags uint8}
//
// The format is deliberately simple; cmd/tracegen materializes synthetic
// traces into it and FileTrace plays them back.

var magic = [4]byte{'M', 'M', 'T', '1'}

// errBadMagic reports a file that is not a trace file.
var errBadMagic = errors.New("trace: bad magic (not an MMT1 trace file)")

const recordBytes = 18

// WriteFile materializes up to max records of r into path. If max is 0
// the whole trace is written. It returns the number of records written.
func WriteFile(path string, r Reader, max uint64) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)

	name := r.Name()
	if len(name) > 0xFFFF {
		return 0, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	if _, err := w.Write(magic[:]); err != nil {
		return 0, err
	}
	var nameLen [2]byte
	binary.LittleEndian.PutUint16(nameLen[:], uint16(len(name)))
	if _, err := w.Write(nameLen[:]); err != nil {
		return 0, err
	}
	if _, err := w.WriteString(name); err != nil {
		return 0, err
	}
	// Reserve the count; patched after writing records.
	countPos := int64(4 + 2 + len(name))
	var zero [8]byte
	if _, err := w.Write(zero[:]); err != nil {
		return 0, err
	}

	var n uint64
	var rec [recordBytes]byte
	for max == 0 || n < max {
		ins, ok := r.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:8], ins.PC)
		binary.LittleEndian.PutUint64(rec[8:16], ins.Addr)
		rec[16] = byte(ins.Kind)
		rec[17] = byte(ins.Flags)
		if _, err := w.Write(rec[:]); err != nil {
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	var countBuf [8]byte
	binary.LittleEndian.PutUint64(countBuf[:], n)
	if _, err := f.WriteAt(countBuf[:], countPos); err != nil {
		return n, err
	}
	return n, f.Close()
}

// FileTrace replays an on-disk trace. It keeps the file open; Close it
// when done.
type FileTrace struct {
	f       *os.File
	r       *bufio.Reader
	name    string
	count   uint64
	dataOff int64
	read    uint64
}

// OpenFile opens an MMT1 trace file for replay.
func OpenFile(path string) (*FileTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ft := &FileTrace{f: f, r: bufio.NewReaderSize(f, 1<<20)}
	if err := ft.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return ft, nil
}

func (t *FileTrace) readHeader() error {
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return err
	}
	if hdr != magic {
		return errBadMagic
	}
	var nameLen [2]byte
	if _, err := io.ReadFull(t.r, nameLen[:]); err != nil {
		return err
	}
	nl := binary.LittleEndian.Uint16(nameLen[:])
	nameBuf := make([]byte, nl)
	if _, err := io.ReadFull(t.r, nameBuf); err != nil {
		return err
	}
	t.name = string(nameBuf)
	var countBuf [8]byte
	if _, err := io.ReadFull(t.r, countBuf[:]); err != nil {
		return err
	}
	t.count = binary.LittleEndian.Uint64(countBuf[:])
	t.dataOff = int64(4 + 2 + int(nl) + 8)
	t.read = 0
	return nil
}

// Name implements Reader.
func (t *FileTrace) Name() string { return t.name }

// Len returns the number of records in the file.
func (t *FileTrace) Len() uint64 { return t.count }

// Next implements Reader.
func (t *FileTrace) Next() (Instr, bool) {
	if t.read >= t.count {
		return Instr{}, false
	}
	var rec [recordBytes]byte
	if _, err := io.ReadFull(t.r, rec[:]); err != nil {
		return Instr{}, false
	}
	t.read++
	return Instr{
		PC:    binary.LittleEndian.Uint64(rec[0:8]),
		Addr:  binary.LittleEndian.Uint64(rec[8:16]),
		Kind:  Kind(rec[16]),
		Flags: Flags(rec[17]),
	}, true
}

// ReadBatch implements BatchReader: it decodes up to len(dst) records
// in one pass over the buffered file.
func (t *FileTrace) ReadBatch(dst []Instr) int {
	n := 0
	var rec [recordBytes]byte
	for n < len(dst) && t.read < t.count {
		if _, err := io.ReadFull(t.r, rec[:]); err != nil {
			break
		}
		dst[n] = Instr{
			PC:    binary.LittleEndian.Uint64(rec[0:8]),
			Addr:  binary.LittleEndian.Uint64(rec[8:16]),
			Kind:  Kind(rec[16]),
			Flags: Flags(rec[17]),
		}
		t.read++
		n++
	}
	return n
}

// Reset implements Reader by seeking back to the first record.
func (t *FileTrace) Reset() {
	if _, err := t.f.Seek(t.dataOff, io.SeekStart); err != nil {
		return
	}
	t.r.Reset(t.f)
	t.read = 0
}

// Close releases the underlying file.
func (t *FileTrace) Close() error { return t.f.Close() }

// SaveMaterialized writes a materialized trace to path in MMT1 format,
// so it can be reloaded (LoadMaterialized, Pool.PreloadDir) instead of
// regenerated in later processes.
func SaveMaterialized(path string, m *Materialized) error {
	_, err := WriteFile(path, m.Replay(), 0)
	return err
}

// LoadMaterialized decodes a whole MMT1 trace file into a Materialized
// slab. The file's record count is checked against the records actually
// read, never trusted for an allocation.
func LoadMaterialized(path string) (*Materialized, error) {
	ft, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer ft.Close()
	m := Materialize(ft, 0)
	if uint64(m.n) != ft.Len() {
		return nil, fmt.Errorf("trace: %s: truncated after %d of %d records", path, m.n, ft.Len())
	}
	return m, nil
}

// PreloadDir loads every MMT1 file in dir into the pool, keyed by the
// trace name recorded in the file (the catalog spec name when written
// by cmd/tracegen). Preloaded traces are complete as stored: a reader
// loops at the file's record count, which must match how the trace was
// generated for behavior to be comparable with streaming runs. Files
// that fail to parse are skipped and reported in the returned error
// list; n is the number of traces loaded.
func (s *Pool) PreloadDir(dir string) (n int, errs []error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, []error{err}
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		path := dir + string(os.PathSeparator) + de.Name()
		m, err := LoadMaterialized(path)
		if err != nil {
			if errors.Is(err, errBadMagic) {
				continue // not a trace file
			}
			errs = append(errs, fmt.Errorf("%s: %w", path, err))
			continue
		}
		s.Preload(m.Name(), m)
		n++
	}
	return n, errs
}
