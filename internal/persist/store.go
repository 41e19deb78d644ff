// Package persist is the one crash-safe disk mirror the serving stack
// uses: the result cache and the sweep manager both keep their durable
// state in a Store. It is a leaf package (sweep cannot import server).
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"micromama/internal/faultinject"
	"micromama/internal/telemetry"
)

// Metrics counts one store's disk traffic.
type Metrics struct {
	Writes      *telemetry.Counter
	Errors      *telemetry.Counter
	Loaded      *telemetry.Counter
	Quarantined *telemetry.Counter
	SetAside    *telemetry.Counter
}

// NewMetrics registers
// <prefix>_{writes,errors,loaded,quarantined,set_aside}_total on r; what
// names the records in the help text ("sweep records").
func NewMetrics(r *telemetry.Registry, prefix, what string) Metrics {
	return Metrics{
		Writes:      r.Counter(prefix+"_writes_total", "Durable writes of "+what+"."),
		Errors:      r.Counter(prefix+"_errors_total", "Failed writes of "+what+"."),
		Loaded:      r.Counter(prefix+"_loaded_total", "Count of "+what+" restored from disk at startup."),
		Quarantined: r.Counter(prefix+"_quarantined_total", "Corrupt or unreadable "+what+" quarantined at startup."),
		SetAside: r.Counter(prefix+"_set_aside_total",
			"Files of "+what+" set aside unread at startup: a log of another format or model epoch, or a *.json file."),
	}
}

// The files a Store keeps in its directory.
const (
	// LogName is the log: one JSON record per line, the last line for a
	// key being its record.
	LogName = "records.log"
	// quarantineName collects the log lines Load could not hand over.
	quarantineName = LogName + ".quarantine"
	// tmpName is a rewritten log before it is renamed over LogName.
	tmpName = LogName + ".tmp"
	// setAsideDir holds, unread, the files Load would not parse.
	setAsideDir = "set-aside"
)

// Options wires a Store to its owner.
type Options[T any] struct {
	// Dir holds the store's log (LogName); created if missing.
	Dir string
	// What names the store in log lines ("result cache", "sweep state").
	What string
	// Epoch is the model epoch the records belong to (the server passes
	// experiment.ModelEpoch). The log's first line stamps it, and Load
	// sets a log of any other epoch aside unread.
	Epoch int
	// Key returns the key a record claims; a record claiming "" is
	// quarantined. Keys only ever feed comparisons, never paths.
	Key     func(T) string
	Metrics Metrics
	// WriteFault fails one record's write (one durability update is
	// lost; the owner keeps serving from memory). ReadFault fails one
	// record's read at load, which is handled exactly like a corrupt
	// record: quarantine, count, continue.
	WriteFault, ReadFault *faultinject.Site
	Logger                *slog.Logger
}

// Store mirrors keyed JSON records to disk as one append-only log,
// whose first line is a stamp, {"format":1,"epoch":E}, written behind
// by one coalescing goroutine: updates to the same key between writer
// wakeups collapse into one line, and each wakeup appends its batch with
// a single write (a 1000-cell sweep completing does not issue 1000
// writes, and the pending set is bounded by the number of distinct
// keys, so nothing is ever dropped). A crash mid-append tears
// at most the last line, which loses only that record. The owners save
// a key again only rarely (a result never, a sweep's header on a
// priority change), so the log is not compacted while it runs: Load
// rewrites it to its live lines, into a tmp file renamed over it, which
// bounds it to the live records plus what one process appended.
// Load quarantines unreadable records instead of failing: the owner's
// data is a memo or re-runnable work, so losing a record costs a
// recomputation while dying on it costs the service. A log this build
// did not write (another stamp, or none) is never parsed: Load moves it
// aside whole, so no record of an older model outlives the epoch that
// computed it.
//
// A nil *Store keeps nothing: Save and Close are no-ops.
type Store[T any] struct {
	Options[T]

	mu     sync.Mutex
	dirty  map[string]T
	closed bool

	kick    chan struct{} // cap 1; pokes the writer
	closeCh chan struct{}
	done    chan struct{}

	stamp []byte // the log's first line, without its newline

	logMu sync.Mutex // guards the log
	f     *os.File   // the log, open for appending; nil until needed
	// torn means the log may not end in a newline (a crash or a failed
	// write cut its last line): the next append starts a new line first.
	torn bool
	buf  bytes.Buffer
	enc  *json.Encoder // writes into buf
}

// maxKeptBuf is the largest batch buffer the writer keeps for the next
// batch.
const maxKeptBuf = 1 << 20

// Open prepares the directory and starts the writer.
func Open[T any](o Options[T]) (*Store[T], error) {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("%s dir: %w", o.What, err)
	}
	s := &Store[T]{
		Options: o,
		dirty:   make(map[string]T),
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.stamp = fmt.Appendf(nil, `{"format":1,"epoch":%d}`, o.Epoch)
	s.enc = json.NewEncoder(&s.buf) // Encode writes json.Marshal's bytes and a newline
	go s.writer()
	return s, nil
}

// found is one record Load read, and its line.
type found[T any] struct {
	rec  T
	body []byte
}

// Load hands every record of the log to fn in key order, the last line
// for a key being its record, quarantining what it cannot read and any
// record fn refuses (its error is the cause). Unless the log already
// holds exactly the records fn took, it then rewrites the log to those
// records. A log whose first line is not this store's stamp, and any
// *.json file in Dir, is set aside unread. The owner calls Load once,
// before its first Save.
func (s *Store[T]) Load(fn func(T) error) {
	s.setAsideJSON()
	path := filepath.Join(s.Dir, LogName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Unreadable: there is nothing to load, and the log is never
		// rewritten over what could not be read.
		s.Logger.Warn(s.What+" log unreadable; starting empty", "file", path, "err", err)
		return
	}
	stamp, body, _ := bytes.Cut(data, []byte{'\n'})
	if !bytes.Equal(stamp, s.stamp) {
		if len(data) > 0 {
			s.setAside(LogName)
		}
		return
	}
	data = body
	recs := make(map[string]found[T])
	var bad bytes.Buffer // quarantined lines
	quarantined := 0
	refuse := func(line []byte, cause error) {
		bad.Write(line)
		bad.WriteByte('\n')
		quarantined++
		s.Logger.Warn("quarantined corrupt "+s.What+" record", "file", path, "cause", cause)
	}
	for off := 0; off < len(data); {
		line := data[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		} // else a torn last line, decoded like any other
		off += len(line) + 1
		if len(line) == 0 {
			continue
		}
		rec, err := s.decode(line)
		if err != nil {
			refuse(line, err)
			continue
		}
		recs[s.Key(rec)] = found[T]{rec: rec, body: line}
	}

	keys := make([]string, 0, len(recs))
	for key := range recs {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	keep := 0
	lines := make([][]byte, 0, len(recs))
	for _, key := range keys {
		r := recs[key]
		var err error
		if s.ReadFault.Fire() {
			err = fmt.Errorf("faultinject: %s", s.ReadFault.Name())
		}
		if err == nil {
			err = fn(r.rec)
		}
		if err != nil {
			refuse(r.body, err)
			continue
		}
		lines = append(lines, r.body)
		keep += len(r.body) + 1
	}
	if bad.Len() > 0 {
		if err := appendFile(filepath.Join(s.Dir, quarantineName), bad.Bytes()); err != nil {
			s.Logger.Error("quarantine write failed", "file", quarantineName, "err", err)
		}
	}
	s.Metrics.Loaded.Add(uint64(len(lines)))
	s.Metrics.Quarantined.Add(uint64(quarantined))
	if len(lines) > 0 || quarantined > 0 {
		s.Logger.Info(s.What+" restored from disk",
			"dir", s.Dir, "loaded", len(lines), "quarantined", quarantined)
	}

	if keep == len(data) && (keep == 0 || data[keep-1] == '\n') {
		return // every byte after the stamp is a line fn took and its newline
	}
	if err := s.rewrite(lines); err != nil {
		s.Logger.Error(s.What+" log rewrite failed; appending to the old log", "dir", s.Dir, "err", err)
	}
}

// decode reads one record that claims a key.
func (s *Store[T]) decode(b []byte) (rec T, err error) {
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("decode: %w", err)
	}
	if s.Key(rec) == "" {
		return rec, errors.New("record claims no key")
	}
	return rec, nil
}

// setAsideJSON sets aside every *.json file in Dir: no build of the log
// reads one.
func (s *Store[T]) setAsideJSON() {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		s.Logger.Warn(s.What+" dir unreadable", "dir", s.Dir, "err", err)
		return
	}
	for _, de := range entries {
		if !de.IsDir() && strings.HasSuffix(de.Name(), ".json") {
			s.setAside(de.Name())
		}
	}
}

// setAside moves the file name in Dir, its bytes intact, into
// Dir/set-aside, which no start reads: under its own name, or with the
// first ".N" suffix no file there holds, so nothing set aside is lost.
func (s *Store[T]) setAside(name string) {
	dir := filepath.Join(s.Dir, setAsideDir)
	dst := filepath.Join(dir, name)
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); err != nil {
			break
		}
		dst = filepath.Join(dir, name+"."+strconv.Itoa(n))
	}
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = os.Rename(filepath.Join(s.Dir, name), dst)
	}
	if err != nil {
		s.Logger.Error(s.What+" file not set aside", "file", name, "err", err)
		return
	}
	s.Metrics.SetAside.Inc()
	s.Logger.Warn(s.What+" file set aside unread: not this build's format and model epoch", "file", dst)
}

// appendFile appends b to the file at path, creating it if missing.
func appendFile(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rewrite replaces the log with the stamp and lines through a tmp file
// renamed over it, whose descriptor becomes the log's. With no lines it
// removes the log instead: the next append creates it, stamped.
func (s *Store[T]) rewrite(lines [][]byte) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if len(lines) == 0 {
		return os.Remove(filepath.Join(s.Dir, LogName))
	}
	tmp := filepath.Join(s.Dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	w.Write(s.stamp)
	w.WriteByte('\n')
	for _, l := range lines {
		w.Write(l)
		w.WriteByte('\n')
	}
	err = w.Flush() // a failed Write is kept and returned here
	if err == nil {
		err = os.Rename(tmp, filepath.Join(s.Dir, LogName))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.torn = f, false
	return nil
}

// Save schedules a durability update for one record. It never blocks
// the caller: the most recent snapshot of a key always wins.
func (s *Store[T]) Save(rec T) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.dirty[s.Key(rec)] = rec
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// writer drains the dirty map until Close, which doubles as a flush
// barrier: Close marks closed, wakes the writer, and waits for done.
func (s *Store[T]) writer() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if len(s.dirty) == 0 {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.logMu.Lock()
				if s.f != nil {
					s.f.Close()
					s.f = nil
				}
				s.logMu.Unlock()
				return
			}
			select {
			case <-s.kick:
			case <-s.closeCh:
			}
			continue
		}
		batch := s.dirty
		s.dirty = make(map[string]T)
		s.mu.Unlock()
		s.append(batch)
	}
}

// append writes one batch to the log in key order with a single write.
// Failures are counted and logged, never propagated: persistence is
// best-effort by design, the owner's memory is authoritative.
func (s *Store[T]) append(batch map[string]T) {
	keys := make([]string, 0, len(batch))
	for key := range batch {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	s.logMu.Lock()
	defer s.logMu.Unlock()
	// buf opens with the stamp, written only when this append creates the
	// log, then a newline, written only then or when the log may be torn.
	s.buf.Reset()
	s.buf.Write(s.stamp)
	s.buf.WriteByte('\n')
	written := keys[:0]
	for _, key := range keys {
		if s.WriteFault.Fire() {
			s.failed(key, fmt.Errorf("faultinject: %s", s.WriteFault.Name()))
			continue
		}
		if err := s.enc.Encode(batch[key]); err != nil {
			s.failed(key, err)
			continue
		}
		written = append(written, key)
	}
	if len(written) == 0 {
		return
	}
	created, err := s.openLog()
	out := s.buf.Bytes()
	switch {
	case s.torn:
		out = out[len(s.stamp):]
	case !created:
		out = out[len(s.stamp)+1:]
	}
	if err == nil {
		if _, err = s.f.Write(out); err != nil {
			// Part of the batch may have reached the disk: the next batch
			// starts on a line of its own.
			s.torn = true
		}
	}
	if err != nil {
		for _, key := range written {
			s.failed(key, err)
		}
		return
	}
	s.torn = false
	s.Metrics.Writes.Add(uint64(len(written)))
	if s.buf.Cap() > maxKeptBuf {
		s.buf = bytes.Buffer{} // a one-off big batch is not held for good
	}
}

// failed counts and logs one record whose write was lost.
func (s *Store[T]) failed(key string, err error) {
	s.Metrics.Errors.Inc()
	s.Logger.Error(s.What+" persist write failed", "key", key, "err", err)
}

// openLog opens the log for appending if it is not open yet: the first
// append of a store whose Load did not rewrite it. created reports that
// the log is empty, so the append starts it with the stamp. Called with
// logMu held.
func (s *Store[T]) openLog() (created bool, err error) {
	if s.f != nil {
		return false, nil
	}
	f, err := os.OpenFile(filepath.Join(s.Dir, LogName), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return false, err
	}
	size := fi.Size()
	if size > 0 {
		last := []byte{0}
		if _, err := f.ReadAt(last, size-1); err != nil || last[0] != '\n' {
			s.torn = true
		}
	}
	s.f = f
	return size == 0, nil
}

// Close flushes every dirty record and stops the writer. Safe to call
// more than once.
func (s *Store[T]) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.closeCh)
	}
	<-s.done
}
