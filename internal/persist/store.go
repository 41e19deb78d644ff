// Package persist is the one crash-safe disk mirror the serving stack
// uses: the result cache and the sweep manager both keep their durable
// state in a Store. It is a leaf package (sweep cannot import server).
package persist

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
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
}

// NewMetrics registers <prefix>_{writes,errors,loaded,quarantined}_total
// on r; what names the records in the help text ("sweep records").
func NewMetrics(r *telemetry.Registry, prefix, what string) Metrics {
	return Metrics{
		Writes:      r.Counter(prefix+"_writes_total", "Durable writes of "+what+"."),
		Errors:      r.Counter(prefix+"_errors_total", "Failed writes of "+what+"."),
		Loaded:      r.Counter(prefix+"_loaded_total", "Count of "+what+" restored from disk at startup."),
		Quarantined: r.Counter(prefix+"_quarantined_total", "Corrupt or unreadable "+what+" quarantined at startup."),
	}
}

// Options wires a Store to its owner.
type Options[T any] struct {
	// Dir holds one <key>.json file per record; created if missing.
	Dir string
	// What names the store in log lines ("result cache", "sweep state").
	What string
	// Key returns the key a record claims. It is also the file name, so a
	// load can verify the two match; a mismatch means tampering or a torn
	// write and the file is quarantined. Keys only ever feed comparisons
	// and names the owner chose, never paths read back from disk.
	Key     func(T) string
	Metrics Metrics
	// WriteFault fails a write (one durability update is lost; the owner
	// keeps serving from memory). ReadFault fails a load-time read, which
	// is handled exactly like a corrupt file: quarantine, count, continue.
	WriteFault, ReadFault *faultinject.Site
	Logger                *slog.Logger
}

// Store mirrors keyed JSON records to disk, written behind by one
// coalescing goroutine: updates to the same key between writer wakeups
// collapse into one write (a 1000-cell sweep completing does not issue
// 1000 fsync-adjacent writes, and the pending set is bounded by the
// number of distinct keys, so nothing is ever dropped). Each write is an
// atomic tmp+rename, so a crash mid-write leaves the old file or the new
// one, never a torn record. Load quarantines unreadable files instead of
// failing: the owner's data is a memo or re-runnable work, so losing a
// record costs a recomputation while dying on it costs the service.
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
}

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
	go s.writer()
	return s, nil
}

// Load hands every persisted record to fn in key order (os.ReadDir
// sorts), quarantining anything unreadable or mismatched, and any record
// fn refuses (its error is the cause).
func (s *Store[T]) Load(fn func(T) error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		// Just created, or unreadable; either way there is nothing to load
		// and writes will surface real errors.
		s.Logger.Warn(s.What+" dir unreadable; starting empty", "dir", s.Dir, "err", err)
		return
	}
	loaded, quarantined := 0, 0
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(s.Dir, name)
		rec, err := s.read(path, strings.TrimSuffix(name, ".json"))
		if err == nil {
			err = fn(rec)
		}
		if err != nil {
			s.quarantine(path, err)
			quarantined++
			continue
		}
		loaded++
	}
	s.Metrics.Loaded.Add(uint64(loaded))
	if loaded > 0 || quarantined > 0 {
		s.Logger.Info(s.What+" restored from disk",
			"dir", s.Dir, "loaded", loaded, "quarantined", quarantined)
	}
}

// read reads and validates one record file.
func (s *Store[T]) read(path, wantKey string) (rec T, err error) {
	if s.ReadFault.Fire() {
		return rec, fmt.Errorf("faultinject: %s", s.ReadFault.Name())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("decode: %w", err)
	}
	if got := s.Key(rec); got != wantKey {
		return rec, fmt.Errorf("record key %q does not match file name", got)
	}
	return rec, nil
}

// quarantine renames a bad file aside (path + ".quarantine") so it is
// never retried but stays available for inspection, and counts it.
func (s *Store[T]) quarantine(path string, cause error) {
	s.Metrics.Quarantined.Inc()
	if err := os.Rename(path, path+".quarantine"); err != nil {
		s.Logger.Error("quarantine rename failed", "file", path, "err", err)
		return
	}
	s.Logger.Warn("quarantined corrupt "+s.What+" file", "file", path, "cause", cause)
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
		keys := make([]string, 0, len(batch))
		for key := range batch {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			s.write(key, batch[key])
		}
	}
}

// write serializes one record. Failures are counted and logged, never
// propagated: persistence is best-effort by design, the owner's memory
// is authoritative.
func (s *Store[T]) write(key string, rec T) {
	err := func() error {
		if s.WriteFault.Fire() {
			return fmt.Errorf("faultinject: %s", s.WriteFault.Name())
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		final := filepath.Join(s.Dir, key+".json")
		tmp := final + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, final)
	}()
	if err != nil {
		s.Metrics.Errors.Inc()
		s.Logger.Error(s.What+" persist write failed", "key", key, "err", err)
		return
	}
	s.Metrics.Writes.Inc()
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
