package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"micromama/internal/sweep"
)

// resultCache is the content-addressed result store: completed job
// results keyed by the canonical job hash (see jobhash.go). Results are
// immutable once stored, so a hit can be served without re-simulating —
// the cache IS the service's memoization layer, and it is shared by
// every worker.
//
// It is also the node's key table. Every key is held once, in an entry
// of entries, and index maps it to that entry's position: its handle. A
// sweep interns its cells' keys at admission and from then on names each
// cell by a 4-byte handle (sweep.Exec), so an entry may exist before
// its result does — raw == nil is a key admitted but not yet computed.
// get, size and keysSorted see only entries that have a result.
// Entries are never evicted, so a handle stays valid for the process's
// life; an entry could go only once no sweep holds its handle. A result
// is about 1.5 KB of JSON at four cores, and the key space is bounded by
// distinct (mix, config, controller, scale) tuples actually requested.
//
// cells indexes the table by how sweeps spell their cells: a cell's
// sweep.AppendCell bytes, as laid out and before any normalization, to
// the handle its key took when a sweep first admitted it. A resubmitted
// cell is one lookup there instead of being checked, encoded and hashed
// again. That holds because a cell's key depends on nothing but its
// fields and this process's fixed tables (catalog, controllers, scales,
// core limit, model epoch), and because equal spellings are equal cells
// among the ones indexed: AppendCell is json.Marshal's encoding, which
// tells cells apart except by bytes that are not UTF-8 (each becomes a
// \ufffd escape), and a cell holding one names no trace, controller or
// scale, so it is refused, never indexed, and its spelling matches no
// indexed one. Only internCells fills it, with the cells it keyed; a
// refused cell never enters it. Like the entries it lives as long as the
// table.
type resultCache struct {
	mu      sync.RWMutex
	index   map[string]uint32
	entries []cachedResult
	results int // entries with a result
	cells   map[string]uint32
}

// cachedResult is one entry: its key (the index's own string), the
// result and its JSON, encoded once in put. Result streams and peer
// replies all hand out raw itself, so nobody may write to it.
type cachedResult struct {
	key string
	res JobResult
	raw json.RawMessage
}

func newResultCache() *resultCache {
	return &resultCache{index: make(map[string]uint32), cells: make(map[string]uint32)}
}

// get returns the cached entry for key, if it has a result.
func (c *resultCache) get(key string) (cachedResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.index[key]
	if !ok {
		return cachedResult{}, false
	}
	return c.hitLocked(h)
}

// hitLocked is the entry behind h, ok once it has a result.
func (c *resultCache) hitLocked(h uint32) (cachedResult, bool) {
	e := c.entries[h]
	return e, e.raw != nil
}

// entry reads the entry behind a handle internCells gave out: its key, and
// its result's JSON or nil while it has none.
func (c *resultCache) entry(h uint32) (string, json.RawMessage) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := &c.entries[h]
	return e.key, e.raw
}

// internCells hands out a handle per cell of a sweep (sweep.Exec.Intern).
// A cell spelled as one indexed before is one lookup in the cache's cell
// index, under a read lock per cell. Each of the rest is checked and
// keyed by appendKey as soon as it is found, outside any lock, so the
// first cell refused refuses the sweep with nothing admitted, and only
// cells that passed the checks (catalog names, at most MaxCores of them,
// a bounded controller key) are held spelled. Then, under one write
// lock, every key not held yet gets an entry without a result, and every
// spelling its handle in the cell index.
func (s *Server) internCells(n int, cell func(int) sweep.Cell) ([]uint32, error) {
	c := s.cache
	hs := make([]uint32, n)
	type miss struct{ cell, end int } // a cell and where its spelling ends in spelled
	var misses []miss
	var spelled, digests []byte
	for i := 0; i < n; i++ {
		cl := cell(i)
		start := len(spelled)
		spelled = sweep.AppendCell(spelled, cl)
		c.mu.RLock()
		h, ok := c.cells[string(spelled[start:])]
		c.mu.RUnlock()
		if ok {
			hs[i] = h
			spelled = spelled[:start]
			continue
		}
		var err error
		if digests, _, err = s.appendKey(digests, &cl); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		misses = append(misses, miss{i, len(spelled)})
	}
	if len(misses) == 0 {
		return hs, nil
	}

	var hexKey [sweep.KeyLen]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	start := 0
	for j, m := range misses {
		hex.Encode(hexKey[:], digests[j*sweep.DigestLen:(j+1)*sweep.DigestLen])
		h, ok := c.index[string(hexKey[:])]
		if !ok {
			h = c.addLocked(string(hexKey[:]))
		}
		hs[m.cell] = h
		c.cells[string(spelled[start:m.end])] = h
		start = m.end
	}
	return hs, nil
}

// addLocked adds an entry for key, without a result, and returns its
// handle.
func (c *resultCache) addLocked(key string) uint32 {
	h := uint32(len(c.entries))
	c.entries = append(c.entries, cachedResult{key: key})
	c.index[key] = h
	return h
}

// put stores a completed result and returns the entry's JSON. First
// write wins: identical keys mean identical simulations, so a
// concurrent duplicate (only possible after a failed job was retried)
// carries the same payload. A result that does not encode (a NaN
// metric) is not stored: it could be neither persisted nor served.
func (c *resultCache) put(key string, res JobResult) (json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.index[key]
	if ok && c.entries[h].raw != nil {
		return c.entries[h].raw, nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	if !ok {
		h = c.addLocked(key)
	}
	c.entries[h].res, c.entries[h].raw = res, raw
	c.results++
	return raw, nil
}

// size returns the number of distinct cached results.
func (c *resultCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.results
}

// keysSorted snapshots every cached key in lexicographic order. The
// anti-entropy repair scan pages through this with a cursor, so the
// order must be stable across calls on an append-only cache.
func (c *resultCache) keysSorted() []string {
	c.mu.RLock()
	keys := make([]string, 0, c.results)
	for i := range c.entries {
		if c.entries[i].raw != nil {
			keys = append(keys, c.entries[i].key)
		}
	}
	c.mu.RUnlock()
	sort.Strings(keys)
	return keys
}
