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
// get, lookup, size and keysSorted see only entries that have a result.
// Entries are never evicted, so a handle stays valid for the process's
// life; an entry could go only once no sweep holds its handle. A result
// is about 1.5 KB of JSON at four cores, and the key space is bounded by
// distinct (mix, config, controller, scale) tuples actually requested.
type resultCache struct {
	mu      sync.RWMutex
	index   map[string]uint32
	entries []cachedResult
	results int // entries with a result
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
	return &resultCache{index: make(map[string]uint32)}
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

// lookup is get for a key held in bytes: the map index converts it
// without allocating.
func (c *resultCache) lookup(key []byte) (cachedResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	h, ok := c.index[string(key)]
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

// entry reads the entry behind a handle intern gave out: its key, and
// its result's JSON or nil while it has none.
func (c *resultCache) entry(h uint32) (string, json.RawMessage) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e := &c.entries[h]
	return e.key, e.raw
}

// intern hands out a handle per key digest (sweep.DigestLen bytes each,
// back to back), adding an entry without a result for each key not yet
// held: one write lock for the whole sweep.
func (c *resultCache) intern(digests string) []uint32 {
	hs := make([]uint32, 0, len(digests)/sweep.DigestLen)
	var buf [sweep.KeyLen]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < len(digests); i += sweep.DigestLen {
		hex.Encode(buf[:], []byte(digests[i:i+sweep.DigestLen]))
		h, ok := c.index[string(buf[:])]
		if !ok {
			h = c.addLocked(string(buf[:]))
		}
		hs = append(hs, h)
	}
	return hs
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
