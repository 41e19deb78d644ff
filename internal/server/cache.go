package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// resultCache is the content-addressed result store: completed job
// results keyed by the canonical job hash (see jobhash.go). Results are
// immutable once stored, so a hit can be served without re-simulating —
// the cache IS the service's memoization layer, and it is shared by
// every worker. Entries are never evicted; an entry is a result plus
// its JSON (about 1.5 KB at four cores) and the key space is bounded by
// distinct (mix, config, controller, scale) tuples actually requested.
type resultCache struct {
	mu sync.RWMutex
	m  map[string]cachedResult
}

// cachedResult is one entry: the result and its JSON, encoded once in
// put. Sweep event logs, result streams and peer replies all hand out
// raw itself, so nobody may write to it.
type cachedResult struct {
	res JobResult
	raw json.RawMessage
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[string]cachedResult)}
}

// get returns the cached entry for key, if any.
func (c *resultCache) get(key string) (cachedResult, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.m[key]
	return v, ok
}

// put stores a completed result and returns the entry's JSON. First
// write wins: identical keys mean identical simulations, so a
// concurrent duplicate (only possible after a failed job was retried)
// carries the same payload. A result that does not encode (a NaN
// metric) is not stored: it could be neither persisted nor served.
func (c *resultCache) put(key string, res JobResult) (json.RawMessage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if !ok {
		var err error
		if v.raw, err = json.Marshal(res); err != nil {
			return nil, fmt.Errorf("encode result: %w", err)
		}
		v.res = res
		c.m[key] = v
	}
	return v.raw, nil
}

// size returns the number of distinct cached results.
func (c *resultCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// keysSorted snapshots every cached key in lexicographic order. The
// anti-entropy repair scan pages through this with a cursor, so the
// order must be stable across calls on an append-only cache.
func (c *resultCache) keysSorted() []string {
	c.mu.RLock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	c.mu.RUnlock()
	sort.Strings(keys)
	return keys
}
