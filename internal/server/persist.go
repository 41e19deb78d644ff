package server

import (
	"encoding/json"
	"fmt"

	"micromama/internal/faultinject"
	"micromama/internal/persist"
	"micromama/internal/sweep"
)

// Fault-injection sites on the result cache's disk mirror (see
// persist.Options).
var (
	faultPersistWrite = faultinject.New("server/cache/persist-write")
	faultPersistRead  = faultinject.New("server/cache/persist-read")
)

// persistEntry is the on-disk form of one cached result, stored as
// <CacheDir>/<key>.json. Key is the full content hash.
type persistEntry struct {
	Key    string    `json:"key"`
	Result JobResult `json:"result"`
}

// openPersist opens the result cache's disk mirror and replays it into
// the cache, so a restart serves previously simulated specs as hits.
func (s *Server) openPersist() error {
	st, err := persist.Open(persist.Options[persistEntry]{
		Dir:        s.cfg.CacheDir,
		What:       "result cache",
		Key:        func(e persistEntry) string { return e.Key },
		Metrics:    s.metrics.persist,
		WriteFault: faultPersistWrite,
		ReadFault:  faultPersistRead,
		Logger:     s.log,
	})
	if err != nil {
		return err
	}
	st.Load(func(e persistEntry) { _, _ = s.cache.put(e.Key, e.Result) }) // decoded from JSON, so it encodes
	s.persist = st
	return nil
}

// storeResult is the one way a result enters this node: the in-memory
// cache, then the write-behind mirror. finishJob calls it for every
// execution; the fetch paths (sweep prefetch, anti-entropy repair, a
// peer's write-back) call it for results computed elsewhere. It returns the entry's JSON (shared,
// read-only); a result that does not encode is an error, not stored.
// So is a key that is not a job key: the key names the mirror's file,
// and a peer's write-back path segment arrives unescaped.
func (s *Server) storeResult(key string, res JobResult) (json.RawMessage, error) {
	if !isJobKey(key) {
		return nil, fmt.Errorf("%q is not a job key", key)
	}
	raw, err := s.cache.put(key, res)
	if err == nil {
		s.persist.Save(persistEntry{Key: key, Result: res})
	}
	return raw, err
}

// isJobKey reports whether key has the one shape jobKey produces:
// sweep.KeyLen lowercase hex digits.
func isJobKey(key string) bool {
	if len(key) != sweep.KeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
