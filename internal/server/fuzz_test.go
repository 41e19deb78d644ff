package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micromama/internal/sweep"
)

// FuzzCacheEntry writes any bytes as a persisted cache file, under any
// name a directory can hold, and starts a server over that directory.
// The file ends one of two ways: it is quarantined and the cache is
// empty, or it loads as the one entry, whose key is the file name and a
// job key and which serves exactly json.Marshal of the result the file
// holds. Never a panic.
func FuzzCacheEntry(f *testing.F) {
	key := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	entry := func(key, result string) []byte {
		return []byte(fmt.Sprintf(`{"key":%q,"result":%s}`, key, result))
	}
	f.Add(key, entry(key, `{"mix":"spec06.mcf","controller":"mumama","ws":1.5,"speedups":[0.5,1],"ipc":[1e-9],"sim_ms":3}`))
	f.Add("zzz", entry("zzz", `{"mix":"fake","ws":1}`))
	f.Add(strings.ToUpper(key), entry(strings.ToUpper(key), `{}`))
	f.Add(key, entry(key[1:]+"0", `{}`))
	f.Add(key, entry(key, `{"ws":1e400}`))
	f.Add(key, entry(key, `{"ws":-0,"mix":"é\ud800","unknown":[1]}`))
	f.Add(key, []byte(`{"key":`))
	f.Add(key, []byte(`null`))
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		if name == "" || name == "." || name == ".." || len(name) > 128 || strings.ContainsAny(name, "/\x00") {
			return // not one directory entry
		}
		dir := t.TempDir()
		file := filepath.Join(dir, name+".json")
		if err := os.WriteFile(file, data, 0o644); err != nil {
			return // a name this file system refuses
		}
		srv, err := New(Config{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		loaded, quarantined := srv.metrics.persist.Loaded.Value(), srv.metrics.persist.Quarantined.Value()
		switch {
		case loaded == 0 && quarantined == 1:
			if _, err := os.Stat(file + ".quarantine"); err != nil {
				t.Errorf("quarantined file not renamed aside: %v", err)
			}
			if n := tableSize(srv); n != 0 {
				t.Errorf("a quarantined file left %d keys in the cache", n)
			}
		case loaded == 1 && quarantined == 0:
			if !isJobKey(name) {
				t.Errorf("loaded an entry under %q, which is no job key", name)
			}
			hit, ok := srv.cache.get(name)
			if !ok || tableSize(srv) != 1 || srv.cache.size() != 1 {
				t.Fatalf("loaded %q: hit %v, %d keys, %d results; want the one entry", name, ok, tableSize(srv), srv.cache.size())
			}
			var e persistEntry
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("loaded bytes that do not decode: %v", err)
			}
			want, err := json.Marshal(e.Result)
			if err != nil || !bytes.Equal(hit.raw, want) {
				t.Errorf("entry serves %s, want %s (err %v)", hit.raw, want, err)
			}
		default:
			t.Fatalf("one file: loaded %d, quarantined %d", loaded, quarantined)
		}
	})
}
