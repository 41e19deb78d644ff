package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micromama/internal/persist"
	"micromama/internal/sweep"
)

// FuzzCacheEntry writes any bytes as the one line of a stamped result
// log and starts a server over that directory. The line ends one of two
// ways: it is quarantined, byte for byte, and the cache is empty, or it
// loads as the one entry, whose key is a job key and which serves
// exactly json.Marshal of the result the line holds. Never a panic.
func FuzzCacheEntry(f *testing.F) {
	key := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	entry := func(key, result string) []byte {
		return []byte(fmt.Sprintf(`{"key":%q,"result":%s}`, key, result))
	}
	f.Add(entry(key, `{"mix":"spec06.mcf","controller":"mumama","ws":1.5,"speedups":[0.5,1],"ipc":[1e-9],"sim_ms":3}`))
	f.Add(entry("zzz", `{"mix":"fake","ws":1}`))
	f.Add(entry(strings.ToUpper(key), `{}`))
	f.Add(entry(key[1:]+"0", `{}`))
	f.Add(entry(key, `{"ws":1e400}`))
	f.Add(entry(key, `{"ws":-0,"mix":"é\ud800","unknown":[1]}`))
	f.Add([]byte(`{"key":`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, line []byte) {
		if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 {
			return // not one line
		}
		dir := t.TempDir()
		writeLog(t, dir, line)
		srv, err := New(Config{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		loaded, quarantined := srv.metrics.persist.Loaded.Value(), srv.metrics.persist.Quarantined.Value()
		switch {
		case loaded == 0 && quarantined == 1:
			if q, _ := os.ReadFile(filepath.Join(dir, persist.LogName+".quarantine")); !bytes.Equal(q, append(line, '\n')) {
				t.Errorf("quarantine holds %q, want the line", q)
			}
			if n := tableSize(srv); n != 0 {
				t.Errorf("a quarantined line left %d keys in the cache", n)
			}
		case loaded == 1 && quarantined == 0:
			var e persistEntry
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("loaded bytes that do not decode: %v", err)
			}
			if !isJobKey(e.Key) {
				t.Errorf("loaded an entry under %q, which is no job key", e.Key)
			}
			hit, ok := srv.cache.get(e.Key)
			if !ok || tableSize(srv) != 1 || srv.cache.size() != 1 {
				t.Fatalf("loaded %q: hit %v, %d keys, %d results; want the one entry", e.Key, ok, tableSize(srv), srv.cache.size())
			}
			want, err := json.Marshal(e.Result)
			if err != nil || !bytes.Equal(hit.raw, want) {
				t.Errorf("entry serves %s, want %s (err %v)", hit.raw, want, err)
			}
		default:
			t.Fatalf("one line: loaded %d, quarantined %d", loaded, quarantined)
		}
	})
}

// FuzzCellIndex admits cells drawn from a small alphabet — catalog
// traces and one unknown, controller keys with parameters spelled
// several ways, scales with and without spaces, case or a name, seeds,
// targets and DRAM overrides, mixes past the core limit — twice each,
// as sweep admission does, into one server whose cell index keeps
// growing across inputs. Every key admission hands out is the job path's
// (resolve) for the same cell, and every cell the job path refuses is
// refused with the same error and never indexed.
func FuzzCellIndex(f *testing.F) {
	const maxCores = 4
	srv, err := New(Config{Workers: 1, MaxCores: maxCores})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	traces := []string{"spec06.mcf", "ligra.BFS", " spec06.libquantum", "spec06.sphinx3", "nope.trace"}
	controllers := []string{"no", "bandit", "mumama", "mumama@jav=4", "mumama@jav=04", "mumama@jav=2", "mumama@jav=0",
		" pythia", "mumama@theta=0.5@jav=4", "mumama@jav=4@theta=0.5", "bandit@jav=4", "nope"}
	scales := []string{"", "tiny", "Tiny", " default", "small", "huge"}
	drams := [][2]int{{0, 0}, {3200, 2}, {2400, 0}, {0, 1}, {-1, 1}}
	f.Add(uint8(0), uint16(0), uint8(0), uint8(1), uint64(7), uint64(20_000), uint8(0))
	f.Add(uint8(3), uint16(0x1234), uint8(3), uint8(0), uint64(0), uint64(0), uint8(1))
	f.Add(uint8(4), uint16(0xffff), uint8(11), uint8(5), uint64(1<<63), uint64(1), uint8(4))
	f.Fuzz(func(t *testing.T, cores uint8, names uint16, ctrl, scale uint8, seed, target uint64, dram uint8) {
		c := sweep.Cell{
			Controller: controllers[int(ctrl)%len(controllers)],
			Scale:      scales[int(scale)%len(scales)],
			Seed:       seed % 4,
			Target:     []uint64{0, 20_000, 1}[target%3],
		}
		for i := 0; i < 1+int(cores)%(maxCores+1); i++ {
			c.Mix = append(c.Mix, traces[int(names>>(3*i))%len(traces)])
		}
		d := drams[int(dram)%len(drams)]
		c.DRAMMTps, c.DRAMChannels = d[0], d[1]

		want, wantErr := srv.resolve(JobSpec{Cell: c})
		for pass := 1; pass <= 2; pass++ {
			keys, err := admit(srv, []sweep.Cell{c})
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != "cell 0: "+wantErr.Error() {
					t.Fatalf("pass %d: %+v admitted as %v (err %v); the job path refuses it: %v", pass, c, keys, err, wantErr)
				}
				if indexed(srv, c) {
					t.Fatalf("pass %d: the refused %+v is in the cell index", pass, c)
				}
			case err != nil || keys[0] != want.key:
				t.Fatalf("pass %d: %+v admitted as %v (err %v); the job path keys it %s", pass, c, keys, err, want.key)
			}
		}
	})
}
