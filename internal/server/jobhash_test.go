package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/sweep"
)

// newResolver returns a server usable only for resolve() (no workers).
func newResolver(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestJobKeyDeterministicAndCanonical(t *testing.T) {
	s := newResolver(t)
	base := JobSpec{Cell: sweep.Cell{Mix: []string{"spec06.libquantum", "spec06.mcf"}, Controller: "mumama"}}

	p1, err := s.resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.resolve(base)
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("same spec hashed differently: %s vs %s", p1.key, p2.key)
	}
	if len(p1.key) != 64 || !strings.HasPrefix(p1.id, "j") || len(p1.id) != 17 {
		t.Fatalf("unexpected key/id shape: %q %q", p1.key, p1.id)
	}

	// Spelled-out defaults hash identically to implied ones.
	explicit := base
	explicit.Scale = "Default" // normalized to lower case
	pe, err := s.resolve(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if pe.key != p1.key {
		t.Errorf("explicit default scale changed the key")
	}

	// Every result-determining field must move the key.
	variants := []sweep.Cell{
		{Mix: []string{"spec06.mcf", "spec06.libquantum"}, Controller: "mumama"}, // order matters
		{Mix: base.Mix, Controller: "bandit"},
		{Mix: base.Mix, Controller: "mumama", Scale: "tiny"},
		{Mix: base.Mix, Controller: "mumama", Seed: 9},
		{Mix: base.Mix, Controller: "mumama", Target: 123456},
		{Mix: base.Mix, Controller: "mumama", Step: 100},
		{Mix: base.Mix, Controller: "mumama", DRAMMTps: 1600},
		{Mix: base.Mix, Controller: "mumama", DRAMChannels: 2},
	}
	seen := map[string]int{p1.key: -1}
	for i, v := range variants {
		p, err := s.resolve(JobSpec{Cell: v})
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[p.key]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[p.key] = i
	}

	// TimeoutMs bounds execution but not the outcome: same key.
	timed := base
	timed.TimeoutMs = 5000
	pt, err := s.resolve(timed)
	if err != nil {
		t.Fatal(err)
	}
	if pt.key != p1.key {
		t.Errorf("timeout_ms changed the content key")
	}
}

// TestJobKeyPinned: the content key is what every persisted cache entry
// and every cluster ring placement is filed under, so a change to the
// hashed structs (a sim.Config or experiment.Scale field added, removed
// or renamed) that moves it orphans every stored result. A deliberate
// model change re-pins the literal and says so. A controller key with
// parameters is hashed in its canonical form, so that form — the order,
// the number formatting, which defaults are dropped — is as fixed.
func TestJobKeyPinned(t *testing.T) {
	for controller, want := range map[string]string{
		"mumama":                "1802f64ccf4c8f942a4d74e025debb24f87bf3715db96b6b5f144491d87b8d4b",
		"mumama@jav=4":          "f299333196ce040d16032ac0e666b3c4b09f1b011900516f2eab3b7e3e433c6b",
		"mumama@kstep=5@jav=04": "f299333196ce040d16032ac0e666b3c4b09f1b011900516f2eab3b7e3e433c6b",
	} {
		p, err := newResolver(t).resolve(JobSpec{Cell: sweep.Cell{
			Mix: []string{"spec06.libquantum", "spec06.mcf"}, Controller: controller,
			Scale: "tiny", Seed: 7, Target: 100_000,
		}})
		if err != nil {
			t.Fatal(err)
		}
		if p.key != want {
			t.Errorf("%s: job key = %s, want %s (persisted cache entries would be orphaned)", controller, p.key, want)
		}
	}
}

// TestJobResultBytesPinned: a job result's JSON is what every cache
// file holds, what peers exchange and what clients parse, and the type
// is now an alias of experiment.CellResult — so a field added, renamed,
// reordered or given omitempty over there would move it. The literals
// were produced by the commit before the alias; Sim, the one field
// added since, must never reach the wire.
func TestJobResultBytesPinned(t *testing.T) {
	full := JobResult{
		Mix: "mix07{spec06.libquantum,spec06.mcf}", Controller: "mumama",
		WS: 1.625, HS: 0.75, GM: 0.8125, Unfairness: 1.5,
		Speedups: []float64{0.5, 1.125}, IPC: []float64{0.25, 1.5}, L2MPKI: []float64{12.5, 0},
		Prefetches: 4242, SimMs: 31,
		Sim: &sim.Result{Controller: "mumama"},
	}
	for _, tc := range []struct {
		res  JobResult
		want string
	}{
		{full, `{"mix":"mix07{spec06.libquantum,spec06.mcf}","controller":"mumama","ws":1.625,"hs":0.75,"gm":0.8125,"unfairness":1.5,"speedups":[0.5,1.125],"ipc":[0.25,1.5],"l2_mpki":[12.5,0],"prefetches":4242,"sim_ms":31}`},
		{JobResult{}, `{"mix":"","controller":"","ws":0,"hs":0,"gm":0,"unfairness":0,"speedups":null,"ipc":null,"l2_mpki":null,"prefetches":0,"sim_ms":0}`},
	} {
		got, err := json.Marshal(tc.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("job result encodes as\n%s\nwant\n%s", got, tc.want)
		}
	}
}

// canonicalKey is the key's definition: SHA-256 of the whole canonical
// struct through one json.Marshal. It is what jobKey was before it
// streamed memoised config bytes into the hash, and what it must equal
// for ever: cache files, job IDs and ring placements are filed under it.
func canonicalKey(t *testing.T, spec JobSpec, cfg sim.Config, scale experiment.Scale) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Mix        []string
		Seed       uint64
		Controller string
		Scale      experiment.Scale
		Config     sim.Config
	}{spec.Mix, spec.Seed, spec.Controller, scale, cfg})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestJobKeyMatchesCanonicalJSON holds the streamed key to its
// definition over every system shape and scale, with overrides, and
// with strings encoding/json escapes (HTML characters, quotes, control
// bytes, U+2028, invalid UTF-8) — resolve would refuse those names, so
// jobKey is called directly.
func TestJobKeyMatchesCanonicalJSON(t *testing.T) {
	var memo configMemo
	awkward := []string{"mumama", `a"b\c`, "<script>&amp;</script>", "tab\tnl\n\x00", "sep\u2028\u2029", "bad\xff\xfeutf8", "ünï.cödé"}
	n := 0
	for _, cores := range []int{1, 2, 4, 8} {
		for _, dram := range [][2]int{{0, 0}, {1866, 2}, {3200, 0}, {0, 2}} {
			rc, err := memo.resolve(cores, dram[0], dram[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, scaleName := range []string{"tiny", "small", "default", "full"} {
				for _, over := range [][2]uint64{{0, 0}, {100_000, 0}, {0, 75}, {123_456_789, 1}} {
					scale, _ := experiment.ScaleByName(scaleName)
					if over[0] > 0 {
						scale.Target = over[0]
					}
					if over[1] > 0 {
						scale.Step = over[1]
					}
					for i, ctrl := range awkward {
						mix := make([]string, cores)
						for c := range mix {
							mix[c] = awkward[(i+c)%len(awkward)]
						}
						spec := JobSpec{Cell: sweep.Cell{Mix: mix, Controller: ctrl, Seed: uint64(n) << 40}}
						got, err := jobKey(spec, rc.tail, scale)
						if err != nil {
							t.Fatal(err)
						}
						if want := canonicalKey(t, spec, rc.cfg, scale); got != want {
							t.Fatalf("%dc dram %v %s %v ctrl %q: streamed key %s, canonical %s",
								cores, dram, scaleName, over, ctrl, got, want)
						}
						n++
					}
				}
			}
		}
	}
	// And through resolve, where the memo is the server's own.
	s := newResolver(t)
	for _, cell := range []sweep.Cell{
		{Mix: []string{"spec06.mcf"}, Controller: "no", Scale: "tiny", Target: 20_000, Seed: 3},
		{Mix: []string{"spec06.libquantum", "spec06.mcf", "ligra.BFS", "spec06.sphinx3"}, Controller: "mumama", DRAMMTps: 1866, DRAMChannels: 2},
		{Mix: []string{"spec06.libquantum", "spec06.mcf"}, Controller: "bandit", DRAMChannels: 2, Step: 90},
	} {
		p, err := s.resolve(JobSpec{Cell: cell})
		if err != nil {
			t.Fatal(err)
		}
		if want := canonicalKey(t, p.spec, p.Config, p.Scale); p.key != want {
			t.Errorf("resolve(%+v): key %s, canonical %s", cell, p.key, want)
		}
	}
}

// TestConfigMemoConcurrent: resolve runs on every handler and worker
// goroutine at once. Hammer one server's memo with a few shapes from
// several goroutines (run under -race) and past its cap, where it
// starts over: every answer is the config built from scratch.
func TestConfigMemoConcurrent(t *testing.T) {
	var memo configMemo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*configMemoCap; i++ {
				cores, mtps := 1+(g+i)%4, 1600+(i%(configMemoCap+50))
				rc, err := memo.resolve(cores, mtps, 0)
				if err != nil {
					t.Error(err)
					return
				}
				want := fmt.Sprintf("DDR4-%d x1ch", mtps)
				if rc.cfg.Cores != cores || rc.cfg.DRAM.Name != want || !strings.Contains(string(rc.tail), want) {
					t.Errorf("resolve(%d, %d, 0) = %d cores, DRAM %q", cores, mtps, rc.cfg.Cores, rc.cfg.DRAM.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if len(memo.m) > configMemoCap {
		t.Errorf("memo holds %d configs, cap %d", len(memo.m), configMemoCap)
	}
}

func TestQueueBounds(t *testing.T) {
	q := newQueue(2)
	a, b, c := &job{id: "a"}, &job{id: "b"}, &job{id: "c"}
	if !q.tryPush(a) || !q.tryPush(b) {
		t.Fatal("pushes into empty queue failed")
	}
	if q.tryPush(c) {
		t.Fatal("push into full queue succeeded")
	}
	if q.depth() != 2 || q.cap() != 2 {
		t.Fatalf("depth/cap = %d/%d, want 2/2", q.depth(), q.cap())
	}
	if got := <-q.jobs(); got != a {
		t.Fatalf("FIFO violated: got %s", got.id)
	}
	if !q.tryPush(c) {
		t.Fatal("push after pop failed")
	}
}

func TestResultCacheFirstWriteWins(t *testing.T) {
	c := newResultCache()
	if _, ok := c.get("k"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("k", JobResult{WS: 1})
	c.put("k", JobResult{WS: 2})
	got, ok := c.get("k")
	if !ok || got.res.WS != 1 || string(got.raw) != `{"mix":"","controller":"","ws":1,"hs":0,"gm":0,"unfairness":0,"speedups":null,"ipc":null,"l2_mpki":null,"prefetches":0,"sim_ms":0}` {
		t.Fatalf("got %+v, want first write (WS=1)", got)
	}
	if c.size() != 1 {
		t.Fatalf("size = %d", c.size())
	}
}
