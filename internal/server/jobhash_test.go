package server

import (
	"strings"
	"testing"
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
	base := JobSpec{Mix: []string{"spec06.libquantum", "spec06.mcf"}, Controller: "mumama"}

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
	variants := []JobSpec{
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
		p, err := s.resolve(v)
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
// model change re-pins the literal and says so.
func TestJobKeyPinned(t *testing.T) {
	p, err := newResolver(t).resolve(JobSpec{
		Mix: []string{"spec06.libquantum", "spec06.mcf"}, Controller: "mumama",
		Scale: "tiny", Seed: 7, Target: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "1802f64ccf4c8f942a4d74e025debb24f87bf3715db96b6b5f144491d87b8d4b"
	if p.key != want {
		t.Errorf("job key = %s, want %s (persisted cache entries would be orphaned)", p.key, want)
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
	if !ok || got.WS != 1 {
		t.Fatalf("got %+v, want first write (WS=1)", got)
	}
	if c.size() != 1 {
		t.Fatalf("size = %d", c.size())
	}
}
