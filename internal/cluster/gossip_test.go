package cluster

import (
	"encoding/base64"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"micromama/internal/faultinject"
)

// TestUpdatePrecedence pins the SWIM merge rules: higher incarnation
// always wins; at equal incarnations suspect beats alive, dead beats
// both, and alive beats neither.
func TestUpdatePrecedence(t *testing.T) {
	const b = "http://b:1"
	cases := []struct {
		name      string
		seq       []MemberUpdate
		wantState MemberState
		wantInc   uint64
	}{
		{"suspect overrides alive at same inc",
			[]MemberUpdate{{b, 0, StateSuspect}}, StateSuspect, 0},
		{"alive does not override suspect at same inc",
			[]MemberUpdate{{b, 0, StateSuspect}, {b, 0, StateAlive}}, StateSuspect, 0},
		{"alive overrides suspect at higher inc",
			[]MemberUpdate{{b, 0, StateSuspect}, {b, 1, StateAlive}}, StateAlive, 1},
		{"dead overrides alive at same inc",
			[]MemberUpdate{{b, 0, StateDead}}, StateDead, 0},
		{"dead overrides suspect at same inc",
			[]MemberUpdate{{b, 0, StateSuspect}, {b, 0, StateDead}}, StateDead, 0},
		{"alive does not resurrect dead at same inc",
			[]MemberUpdate{{b, 0, StateDead}, {b, 0, StateAlive}}, StateDead, 0},
		{"alive resurrects dead at higher inc",
			[]MemberUpdate{{b, 0, StateDead}, {b, 1, StateAlive}}, StateAlive, 1},
		{"stale suspect ignored after refutation",
			[]MemberUpdate{{b, 2, StateAlive}, {b, 1, StateSuspect}}, StateAlive, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New("http://a:1", []string{b}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			c.applyUpdates(tc.seq)
			c.memMu.Lock()
			m := c.members[b]
			c.memMu.Unlock()
			if m == nil || m.state != tc.wantState || m.inc != tc.wantInc {
				t.Fatalf("member = %+v, want state=%s inc=%d", m, tc.wantState, tc.wantInc)
			}
		})
	}
}

// TestRefutation: a node that hears it is suspected (or dead) bumps
// its incarnation past the claim and gossips a fresh alive, which then
// overrides the suspicion under the precedence rules.
func TestRefutation(t *testing.T) {
	c, err := New("http://a:1", []string{"http://b:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.applyUpdates([]MemberUpdate{{URL: "http://a:1", Inc: 0, State: StateSuspect}})
	if got := c.SelfIncarnation(); got != 1 {
		t.Fatalf("SelfIncarnation = %d, want 1 after refuting suspect(0)", got)
	}
	if _, refutes, _ := c.GossipCounts(); refutes != 1 {
		t.Fatalf("refute counter = %d, want 1", refutes)
	}
	// A dead claim at the bumped incarnation is refuted again.
	c.applyUpdates([]MemberUpdate{{URL: "http://a:1", Inc: 1, State: StateDead}})
	if got := c.SelfIncarnation(); got != 2 {
		t.Fatalf("SelfIncarnation = %d, want 2 after refuting dead(1)", got)
	}
	// The refutation is queued for piggybacking.
	msg := c.outMsg()
	if len(msg.Updates) == 0 || msg.Updates[0].URL != "http://a:1" || msg.Updates[0].Inc != 2 {
		t.Fatalf("outMsg does not lead with the refuted alive claim: %+v", msg.Updates)
	}
}

// TestRingRebuildOnTransition: confirming a peer dead removes it from
// the ring atomically, bumps the membership version, and fires the
// change hook; a higher-incarnation alive claim brings it back.
func TestRingRebuildOnTransition(t *testing.T) {
	c, err := New("http://a:1", []string{"http://b:1", "http://c:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []ChangeEvent
	c.OnChange(func(ev ChangeEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	v0 := c.MembershipVersion()
	h0 := c.RingHash()

	c.applyUpdates([]MemberUpdate{{URL: "http://b:1", Inc: 0, State: StateDead}})
	if c.Size() != 2 {
		t.Fatalf("ring size = %d after death, want 2", c.Size())
	}
	if c.MembershipVersion() != v0+1 {
		t.Fatalf("version = %d, want %d", c.MembershipVersion(), v0+1)
	}
	if c.RingHash() == h0 {
		t.Fatal("ring hash unchanged after membership change")
	}
	mu.Lock()
	if len(events) != 1 || len(events[0].Dead) != 1 || events[0].Dead[0] != "http://b:1" {
		t.Fatalf("change events = %+v, want one with Dead=[http://b:1]", events)
	}
	mu.Unlock()

	// Suspicion alone must not change the ring.
	c.applyUpdates([]MemberUpdate{{URL: "http://c:1", Inc: 0, State: StateSuspect}})
	if c.Size() != 2 || c.MembershipVersion() != v0+1 {
		t.Fatal("suspicion changed the ring")
	}

	// Rejoin with a bumped incarnation restores the original ring.
	c.applyUpdates([]MemberUpdate{{URL: "http://b:1", Inc: 1, State: StateAlive}})
	if c.Size() != 3 {
		t.Fatalf("ring size = %d after rejoin, want 3", c.Size())
	}
	if c.RingHash() != h0 {
		t.Fatal("rejoined ring hash differs from the original membership")
	}
	mu.Lock()
	last := events[len(events)-1]
	mu.Unlock()
	if len(last.Joined) != 1 || last.Joined[0] != "http://b:1" {
		t.Fatalf("rejoin event = %+v, want Joined=[http://b:1]", last)
	}
}

// TestPiggybackBudget: a queued delta is retransmitted a bounded
// number of times and then dropped; a newer claim about the same
// member replaces the queued one.
func TestPiggybackBudget(t *testing.T) {
	c, err := New("http://a:1", []string{"http://b:1"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.markSuspect("http://b:1")
	seen := 0
	for i := 0; i < 64; i++ {
		msg := c.outMsg()
		// Updates[0] is always the sender's own alive claim.
		if len(msg.Updates) > 1 {
			seen++
		} else {
			break
		}
	}
	if seen == 0 || seen >= 64 {
		t.Fatalf("suspect delta retransmitted %d times, want bounded and nonzero", seen)
	}
}

// TestGossipHeaderRoundTrip: membership deltas attached to ordinary
// traffic via X-Mama-Gossip are decodable as a digest and merge into
// the receiver's table.
func TestGossipHeaderRoundTrip(t *testing.T) {
	mk := func(self string) *Cluster {
		c, err := New(self, []string{"http://a:1", "http://b:1", "http://c:1"}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk("http://a:1"), mk("http://b:1")
	// a confirms c dead; the delta rides the header.
	a.applyUpdates([]MemberUpdate{{URL: "http://c:1", Inc: 0, State: StateDead}})
	hdr := a.GossipHeaderValue()
	if hdr == "" {
		t.Fatal("empty gossip header")
	}
	d, ok := DecodeGossipDigest(hdr)
	if !ok || d.From != "http://a:1" || d.Ring != a.RingHash() {
		t.Fatalf("digest = %+v ok=%v, want from=a ring=%d", d, ok, a.RingHash())
	}
	b.ApplyGossipHeader(hdr)
	if b.Size() != 2 {
		t.Fatalf("receiver ring size = %d after applying header, want 2", b.Size())
	}
	if b.RingHash() != a.RingHash() {
		t.Fatal("rings disagree after header exchange")
	}
}

// FuzzDecodeGossip feeds arbitrary X-Mama-Gossip values — the one
// membership input any client can send — to a fresh node: a value
// either fails to decode and changes nothing, or applies without a
// panic; either way the node still holds itself alive, in its own ring,
// and has out-bid every suspect or dead claim about itself.
func FuzzDecodeGossip(f *testing.F) {
	const self, peer = "http://a:1", "http://b:1"
	enc := func(msg gossipMsg) string {
		b, _ := json.Marshal(msg)
		return base64.RawURLEncoding.EncodeToString(b)
	}
	f.Add("")
	f.Add("not base64!")
	f.Add(base64.RawURLEncoding.EncodeToString([]byte(`{"updates":7}`)))
	f.Add(enc(gossipMsg{From: peer, Updates: []MemberUpdate{{peer, 3, StateAlive}, {"http://c:1", 0, StateSuspect}}}))
	f.Add(enc(gossipMsg{From: peer, Updates: []MemberUpdate{{self, 9, StateDead}, {"a:1/", 2, StateSuspect}, {peer, 0, StateDead}}}))
	f.Add(enc(gossipMsg{From: peer, Updates: []MemberUpdate{{"", 1, StateDead}, {self, 0, "zombie"}, {" http://a:1 /", 0, StateDead}}}))
	f.Fuzz(func(t *testing.T, v string) {
		c, err := New(self, []string{peer}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		before := c.Members()
		msg, ok := decodeGossip(v)
		c.ApplyGossipHeader(v)
		if !ok && !reflect.DeepEqual(c.Members(), before) {
			t.Fatalf("undecodable header changed the member table: %+v", c.Members())
		}
		if !c.Contains(self) || c.Owner("0123456789abcdef") == "" {
			t.Fatalf("self left its own ring: %v", c.ring.Load().Peers())
		}
		c.memMu.Lock()
		_, inTable := c.members[self]
		c.memMu.Unlock()
		if inTable {
			t.Fatal("self entered its own member table")
		}
		for _, u := range msg.Updates {
			known := u.State == StateSuspect || u.State == StateDead
			if known && NormalizePeer(u.URL) == self && c.SelfIncarnation() <= u.Inc {
				t.Fatalf("claim %+v about self not refuted: incarnation %d", u, c.SelfIncarnation())
			}
		}
	})
}

// gossipNode is one in-process node for failure-detector tests: a
// Cluster with gossip loops, served over a real listener so peers can
// reach it (and lose it when the listener closes).
type gossipNode struct {
	c  *Cluster
	ts *httptest.Server
}

func startGossipNode(t *testing.T, self string, peers []string, ln net.Listener, opts GossipOptions) *gossipNode {
	t.Helper()
	c, err := New(self, peers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableGossip(opts)
	mux := http.NewServeMux()
	c.RegisterGossipHandlers(mux)
	ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: mux}}
	ts.Start()
	c.StartGossip()
	t.Cleanup(func() { c.StopGossip(); ts.Close() })
	return &gossipNode{c: c, ts: ts}
}

func listenLocal(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func waitRing(t *testing.T, c *Cluster, want int, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Size() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s: ring size = %d, want %d (members %+v)", msg, c.Size(), want, c.Members())
}

// TestGossipKillRejoin drives the full detector end to end with three
// in-process nodes: kill one → survivors suspect, confirm dead, and
// agree on a two-node ring; restart it on the same address with the
// same seeds → it learns its own tombstone, refutes with a bumped
// incarnation, and all three rings re-agree.
func TestGossipKillRejoin(t *testing.T) {
	lns := []net.Listener{listenLocal(t), listenLocal(t), listenLocal(t)}
	urls := make([]string, 3)
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	opts := GossipOptions{
		Interval:       10 * time.Millisecond,
		SuspectTimeout: 60 * time.Millisecond,
		SyncInterval:   50 * time.Millisecond,
		Seeds:          urls,
	}
	nodes := make([]*gossipNode, 3)
	for i := range lns {
		nodes[i] = startGossipNode(t, urls[i], urls, lns[i], opts)
	}
	for i, n := range nodes {
		if n.c.Size() != 3 {
			t.Fatalf("node %d bootstrap ring size = %d, want 3", i, n.c.Size())
		}
	}

	// Kill node 2: listener closed, loops stopped.
	nodes[2].c.StopGossip()
	nodes[2].ts.Close()
	killed := time.Now()
	waitRing(t, nodes[0].c, 2, "survivor 0 after kill")
	waitRing(t, nodes[1].c, 2, "survivor 1 after kill")
	if nodes[0].c.RingHash() != nodes[1].c.RingHash() {
		t.Fatal("survivor rings disagree")
	}
	// Detection is bounded by probe rounds + suspect timeout; allow a
	// generous multiple for loaded CI, but it must not take forever.
	if elapsed := time.Since(killed); elapsed > 8*time.Second {
		t.Fatalf("confirm-dead took %v", elapsed)
	}
	if _, _, confirms := nodes[0].c.GossipCounts(); confirms == 0 {
		t.Fatal("survivor 0 never counted a confirm-dead")
	}

	// Restart node 2 on the same address: fresh process state
	// (incarnation 0), same seeds, no flag changes.
	ln, err := net.Listen("tcp", lns[2].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	restarted := startGossipNode(t, urls[2], urls, ln, opts)
	waitRing(t, nodes[0].c, 3, "survivor 0 after rejoin")
	waitRing(t, nodes[1].c, 3, "survivor 1 after rejoin")
	waitRing(t, restarted.c, 3, "restarted node")
	if nodes[0].c.RingHash() != restarted.c.RingHash() || nodes[1].c.RingHash() != restarted.c.RingHash() {
		t.Fatal("rings disagree after rejoin")
	}
	if inc := restarted.c.SelfIncarnation(); inc == 0 {
		t.Fatal("restarted node did not bump its incarnation past its tombstone")
	}
}

// TestProbeDropSuspects: with every direct probe dropped at the fault
// site and no relays available (two nodes), the peer is suspected and
// confirmed dead without any real network failure — the deterministic
// chaos hook for the detector.
func TestProbeDropSuspects(t *testing.T) {
	restore, err := faultinject.Enable("cluster/gossip/probe-drop", "always")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	lns := []net.Listener{listenLocal(t), listenLocal(t)}
	urls := []string{"http://" + lns[0].Addr().String(), "http://" + lns[1].Addr().String()}
	opts := GossipOptions{
		Interval:       10 * time.Millisecond,
		SuspectTimeout: 40 * time.Millisecond,
		SyncInterval:   time.Hour, // no sync rescue: the probe path must do it
	}
	a := startGossipNode(t, urls[0], urls, lns[0], opts)
	startGossipNode(t, urls[1], urls, lns[1], opts)
	waitRing(t, a.c, 1, "probe-drop confirm-dead")
	suspects, _, confirms := a.c.GossipCounts()
	if suspects == 0 || confirms == 0 {
		t.Fatalf("counters: suspects=%d confirms=%d, want both nonzero", suspects, confirms)
	}
}
