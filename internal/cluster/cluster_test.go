package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/faultinject"
)

// enableFault arms a fault site for the rest of the test.
func enableFault(t *testing.T, site, rule string) (restore func()) {
	t.Helper()
	restore, err := faultinject.Enable(site, rule)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(restore)
	return restore
}

// startIdlePeers boots n live nodes that answer gossip RPCs but whose
// own loops sleep for an hour, and returns their URLs: peers for a
// Cluster whose detector the test drives by hand.
func startIdlePeers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ln := listenLocal(t)
		urls[i] = "http://" + ln.Addr().String()
		startGossipNode(t, urls[i], nil, ln, GossipOptions{Interval: time.Hour})
	}
	return urls
}

func memberState(t *testing.T, c *Cluster, peer string) MemberState {
	t.Helper()
	for _, m := range c.Members() {
		if m.URL == peer {
			return m.State
		}
	}
	t.Fatalf("%s is not in the member table %+v", peer, c.Members())
	return ""
}

// failOneRPC fails exactly one c.Do against peer at the partition site.
func failOneRPC(t *testing.T, c *Cluster, peer string) {
	t.Helper()
	restore := enableFault(t, "cluster/rpc/partition", "always")
	defer restore()
	if _, _, err := c.Do(context.Background(), peer, http.MethodGet, "/x", nil); err == nil {
		t.Fatal("partitioned RPC succeeded")
	}
}

// TestFailedRPCSidelinesPeerAtOnce: one failed RPC — no threshold —
// makes a peer unhealthy while the detector still holds it alive, and
// puts it at the head of the probe order; the answered probe makes it
// healthy again — no cooldown. Every peer takes a turn as the victim, so
// the shuffled round-robin order cannot pass for the fast lane.
func TestFailedRPCSidelinesPeerAtOnce(t *testing.T) {
	urls := startIdlePeers(t, 3)
	for _, victim := range urls {
		c, err := New("http://self:1", urls, Options{})
		if err != nil {
			t.Fatal(err)
		}
		failOneRPC(t, c, victim)
		for _, p := range urls {
			if got, want := c.Healthy(p), p != victim; got != want {
				t.Fatalf("after one failed RPC to %s: Healthy(%s) = %v, want %v", victim, p, got, want)
			}
		}
		if st := memberState(t, c, victim); st != StateAlive {
			t.Fatalf("a failed RPC moved the member to %q; only probes may", st)
		}
		if got := c.gossip.nextTarget(); got != victim {
			t.Fatalf("next probe target = %s, want the peer whose RPC failed (%s)", got, victim)
		}
		c.gossip.probeOnce()
		if !c.Healthy(victim) {
			t.Fatal("an answered probe did not make the peer healthy again")
		}
		if got := c.rpcFailedPeer(); got != "" {
			t.Fatalf("%s still in the probe fast lane after its probe was answered", got)
		}
	}
}

// TestFailedPeerRecoversThroughProbe follows a sidelined peer through
// both probe verdicts: an unanswered probe turns the failed RPC into an
// ordinary suspicion (still unhealthy, no longer jumping the probe
// queue), and the next answered probe clears suspicion and RPC mark in
// one step.
func TestFailedPeerRecoversThroughProbe(t *testing.T) {
	peer := startIdlePeers(t, 1)[0]
	c, err := New("http://self:1", []string{peer}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	failOneRPC(t, c, peer)

	// Two nodes, so no relay: a dropped direct ping is a failed probe.
	restore := enableFault(t, "cluster/gossip/probe-drop", "always")
	c.gossip.probeOnce()
	restore()
	if st := memberState(t, c, peer); st != StateSuspect {
		t.Fatalf("member state after an unanswered probe = %q, want suspect", st)
	}
	if c.Healthy(peer) {
		t.Fatal("a suspect peer reads healthy")
	}
	if got := c.rpcFailedPeer(); got != "" {
		t.Fatalf("suspect %s still jumps the probe queue", got)
	}

	c.gossip.probeOnce()
	if st := memberState(t, c, peer); st != StateAlive {
		t.Fatalf("member state after an answered probe = %q, want alive", st)
	}
	if !c.Healthy(peer) {
		t.Fatal("an answered probe did not clear the failed-RPC mark")
	}
}

// TestDoRecordsRPCOutcome: a real transport failure through Do makes
// the peer unhealthy on the first call, and any HTTP answer (even a
// 500) makes it healthy on the next — an answering peer is alive.
func TestDoRecordsRPCOutcome(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderForwarded) == "" {
			t.Error("peer RPC missing the forwarded header")
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	const dead = "http://127.0.0.1:1"

	c, err := New("http://self:1", []string{ts.URL, dead}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := c.Do(ctx, dead, http.MethodGet, "/x", nil); err == nil {
		t.Fatal("Do against a dead peer succeeded")
	}
	if c.Healthy(dead) {
		t.Fatal("a transport failure left the peer healthy")
	}

	failOneRPC(t, c, ts.URL)
	if c.Healthy(ts.URL) {
		t.Fatal("a failed RPC left the peer healthy")
	}
	if code, _, err := c.Do(ctx, ts.URL, http.MethodGet, "/x", nil); err != nil || code != http.StatusInternalServerError {
		t.Fatalf("Do = (%d, %v), want (500, nil)", code, err)
	}
	if !c.Healthy(ts.URL) {
		t.Fatal("an HTTP answer did not make the peer healthy again")
	}
}

// TestCallerCancelIsNotPeerFailure: an RPC that ends because its caller
// gave up (a client that hung up, the node shutting down) is no
// evidence about the peer — Healthy stays true and the member table is
// untouched — while the call's own timeout against the same silent peer
// does count.
func TestCallerCancelIsNotPeerFailure(t *testing.T) {
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done() // never answers
	}))
	defer ts.Close()

	c, err := New("http://self:1", []string{ts.URL}, Options{RPCTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Members()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	if _, _, err := c.DoTimeout(ctx, ts.URL, http.MethodGet, "/x", nil, time.Minute); err == nil {
		t.Fatal("cancelled RPC succeeded")
	}
	if !c.Healthy(ts.URL) {
		t.Fatal("the caller's cancellation was booked against the peer")
	}
	if got := c.Members(); !reflect.DeepEqual(got, before) {
		t.Fatalf("member table changed: %+v, was %+v", got, before)
	}
	if got := c.rpcFailedPeer(); got != "" {
		t.Fatalf("%s queued for a priority probe by its caller's cancellation", got)
	}

	if _, _, err := c.Do(context.Background(), ts.URL, http.MethodGet, "/x", nil); err == nil {
		t.Fatal("RPC to a silent peer succeeded")
	}
	if c.Healthy(ts.URL) {
		t.Fatal("the call's own timeout was not booked against the peer")
	}
}

// TestPartitionFault: the cluster/rpc/partition site fails RPCs
// without touching the network and books the failure against the peer.
func TestPartitionFault(t *testing.T) {
	hits := atomic.Int32{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()

	c, _ := New("http://self:1", []string{ts.URL}, Options{})
	failOneRPC(t, c, ts.URL)
	if hits.Load() != 0 {
		t.Fatal("partitioned RPC reached the peer")
	}
	if c.Healthy(ts.URL) {
		t.Fatal("partition left the peer healthy")
	}
}

// TestPeerDownFault: the cluster/peer/down site forces Healthy()
// false, the shard-death chaos hook.
func TestPeerDownFault(t *testing.T) {
	enableFault(t, "cluster/peer/down", "always")
	c, _ := New("http://self:1", []string{"http://peer:1"}, Options{})
	if c.Healthy("http://peer:1") {
		t.Fatal("peer/down fault did not mark the peer unhealthy")
	}
}
