package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// startPeers boots n peers that answer every request 200 and returns
// their URLs and a count of the requests they served.
func startPeers(t *testing.T, n int) ([]string, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls, &hits
}

// setRetryAfter sets how long a failed peer is passed over for the rest
// of the test.
func setRetryAfter(t *testing.T, d time.Duration) {
	saved := retryAfter
	retryAfter = d
	t.Cleanup(func() { retryAfter = saved })
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

// TestRingAgreement: membership is the -peers list, so every node given
// that list, in any order, spelled with or without trailing slashes,
// with or without itself, builds the same ring — the same RingHash and
// the same Owner for every key. This is what lets a cluster agree on
// ownership without exchanging a message.
func TestRingAgreement(t *testing.T) {
	urls := []string{"http://10.0.0.1:8077", "http://10.0.0.2:8077", "http://10.0.0.3:8077"}
	keys := keysN(10000)
	ref, err := New(urls[0], urls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i, self := range urls {
		others := make([]string, 0, len(urls)-1)
		for _, u := range urls {
			if u != self {
				others = append(others, u)
			}
		}
		permuted := append([]string(nil), urls...)
		rng.Shuffle(len(permuted), func(a, b int) { permuted[a], permuted[b] = permuted[b], permuted[a] })
		slashed := make([]string, len(permuted))
		for j, u := range permuted {
			slashed[j] = u + "/"
		}
		for name, list := range map[string][]string{
			"permuted": permuted, "without self": others, "trailing slashes": slashed,
		} {
			c, err := New(self+"/", list, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if c.RingHash() != ref.RingHash() || c.Size() != len(urls) || len(c.Peers()) != len(urls)-1 {
				t.Fatalf("node %d, %s: ring_hash %x size %d peers %v; want %x, %d and the other two",
					i, name, c.RingHash(), c.Size(), c.Peers(), ref.RingHash(), len(urls))
			}
			for _, k := range keys {
				if got, want := c.Owner(k), ref.Owner(k); got != want {
					t.Fatalf("node %d, %s: Owner(%s) = %s, want %s", i, name, k, got, want)
				}
			}
		}
	}
}

// TestFailedRPCSidelinesPeerAtOnce: one failed RPC — no threshold —
// makes that peer unhealthy and leaves every other peer healthy. Every
// peer takes a turn as the victim. A URL outside the peer list is never
// healthy.
func TestFailedRPCSidelinesPeerAtOnce(t *testing.T) {
	setRetryAfter(t, time.Hour)
	urls, _ := startPeers(t, 3)
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
	}
	c, _ := New("http://self:1", urls, Options{})
	if c.Healthy("http://stranger:1") || c.Healthy(c.Self()) {
		t.Error("a URL outside the peer list reads healthy")
	}
}

// TestFailedPeerRecoversThroughProbe: with no other traffic a sidelined
// peer reads healthy again once retryAfter has passed — nothing probes
// it in the background — and the next call to it is the probe: failed,
// it sidelines the peer again at once; answered, it clears the mark at
// once, whatever retryAfter is.
func TestFailedPeerRecoversThroughProbe(t *testing.T) {
	urls, hits := startPeers(t, 1)
	peer := urls[0]
	c, err := New("http://self:1", urls, Options{})
	if err != nil {
		t.Fatal(err)
	}

	setRetryAfter(t, 20*time.Millisecond)
	failOneRPC(t, c, peer)
	for deadline := time.Now().Add(5 * time.Second); !c.Healthy(peer); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a failed peer never read healthy again after retryAfter")
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the peer served %d requests while it waited out retryAfter, want 0", n)
	}

	retryAfter = time.Hour
	failOneRPC(t, c, peer) // the probe fails
	if c.Healthy(peer) {
		t.Fatal("a failed probe left the peer healthy")
	}
	if code, _, err := c.Do(context.Background(), peer, http.MethodGet, "/x", nil); err != nil || code != http.StatusOK {
		t.Fatalf("Do = (%d, %v), want (200, nil)", code, err)
	}
	if !c.Healthy(peer) {
		t.Fatal("an answered RPC did not clear the mark at once")
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
// evidence about the peer — Healthy stays true — while the call's own
// timeout against the same silent peer does count.
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
