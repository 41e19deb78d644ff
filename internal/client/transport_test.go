package client

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// countingServer is an httptest server that counts fresh TCP
// connections via the ConnState hook — the observable difference
// between a keep-alive client and one that redials per request.
func countingServer(t testing.TB, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var newConns atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			newConns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &newConns
}

// TestConnectionReuse proves the tuned default transport keeps the
// connection alive across a polling-style sequence of requests: 50
// sequential calls must not open 50 sockets.
func TestConnectionReuse(t *testing.T) {
	ts, newConns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	c := New(ts.URL, Options{})
	ctx := context.Background()
	const calls = 50
	for i := 0; i < calls; i++ {
		resp, err := c.Get(ctx, "/v1/stats")
		if err != nil || resp.Status != http.StatusOK {
			t.Fatalf("call %d: status=%v err=%v", i, resp, err)
		}
	}
	if got := newConns.Load(); got > 3 {
		t.Fatalf("client opened %d connections for %d sequential requests; want <= 3 (keep-alive reuse)", got, calls)
	}
}

// TestOwnerHeaderDoesNotRoute: the client sends every request to its
// base URL, even after a response that names another node as the key's
// owner.
func TestOwnerHeaderDoesNotRoute(t *testing.T) {
	var ownerHits, baseHits atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ownerHits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer owner.Close()
	base := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		baseHits.Add(1)
		w.Header().Set("X-Mama-Owner", owner.URL)
		w.WriteHeader(http.StatusOK)
	}))
	defer base.Close()

	c := New(base.URL, Options{})
	for i := 0; i < 2; i++ {
		if _, err := c.Get(context.Background(), "/v1/jobs/j1"); err != nil {
			t.Fatal(err)
		}
	}
	if baseHits.Load() != 2 || ownerHits.Load() != 0 {
		t.Fatalf("base=%d owner=%d hits, want 2/0", baseHits.Load(), ownerHits.Load())
	}
}

// BenchmarkClientConnReuse measures request throughput over the tuned
// keep-alive transport versus a deliberately non-reusing one; the
// per-op delta is the dial+handshake cost the default now avoids.
func BenchmarkClientConnReuse(b *testing.B) {
	ts, _ := countingServer(b, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	ctx := context.Background()

	b.Run("keepalive", func(b *testing.B) {
		c := New(ts.URL, Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(ctx, "/v1/stats"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-keepalive", func(b *testing.B) {
		tr := newTransport()
		tr.DisableKeepAlives = true
		c := New(ts.URL, Options{HTTPClient: &http.Client{Transport: tr}})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(ctx, "/v1/stats"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
