package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"micromama/internal/faultinject"
)

// Fault-injection sites on the cluster path (see internal/faultinject).
//
// faultPartition fails an outbound peer RPC as if the network were
// partitioned: the request never leaves the node and the failure is
// booked against the peer, exactly like a real unreachable host.
//
// faultPeerDown makes Healthy report a peer down without any RPC
// having failed — the "owning shard died" scenario, letting chaos
// tests force the degrade-to-local path deterministically.
var (
	faultPartition = faultinject.New("cluster/rpc/partition")
	faultPeerDown  = faultinject.New("cluster/peer/down")
)

// ErrPartitioned marks an RPC suppressed by the partition fault site.
var ErrPartitioned = fmt.Errorf("cluster: injected partition")

// retryAfter is how long a peer whose last RPC failed in transport is
// passed over. After it Healthy reads true again, and the next call to
// the peer is the probe: answered, it clears the mark; failed, it starts
// the wait over. There is no background prober. One second: a dead peer
// costs each node about one failed call a second, and a restarted one is
// used again within a second. A variable only so tests can shrink it.
var retryAfter = time.Second

// Options tunes a Cluster. Zero values select production defaults.
type Options struct {
	// RPCTimeout bounds one peer RPC (default 10s). Job proxying uses
	// its own, longer deadline derived from the job timeout.
	RPCTimeout time.Duration
}

// Cluster is one node's view of the peer set: the peer list it was
// built from, fixed for the life of the process, the ring over it, each
// peer's last RPC outcome, and the HTTP client used for peer RPCs. Safe
// for concurrent use.
type Cluster struct {
	self     string
	hc       *http.Client
	rpcTO    time.Duration
	ring     *Ring
	ringHash uint64
	peers    []string // ring members except self, sorted

	// failedAt holds, per peer, when its last RPC failed in transport
	// (nanoseconds since born, never 0), or 0 once one was answered. The
	// map is built in New and only its values change.
	failedAt map[string]*atomic.Int64
	born     time.Time
}

// GossipOptions and EnableGossip do nothing. They are kept only because
// the benchmark module (bench/mamaload) compiles against this package and
// still calls cl.EnableGossip(cluster.GossipOptions{Seeds: urls}); both go
// when bench/ next changes. Membership is the peer list New was given.
type GossipOptions struct {
	Seeds []string
}

// EnableGossip does nothing; see GossipOptions.
func (c *Cluster) EnableGossip(GossipOptions) {}

// NewTransport returns an http.Transport tuned for cluster traffic:
// keep-alives on with enough idle connections per peer that a node
// proxying or polling a burst of jobs reuses sockets instead of
// re-dialing. The Go default of 2 idle conns per host discards and
// re-establishes connections under exactly the fan-in a shard sees.
func NewTransport() *http.Transport {
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   true,
	}
}

// New builds a node's cluster view over a fixed peer list. self is added
// to peers if absent, so every node given the same list computes
// ownership over the identical set, whatever its order or spelling. A
// cluster of one (or an empty peer list) is valid and routes everything
// to self.
func New(self string, peers []string, opts Options) (*Cluster, error) {
	self = NormalizePeer(self)
	if self == "" {
		return nil, fmt.Errorf("cluster: self URL is required when peers are configured")
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 10 * time.Second
	}
	ring := NewRing(append([]string{self}, peers...), 0)
	c := &Cluster{
		self:     self,
		hc:       &http.Client{Transport: NewTransport()},
		rpcTO:    opts.RPCTimeout,
		ring:     ring,
		ringHash: hash64(strings.Join(ring.Peers(), ",")),
		failedAt: make(map[string]*atomic.Int64),
		born:     time.Now(),
	}
	for _, p := range ring.Peers() {
		if p != self {
			c.peers = append(c.peers, p)
			c.failedAt[p] = new(atomic.Int64)
		}
	}
	return c, nil
}

// Self returns this node's normalized advertised URL.
func (c *Cluster) Self() string { return c.self }

// Peers returns every ring member except self, sorted. Callers must not
// mutate it.
func (c *Cluster) Peers() []string { return c.peers }

// Size returns the total ring membership including self.
func (c *Cluster) Size() int { return len(c.ring.Peers()) }

// RingHash returns a stable hash of the sorted ring membership: equal on
// every node given the same peer list.
func (c *Cluster) RingHash() uint64 { return c.ringHash }

// Owner returns the peer owning a routing key. Job routing hashes the
// key's 16-hex-digit prefix — exactly the digits embedded in the job
// ID — so ownership is computable both from a full job key and from a
// bare job ID (see OwnerOfJobID). It is a pure function of the key and
// the peer list: a peer's health never moves a key.
func (c *Cluster) Owner(key string) string {
	if len(key) > 16 {
		key = key[:16]
	}
	return c.ring.Owner(key)
}

// OwnerOfJobID routes a job ID ("j" + 16 hex digits of the key): the
// ID embeds the routing prefix, so any node can locate a job's owner
// without knowing the full spec.
func (c *Cluster) OwnerOfJobID(id string) string {
	if len(id) > 1 && id[0] == 'j' {
		id = id[1:]
	}
	return c.Owner(id)
}

// IsSelf reports whether a peer URL names this node.
func (c *Cluster) IsSelf(peer string) bool { return NormalizePeer(peer) == c.self }

// Healthy reports whether routing should use a peer: it is in the peer
// list and its last RPC did not fail in transport, or failed at least
// retryAfter ago. One failed RPC sidelines the peer at once; one
// answered RPC restores it at once.
func (c *Cluster) Healthy(peer string) bool {
	if faultPeerDown.Fire() {
		return false
	}
	f, ok := c.failedAt[peer]
	if !ok {
		return false
	}
	at := f.Load()
	return at == 0 || time.Duration(c.since()-at) >= retryAfter
}

// since is the failedAt clock: monotonic, and never 0.
func (c *Cluster) since() int64 { return int64(time.Since(c.born)) + 1 }

// record books the transport outcome of one peer RPC (DoTimeout is the
// only caller). A URL outside the peer list has no health to record:
// Healthy already rejects it.
func (c *Cluster) record(peer string, failed bool) {
	f, ok := c.failedAt[peer]
	switch {
	case !ok:
	case failed:
		f.Store(c.since())
	case f.Load() != 0:
		f.Store(0)
	}
}

// Do performs one peer RPC: method+path against the peer's base URL,
// with an optional JSON body, bounded by the RPC timeout (or the
// context, whichever ends first). The outcome is recorded as the peer's
// last RPC outcome (see Healthy). A fired partition site fails the call
// without touching the network.
func (c *Cluster) Do(ctx context.Context, peer, method, path string, body []byte) (int, []byte, error) {
	return c.DoTimeout(ctx, peer, method, path, body, c.rpcTO)
}

// DoTimeout is Do with an explicit per-call timeout (job proxying
// needs deadlines derived from the job's own timeout).
func (c *Cluster) DoTimeout(parent context.Context, peer, method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	// fail books a transport failure against the peer — unless the
	// caller's own context ended the call (a client that hung up, this
	// node shutting down), which says nothing about the peer. The call's
	// own timeout does count.
	fail := func(err error) (int, []byte, error) {
		if parent.Err() == nil {
			c.record(peer, true)
		}
		return 0, nil, err
	}
	if faultPartition.Fire() {
		return fail(ErrPartitioned)
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(HeaderForwarded, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fail(err)
	}
	// Any HTTP answer means the peer process is alive; 4xx/5xx are its
	// considered opinion, not a transport failure.
	c.record(peer, false)
	return resp.StatusCode, b, nil
}

// HeaderForwarded marks a request already routed once; the receiver
// must handle it locally (loop prevention).
const HeaderForwarded = "X-Mama-Forwarded"

// MaxResultWait is the longest a node holds GET /v1/jobs/{id}/result?wait=
// open. It lives here because every hop has to agree on it: the serving
// node caps wait at it, a forwarding node's proxy timeout sits above
// it, and the client judges a 202 "early" against it.
const MaxResultWait = 30 * time.Second
