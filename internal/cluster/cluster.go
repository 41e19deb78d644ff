package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
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
// faultPeerDown makes Healthy report a peer down without any RPC or
// probe having failed — the "owning shard died" scenario, letting chaos
// tests force the degrade-to-local path deterministically.
var (
	faultPartition = faultinject.New("cluster/rpc/partition")
	faultPeerDown  = faultinject.New("cluster/peer/down")
)

// ErrPartitioned marks an RPC suppressed by the partition fault site.
var ErrPartitioned = fmt.Errorf("cluster: injected partition")

// Options tunes a Cluster. Zero values select production defaults.
type Options struct {
	// RPCTimeout bounds one peer RPC (default 10s). Job proxying uses
	// its own, longer deadline derived from the job timeout.
	RPCTimeout time.Duration
}

// Cluster is one node's view of the peer set: the member table, the
// ring built from it, and the HTTP client used for peer RPCs. Safe for
// concurrent use.
//
// Membership starts from the bootstrap peer list and evolves at
// runtime: the SWIM failure detector in gossip.go mutates the member
// table and every transition rebuilds the ring and swaps it in
// atomically, so readers always see a complete, internally-consistent
// ring. The member table is also the one record of peer health (see
// Healthy).
type Cluster struct {
	self  string
	hc    *http.Client
	rpcTO time.Duration

	// Membership state. ring/ringHash/version are lock-free snapshots
	// for the hot routing path; the member table behind them is guarded
	// by memMu and mutated only in gossip.go.
	ring     atomic.Pointer[Ring]
	ringHash atomic.Uint64
	version  atomic.Uint64

	memMu   sync.Mutex
	members map[string]*member // peers only, never self
	selfInc uint64             // this node's incarnation

	hooksMu sync.Mutex
	hooks   []func(ChangeEvent)

	suspectsCount atomic.Uint64
	refutes       atomic.Uint64
	confirmsCount atomic.Uint64

	gossip *gossipState
}

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

// New builds a node's cluster view. self must appear in peers (it is
// added if absent) so every node computes ownership over the identical
// set. A cluster of one (or an empty peer list) is valid and routes
// everything to self until gossip brings in more members. The failure
// detector is built with default GossipOptions and the bootstrap peers
// as seeds; EnableGossip replaces those before StartGossip.
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
		self:    self,
		hc:      &http.Client{Transport: NewTransport()},
		rpcTO:   opts.RPCTimeout,
		members: make(map[string]*member),
	}
	// Bootstrap peers enter the table alive at incarnation 0; the ring
	// over them is identical on every node that holds the same list.
	for _, p := range ring.Peers() {
		if p != self {
			c.members[p] = &member{inc: 0, state: StateAlive}
		}
	}
	c.ring.Store(ring)
	c.ringHash.Store(hash64(joinPeers(ring.Peers())))
	c.version.Store(1)
	c.gossip = &gossipState{
		c:    c,
		rng:  rand.New(rand.NewSource(int64(hash64(self)))), // deterministic per node
		stop: make(chan struct{}),
	}
	c.EnableGossip(GossipOptions{Seeds: peers})
	return c, nil
}

// Self returns this node's normalized advertised URL.
func (c *Cluster) Self() string { return c.self }

// Peers returns every current ring member except self.
func (c *Cluster) Peers() []string {
	peers := c.ring.Load().Peers()
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != c.self {
			out = append(out, p)
		}
	}
	return out
}

// Size returns the total ring membership including self.
func (c *Cluster) Size() int { return len(c.ring.Load().Peers()) }

// Owner returns the peer owning a routing key. Job routing hashes the
// key's 16-hex-digit prefix — exactly the digits embedded in the job
// ID — so ownership is computable both from a full job key and from a
// bare job ID (see OwnerOfJobID).
func (c *Cluster) Owner(key string) string {
	if len(key) > 16 {
		key = key[:16]
	}
	return c.ring.Load().Owner(key)
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

// Contains reports whether a URL is in the current ring (self
// included). During membership convergence two nodes can briefly
// disagree on this; callers that need agreement (e.g. anti-entropy
// repair) should retry rather than trust one snapshot.
func (c *Cluster) Contains(peer string) bool {
	peer = NormalizePeer(peer)
	for _, p := range c.ring.Load().Peers() {
		if p == peer {
			return true
		}
	}
	return false
}

// Healthy reports whether routing should use a peer: the failure
// detector holds it alive and the last RPC to it did not fail. One
// failed RPC sidelines the peer at once and makes it the next probe
// target, so within one gossip interval it is either answering again
// or on its way to confirmed dead; there is no threshold or cooldown.
func (c *Cluster) Healthy(peer string) bool {
	if faultPeerDown.Fire() {
		return false
	}
	c.memMu.Lock()
	defer c.memMu.Unlock()
	m, ok := c.members[peer]
	return ok && m.state == StateAlive && !m.rpcFailed
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
			c.setRPCFailed(peer, true)
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
	if g := c.GossipHeaderValue(); g != "" {
		req.Header.Set(HeaderGossip, g)
	}
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
	c.setRPCFailed(peer, false)
	// Ordinary cluster traffic doubles as a gossip channel: merge the
	// peer's piggybacked member table.
	c.ApplyGossipHeader(resp.Header.Get(HeaderGossip))
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
