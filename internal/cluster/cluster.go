package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"micromama/internal/faultinject"
)

// Fault-injection sites on the cluster path (see internal/faultinject).
//
// faultPartition fails an outbound peer RPC as if the network were
// partitioned: the request never leaves the node and the error feeds
// the peer's health breaker, exactly like a real unreachable host.
//
// faultPeerDown makes the health breaker report a peer dead without
// any RPC having failed — the "owning shard died" scenario, letting
// chaos tests force the degrade-to-local path deterministically.
var (
	faultPartition = faultinject.New("cluster/rpc/partition")
	faultPeerDown  = faultinject.New("cluster/peer/down")
)

// ErrPartitioned marks an RPC suppressed by the partition fault site.
var ErrPartitioned = fmt.Errorf("cluster: injected partition")

// Options tunes a Cluster. Zero values select production defaults.
type Options struct {
	// Vnodes is the virtual-node count per peer (default DefaultVnodes).
	Vnodes int
	// FailureThreshold is how many consecutive RPC failures open a
	// peer's breaker (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker reports the peer unhealthy
	// before allowing a probe (default 2s).
	Cooldown time.Duration
	// RPCTimeout bounds one peer RPC (default 10s). Job proxying uses
	// its own, longer deadline derived from the job timeout.
	RPCTimeout time.Duration
	// HTTPClient overrides the peer HTTP client (tests). When nil a
	// client with a connection-reusing transport is built: proxying a
	// stream of jobs to the same few peers must not pay per-request
	// connection setup.
	HTTPClient *http.Client
}

// peerHealth is one peer's breaker state.
type peerHealth struct {
	failures  int       // consecutive failures
	openUntil time.Time // unhealthy until this instant once open
}

// Cluster is one node's view of the peer set: versioned membership,
// the ring, the breaker table, and the HTTP client used for peer RPCs.
// Safe for concurrent use.
//
// Membership starts from the bootstrap peer list and, when gossip is
// enabled (EnableGossip), evolves at runtime: the SWIM failure
// detector in gossip.go mutates the member table and every transition
// rebuilds the ring and swaps it in atomically, so readers always see
// a complete, internally-consistent ring.
type Cluster struct {
	self   string
	vnodes int
	hc     *http.Client
	rpcTO  time.Duration

	failureThreshold int
	cooldown         time.Duration

	mu     sync.Mutex
	health map[string]*peerHealth

	// Membership state. ring/ringHash/version are lock-free snapshots
	// for the hot routing path; the member table behind them is guarded
	// by memMu and mutated only in gossip.go.
	ring     atomic.Pointer[Ring]
	ringHash atomic.Uint64
	version  atomic.Uint64

	memMu   sync.Mutex
	members map[string]*member       // peers only, never self
	selfInc uint64                   // this node's incarnation
	queue   map[string]*queuedUpdate // piggyback deltas awaiting retransmission

	hooksMu sync.Mutex
	hooks   []func(ChangeEvent)

	suspectsCount atomic.Uint64
	refutes       atomic.Uint64
	confirmsCount atomic.Uint64

	gossip *gossipState // nil → static membership
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
// everything to self.
func New(self string, peers []string, opts Options) (*Cluster, error) {
	self = NormalizePeer(self)
	if self == "" {
		return nil, fmt.Errorf("cluster: self URL is required when peers are configured")
	}
	if opts.Vnodes <= 0 {
		opts.Vnodes = DefaultVnodes
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 2 * time.Second
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 10 * time.Second
	}
	all := append([]string{self}, peers...)
	ring := NewRing(all, opts.Vnodes)
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: NewTransport()}
	}
	c := &Cluster{
		self:             self,
		vnodes:           opts.Vnodes,
		hc:               hc,
		rpcTO:            opts.RPCTimeout,
		failureThreshold: opts.FailureThreshold,
		cooldown:         opts.Cooldown,
		health:           make(map[string]*peerHealth),
		members:          make(map[string]*member),
		queue:            make(map[string]*queuedUpdate),
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
	return c, nil
}

// LoadMembership reads a JSON membership file: either a bare array of
// peer URLs or {"peers": [...]}.
func LoadMembership(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read membership file: %w", err)
	}
	var bare []string
	if err := json.Unmarshal(b, &bare); err == nil {
		return bare, nil
	}
	var obj struct {
		Peers []string `json:"peers"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return nil, fmt.Errorf("cluster: parse membership file %s: %w", path, err)
	}
	if len(obj.Peers) == 0 {
		return nil, fmt.Errorf("cluster: membership file %s lists no peers", path)
	}
	return obj.Peers, nil
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

// Healthy reports whether a peer's breaker admits traffic: closed, or
// open but past its cooldown (one probe is allowed through; a success
// closes the breaker, another failure re-opens it).
func (c *Cluster) Healthy(peer string) bool {
	if faultPeerDown.Fire() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.health[peer]
	if !ok || h.failures < c.failureThreshold {
		return true
	}
	return time.Now().After(h.openUntil)
}

// ReportSuccess closes a peer's breaker.
func (c *Cluster) ReportSuccess(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.health, peer)
}

// ReportFailure records one RPC failure; at FailureThreshold
// consecutive failures the breaker opens for Cooldown.
func (c *Cluster) ReportFailure(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.health[peer]
	if !ok {
		h = &peerHealth{}
		c.health[peer] = h
	}
	h.failures++
	if h.failures >= c.failureThreshold {
		h.openUntil = time.Now().Add(c.cooldown)
	}
}

// UnhealthyPeers snapshots the peers whose breakers are currently
// open (for /v1/stats).
func (c *Cluster) UnhealthyPeers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	var out []string
	for p, h := range c.health {
		if h.failures >= c.failureThreshold && now.Before(h.openUntil) {
			out = append(out, p)
		}
	}
	return out
}

// Do performs one peer RPC: method+path against the peer's base URL,
// with an optional JSON body, bounded by the RPC timeout (or the
// context, whichever ends first). Outcomes feed the peer's breaker.
// A fired partition site fails the call without touching the network.
func (c *Cluster) Do(ctx context.Context, peer, method, path string, body []byte) (int, []byte, error) {
	return c.DoTimeout(ctx, peer, method, path, body, c.rpcTO)
}

// DoTimeout is Do with an explicit per-call timeout (job proxying
// needs deadlines derived from the job's own timeout).
func (c *Cluster) DoTimeout(ctx context.Context, peer, method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	if faultPartition.Fire() {
		c.ReportFailure(peer)
		return 0, nil, ErrPartitioned
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
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
		c.ReportFailure(peer)
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		c.ReportFailure(peer)
		return 0, nil, err
	}
	// Any HTTP answer means the peer process is alive; 4xx/5xx are its
	// considered opinion, not a transport failure.
	c.ReportSuccess(peer)
	// Ordinary cluster traffic doubles as a gossip channel: merge the
	// peer's piggybacked membership deltas.
	c.ApplyGossipHeader(resp.Header.Get(HeaderGossip))
	return resp.StatusCode, b, nil
}

// Header names of the cluster routing protocol.
const (
	// HeaderForwarded marks a request already routed once; the receiver
	// must handle it locally (loop prevention).
	HeaderForwarded = "X-Mama-Forwarded"
	// HeaderOwner carries the owning peer's URL on routed responses so
	// cluster-aware clients can talk to the owner directly next time.
	HeaderOwner = "X-Mama-Owner"
)

// MaxResultWait is the longest a node holds GET /v1/jobs/{id}/result?wait=
// open. It lives here because every hop has to agree on it: the serving
// node caps wait at it, a forwarding node's proxy timeout sits above
// it, and the client judges a 202 "early" against it.
const MaxResultWait = 30 * time.Second
