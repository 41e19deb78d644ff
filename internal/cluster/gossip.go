package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"micromama/internal/faultinject"
)

// Fault-injection sites on the gossip path (see internal/faultinject).
//
// faultProbeDrop drops an outbound direct ping before it leaves the
// node, forcing the indirect ping-req path (and, if relays also fail,
// suspicion) without any real network trouble.
//
// faultGossipPartition fails every outbound gossip RPC and suppresses
// gossip piggyback headers, isolating the node's failure detector from
// the rest of the cluster while ordinary RPC traffic keeps flowing.
//
// faultGossipFlap makes this node refuse incoming pings with a 503, so
// peers suspect it; the node then learns of the suspicion from the
// member table its ping-reqs and ordinary traffic carry back and must
// refute with a bumped incarnation — the flapping-peer scenario.
var (
	faultProbeDrop       = faultinject.New("cluster/gossip/probe-drop")
	faultGossipPartition = faultinject.New("cluster/gossip/partition")
	faultGossipFlap      = faultinject.New("cluster/gossip/flap")
)

// Gossip endpoint paths. They live under /internal/ next to the other
// peer-only RPCs; nodes register them via RegisterGossipHandlers.
const (
	PathGossipPing    = "/internal/gossip/ping"
	PathGossipPingReq = "/internal/gossip/ping-req"
)

// HeaderGossip piggybacks the member table on ordinary cluster
// traffic: base64url-encoded JSON gossipMsg. Every peer RPC and every
// server response carries one, so membership converges even between
// probe ticks.
const HeaderGossip = "X-Mama-Gossip"

// MemberState is one member's liveness state in the SWIM state
// machine.
type MemberState string

const (
	StateAlive   MemberState = "alive"
	StateSuspect MemberState = "suspect"
	StateDead    MemberState = "dead"
)

// MemberUpdate is one gossiped claim about a member: (url, incarnation,
// state). Precedence between claims about the same member follows
// SWIM: a higher incarnation always wins; at equal incarnations
// suspect overrides alive and dead overrides both. Only the member
// itself ever raises its incarnation (when refuting a suspicion), which
// is what makes the ordering well-defined without clocks.
type MemberUpdate struct {
	URL   string      `json:"url"`
	Inc   uint64      `json:"inc"`
	State MemberState `json:"state"`
}

// member is the local view of one peer (self is never in the table).
type member struct {
	inc       uint64
	state     MemberState
	suspectAt time.Time // when suspicion started (state == StateSuspect)
	// rpcFailed says the last ordinary RPC to the peer failed in
	// transport. It is local evidence, never gossiped: set and cleared by
	// DoTimeout, cleared by an answered probe, written by nothing else.
	rpcFailed bool
}

// MemberInfo is a snapshot of one member for stats endpoints.
type MemberInfo struct {
	URL   string      `json:"url"`
	Inc   uint64      `json:"inc"`
	State MemberState `json:"state"`
}

// ChangeEvent describes one atomic ring transition. Hooks receive it
// synchronously after the new ring is visible, so any Owner() call
// made from a hook already sees the new membership.
type ChangeEvent struct {
	Version uint64   // membership version after this transition
	Members []string // full ring membership including self, sorted
	Joined  []string // peers that entered the ring
	Dead    []string // peers that left the ring (confirmed dead)
}

// GossipOptions tunes the failure detector. Zero values select
// defaults scaled from Interval.
type GossipOptions struct {
	// Interval is the probe cadence (default 1s).
	Interval time.Duration
	// SuspectTimeout is how long a suspected peer has to refute before
	// it is confirmed dead (default 5×Interval).
	SuspectTimeout time.Duration
	// Seeds are join targets: pinged at startup and probed whenever the
	// node finds itself alone. Seeds are not assumed to be members;
	// membership comes from what they answer.
	Seeds []string
}

// indirectProbes is k, the number of relays asked to ping-req a peer
// that failed its direct probe.
const indirectProbes = 2

func (o GossipOptions) withDefaults() GossipOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.SuspectTimeout <= 0 {
		o.SuspectTimeout = 5 * o.Interval
	}
	return o
}

// gossipState is the running failure detector: probe scheduling state
// and loop lifecycle. Membership itself lives on the Cluster, where
// routing and stats read it.
type gossipState struct {
	c    *Cluster
	opts GossipOptions

	mu    sync.Mutex
	order []string // shuffled probe order, consumed round-robin
	idx   int
	rng   *rand.Rand

	startOnce, stopOnce sync.Once
	stop                chan struct{}
	wg                  sync.WaitGroup
}

// gossipMsg is the wire envelope for pings, ping-reqs, and the
// X-Mama-Gossip header. Updates are the sender's whole member table,
// led by its own alive claim, so every message doubles as a heartbeat
// and none can leave a claim behind.
type gossipMsg struct {
	From    string         `json:"from"`
	Version uint64         `json:"v"`
	Ring    uint64         `json:"ring"`
	Updates []MemberUpdate `json:"updates,omitempty"`
}

// pingReqMsg asks a relay to probe Target on the sender's behalf.
type pingReqMsg struct {
	Target string    `json:"target"`
	Msg    gossipMsg `json:"msg"`
}

// pingReqResp reports whether the relay's probe reached Target, plus
// the relay's own member table.
type pingReqResp struct {
	OK  bool      `json:"ok"`
	Msg gossipMsg `json:"msg"`
}

// GossipDigest is the part of a gossip header a client cares about:
// who sent it and the hash of their current ring membership. Clients
// drop their owner-sticky hint when the ring hash changes.
type GossipDigest struct {
	From    string
	Version uint64
	Ring    uint64
}

// DecodeGossipDigest parses an X-Mama-Gossip header value without
// applying its member table (the client side of the protocol).
func DecodeGossipDigest(v string) (GossipDigest, bool) {
	msg, ok := decodeGossip(v)
	if !ok {
		return GossipDigest{}, false
	}
	return GossipDigest{From: msg.From, Version: msg.Version, Ring: msg.Ring}, true
}

func decodeGossip(v string) (gossipMsg, bool) {
	var msg gossipMsg
	if v == "" {
		return msg, false
	}
	b, err := base64.RawURLEncoding.DecodeString(v)
	if err != nil {
		return msg, false
	}
	if err := json.Unmarshal(b, &msg); err != nil {
		return gossipMsg{}, false // not the members Unmarshal filled in before it gave up
	}
	return msg, true
}

// EnableGossip replaces the failure detector's options (New installs
// the defaults, seeded with the bootstrap peers). Call before
// StartGossip and before serving any traffic: the loops and handlers
// read the options without synchronization.
func (c *Cluster) EnableGossip(opts GossipOptions) {
	opts = opts.withDefaults()
	seeds := make([]string, 0, len(opts.Seeds))
	for _, s := range opts.Seeds {
		s = NormalizePeer(s)
		if s != "" && s != c.self {
			seeds = append(seeds, s)
		}
	}
	sort.Strings(seeds)
	opts.Seeds = seeds
	c.gossip.opts = opts
}

// StartGossip launches the probe loop. Idempotent.
func (c *Cluster) StartGossip() {
	g := c.gossip
	g.startOnce.Do(func() {
		g.wg.Add(1)
		go g.run()
	})
}

// StopGossip stops the probe loop and waits for it. Idempotent and
// safe when it was never started.
func (c *Cluster) StopGossip() {
	g := c.gossip
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

func (g *gossipState) run() {
	defer g.wg.Done()
	g.join()
	probe := time.NewTicker(g.opts.Interval)
	defer probe.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-probe.C:
			g.probeOnce()
		}
	}
}

// join pings every seed: both sides of each exchange learn the other's
// whole table. A restarted node (incarnation 0) learns here that the
// cluster holds a dead tombstone for it at incarnation N, refutes with
// N+1, and its next outbound message re-announces it — rejoin needs no
// flag changes and no operator action.
func (g *gossipState) join() {
	for _, s := range g.opts.Seeds {
		select {
		case <-g.stop:
			return
		default:
		}
		g.c.gossipPing(s, g.probeTimeout())
	}
}

// probeOnce is one SWIM protocol period: expire overdue suspicions,
// then probe the next member — direct ping first, k indirect ping-req
// relays on failure, suspicion if nobody can reach it. A node alone
// probes a seed instead; a seed outside the ring cannot be suspected,
// so a lost probe costs nothing.
func (g *gossipState) probeOnce() {
	g.c.expireSuspects(g.opts.SuspectTimeout)
	target := g.nextTarget()
	if target == "" {
		return
	}
	ok := false
	if !faultProbeDrop.Fire() {
		ok = g.c.gossipPing(target, g.probeTimeout())
	}
	if !ok {
		for _, relay := range g.relays(target) {
			if g.c.gossipPingReq(relay, target, g.probeTimeout()) {
				ok = true
				break
			}
		}
	}
	if ok {
		// An answered probe proves liveness directly; clear any local
		// suspicion without waiting for the member's own refutation.
		g.c.probeAnswered(target)
	} else {
		g.c.markSuspect(target)
	}
}

// probeTimeout bounds one probe RPC: comfortably within a protocol
// period so a slow peer fails the direct ping with time left for the
// indirect round, but never pathologically short.
func (g *gossipState) probeTimeout() time.Duration {
	to := g.opts.Interval / 2
	if to < 50*time.Millisecond {
		to = 50 * time.Millisecond
	}
	if to > 2*time.Second {
		to = 2 * time.Second
	}
	return to
}

// nextTarget returns the next peer in the shuffled round-robin probe
// order, reshuffling from current membership at each wrap. Round-robin
// (rather than uniform random) bounds the worst-case detection time:
// every member is probed at least once per n intervals. An alive peer
// whose last RPC failed jumps the queue: routing already avoids it, so
// the detector rules on it — answering, or suspect — within one
// interval, and either verdict takes it out of this fast lane. A node
// with no live peer gets a random seed, which is how a partitioned or
// freshly-started node finds its way back.
func (g *gossipState) nextTarget() string {
	if t := g.c.rpcFailedPeer(); t != "" {
		return t
	}
	peers := g.c.Peers()
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(peers) == 0 {
		if len(g.opts.Seeds) == 0 {
			return ""
		}
		return g.opts.Seeds[g.rng.Intn(len(g.opts.Seeds))]
	}
	alive := make(map[string]bool, len(peers))
	for _, p := range peers {
		alive[p] = true
	}
	for {
		if g.idx >= len(g.order) {
			g.order = append(g.order[:0], peers...)
			g.rng.Shuffle(len(g.order), func(i, j int) {
				g.order[i], g.order[j] = g.order[j], g.order[i]
			})
			g.idx = 0
		}
		t := g.order[g.idx]
		g.idx++
		if alive[t] {
			return t
		}
	}
}

// relays picks up to indirectProbes ring members (excluding self and
// the target) to ask for an indirect probe.
func (g *gossipState) relays(target string) []string {
	peers := g.c.Peers()
	cand := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != target {
			cand = append(cand, p)
		}
	}
	g.mu.Lock()
	g.rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	g.mu.Unlock()
	if len(cand) > indirectProbes {
		cand = cand[:indirectProbes]
	}
	return cand
}

// ---------------------------------------------------------------------------
// Membership mutation. All of it funnels through applyUpdates /
// markSuspect / clearSuspect / expireSuspects, each of which rebuilds
// the ring atomically and fires change hooks when the alive set moved.

// applyUpdates merges a batch of gossiped claims into the member
// table under the SWIM precedence rules, rebuilding the ring once for
// the whole batch.
func (c *Cluster) applyUpdates(updates []MemberUpdate) {
	if len(updates) == 0 {
		return
	}
	c.memMu.Lock()
	before := c.ringMembersLocked()
	for _, u := range updates {
		c.applyOneLocked(u)
	}
	ev, changed := c.rebuildLocked(before)
	c.memMu.Unlock()
	if changed {
		c.fireHooks(ev)
	}
}

func (c *Cluster) applyOneLocked(u MemberUpdate) {
	u.URL = NormalizePeer(u.URL)
	if u.URL == "" {
		return
	}
	if u.State != StateAlive && u.State != StateSuspect && u.State != StateDead {
		return
	}
	if u.URL == c.self {
		// Somebody thinks we are suspect or dead. Refute: bump our
		// incarnation past theirs. Every outbound message leads with the
		// new alive claim, which overrides theirs everywhere it has spread.
		if u.State != StateAlive && u.Inc >= c.selfInc {
			c.selfInc = u.Inc + 1
			c.refutes.Add(1)
		}
		return
	}
	m, ok := c.members[u.URL]
	if !ok {
		m = &member{inc: u.Inc, state: u.State}
		switch u.State {
		case StateSuspect:
			m.suspectAt = time.Now()
			c.suspectsCount.Add(1)
		case StateDead:
			c.confirmsCount.Add(1)
		}
		c.members[u.URL] = m
		return
	}
	applies := false
	switch u.State {
	case StateAlive:
		// Alive only wins with a strictly higher incarnation: at equal
		// incarnations suspicion sticks until the member refutes.
		applies = u.Inc > m.inc
	case StateSuspect:
		applies = u.Inc > m.inc || (u.Inc == m.inc && m.state == StateAlive)
	case StateDead:
		// Dead is irrefutable at its incarnation; only a higher-
		// incarnation alive claim (a refutation or a restart that
		// learned its tombstone) resurrects the member.
		applies = u.Inc > m.inc || (u.Inc == m.inc && m.state != StateDead)
	}
	if !applies {
		return
	}
	prev := m.state
	m.inc, m.state = u.Inc, u.State
	switch {
	case u.State == StateSuspect:
		m.suspectAt = time.Now()
		c.suspectsCount.Add(1)
	case u.State == StateDead && prev != StateDead:
		c.confirmsCount.Add(1)
	}
}

// markSuspect starts suspicion on a peer that failed both direct and
// indirect probes.
func (c *Cluster) markSuspect(peer string) {
	peer = NormalizePeer(peer)
	c.memMu.Lock()
	defer c.memMu.Unlock()
	m, ok := c.members[peer]
	if !ok || m.state != StateAlive {
		return
	}
	m.state = StateSuspect
	m.suspectAt = time.Now()
	c.suspectsCount.Add(1)
}

// probeAnswered records a successful direct or indirect probe: it
// reverts a local suspicion and clears a failed-RPC mark. Local-only in
// effect: the alive claim it leaves has the suspicion's incarnation, so
// it overrides nobody else's. Remote suspicions are cleared by the
// member's own incarnation-bumping refutation, prompted by the
// suspicion every message to it carries.
func (c *Cluster) probeAnswered(peer string) {
	peer = NormalizePeer(peer)
	c.memMu.Lock()
	defer c.memMu.Unlock()
	m, ok := c.members[peer]
	if !ok {
		return
	}
	if m.state == StateSuspect {
		m.state = StateAlive
	}
	m.rpcFailed = false
}

// setRPCFailed records the transport outcome of an ordinary peer RPC
// (DoTimeout is the only caller). A peer not in the table has no health
// to record: Healthy already rejects it.
func (c *Cluster) setRPCFailed(peer string, failed bool) {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	if m, ok := c.members[peer]; ok {
		m.rpcFailed = failed
	}
}

// rpcFailedPeer returns an alive member whose last RPC failed, or "".
func (c *Cluster) rpcFailedPeer() string {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	for url, m := range c.members {
		if m.rpcFailed && m.state == StateAlive {
			return url
		}
	}
	return ""
}

// expireSuspects confirms dead every member suspected longer than the
// timeout, removing them from the ring.
func (c *Cluster) expireSuspects(timeout time.Duration) {
	now := time.Now()
	c.memMu.Lock()
	before := c.ringMembersLocked()
	for _, m := range c.members {
		if m.state == StateSuspect && now.Sub(m.suspectAt) >= timeout {
			m.state = StateDead
			c.confirmsCount.Add(1)
		}
	}
	ev, changed := c.rebuildLocked(before)
	c.memMu.Unlock()
	if changed {
		c.fireHooks(ev)
	}
}

// ringMembersLocked returns the current ring membership: self plus
// every non-dead member, sorted.
func (c *Cluster) ringMembersLocked() []string {
	out := make([]string, 0, len(c.members)+1)
	out = append(out, c.self)
	for url, m := range c.members {
		if m.state != StateDead {
			out = append(out, url)
		}
	}
	sort.Strings(out)
	return out
}

// rebuildLocked swaps in a new ring if the alive set changed, bumping
// the membership version and building the change event.
func (c *Cluster) rebuildLocked(before []string) (ChangeEvent, bool) {
	after := c.ringMembersLocked()
	if stringSlicesEqual(before, after) {
		return ChangeEvent{}, false
	}
	ring := NewRing(after, 0)
	c.ring.Store(ring)
	c.ringHash.Store(hash64(joinPeers(after)))
	v := c.version.Add(1)
	return ChangeEvent{
		Version: v,
		Members: after,
		Joined:  diffStrings(after, before),
		Dead:    diffStrings(before, after),
	}, true
}

// outMsg builds one outbound gossip envelope: the node's own alive
// claim, then every member claim in URL order, dead tombstones included
// (so a restarted member learns its own tombstone and refutes).
func (c *Cluster) outMsg() gossipMsg {
	c.memMu.Lock()
	ups := make([]MemberUpdate, 0, len(c.members)+1)
	ups = append(ups, MemberUpdate{URL: c.self, Inc: c.selfInc, State: StateAlive})
	for url, m := range c.members {
		ups = append(ups, MemberUpdate{URL: url, Inc: m.inc, State: m.state})
	}
	c.memMu.Unlock()
	sort.Slice(ups[1:], func(i, j int) bool { return ups[1+i].URL < ups[1+j].URL })
	return gossipMsg{From: c.self, Version: c.version.Load(), Ring: c.ringHash.Load(), Updates: ups}
}

// ---------------------------------------------------------------------------
// Transport.

// gossipPing sends one direct ping. The response's member table (led
// by the target's own alive claim) is applied on success.
func (c *Cluster) gossipPing(target string, timeout time.Duration) bool {
	resp, ok := c.gossipPost(target, PathGossipPing, c.outMsg(), timeout)
	if !ok {
		return false
	}
	c.applyUpdates(resp.Updates)
	return true
}

// gossipPingReq asks relay to probe target on our behalf.
func (c *Cluster) gossipPingReq(relay, target string, timeout time.Duration) bool {
	if faultGossipPartition.Fire() {
		return false
	}
	body, _ := json.Marshal(pingReqMsg{Target: target, Msg: c.outMsg()})
	// The relay needs its own probe timeout inside ours.
	raw, ok := c.gossipRoundTrip(relay, PathGossipPingReq, body, 2*timeout)
	if !ok {
		return false
	}
	var pr pingReqResp
	if json.Unmarshal(raw, &pr) != nil {
		return false
	}
	c.applyUpdates(pr.Msg.Updates)
	return pr.OK
}

func (c *Cluster) gossipPost(target, path string, msg gossipMsg, timeout time.Duration) (gossipMsg, bool) {
	if faultGossipPartition.Fire() {
		return gossipMsg{}, false
	}
	body, _ := json.Marshal(msg)
	raw, ok := c.gossipRoundTrip(target, path, body, timeout)
	if !ok {
		return gossipMsg{}, false
	}
	var resp gossipMsg
	if json.Unmarshal(raw, &resp) != nil {
		return gossipMsg{}, false
	}
	return resp, true
}

// gossipRoundTrip is the raw HTTP exchange for gossip RPCs. A failed
// one deliberately does not mark the peer's last RPC failed: a lost
// probe already has its own consequence (the indirect round, then
// suspicion), and a join ping or relay lost to a busy peer is no
// reason to route around it.
func (c *Cluster) gossipRoundTrip(target, path string, body []byte, timeout time.Duration) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, false
	}
	return raw, true
}

// ---------------------------------------------------------------------------
// HTTP handlers and the piggyback header.

// RegisterGossipHandlers mounts the gossip endpoints on a mux.
func (c *Cluster) RegisterGossipHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathGossipPing, c.handleGossipPing)
	mux.HandleFunc("POST "+PathGossipPingReq, c.handleGossipPingReq)
}

func (c *Cluster) handleGossipPing(w http.ResponseWriter, r *http.Request) {
	if faultGossipFlap.Fire() {
		http.Error(w, "gossip flap injected", http.StatusServiceUnavailable)
		return
	}
	var msg gossipMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err == nil {
		c.applyUpdates(msg.Updates)
	}
	writeGossipJSON(w, c.outMsg())
}

func (c *Cluster) handleGossipPingReq(w http.ResponseWriter, r *http.Request) {
	var req pingReqMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad ping-req body", http.StatusBadRequest)
		return
	}
	c.applyUpdates(req.Msg.Updates)
	target := NormalizePeer(req.Target)
	ok := false
	if target != "" && target != c.self {
		// Relay's own probe, subject to the same partition fault.
		ok = c.gossipPing(target, c.gossip.probeTimeout())
	}
	writeGossipJSON(w, pingReqResp{OK: ok, Msg: c.outMsg()})
}

func writeGossipJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("encode gossip response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Write(b)
}

// GossipHeaderValue returns the X-Mama-Gossip value to attach to an
// outbound request or response, or "" when the partition fault is
// isolating this node.
func (c *Cluster) GossipHeaderValue() string {
	if faultGossipPartition.Fire() {
		return ""
	}
	b, err := json.Marshal(c.outMsg())
	if err != nil {
		return ""
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// ApplyGossipHeader merges the member table piggybacked on an incoming
// request or a peer response; a value that does not decode is ignored.
func (c *Cluster) ApplyGossipHeader(v string) {
	if msg, ok := decodeGossip(v); ok {
		c.applyUpdates(msg.Updates)
	}
}

// ---------------------------------------------------------------------------
// Snapshots for stats.

// Members snapshots the full member table including self and dead
// tombstones, sorted by URL.
func (c *Cluster) Members() []MemberInfo {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	out := make([]MemberInfo, 0, len(c.members)+1)
	out = append(out, MemberInfo{URL: c.self, Inc: c.selfInc, State: StateAlive})
	for url, m := range c.members {
		out = append(out, MemberInfo{URL: url, Inc: m.inc, State: m.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// MembershipVersion returns the node-local membership version: bumped
// once per atomic ring transition.
func (c *Cluster) MembershipVersion() uint64 { return c.version.Load() }

// RingHash returns a stable hash of the sorted ring membership.
// Identical on every converged node, unlike the node-local version.
func (c *Cluster) RingHash() uint64 { return c.ringHash.Load() }

// SelfIncarnation returns this node's current incarnation number.
func (c *Cluster) SelfIncarnation() uint64 {
	c.memMu.Lock()
	defer c.memMu.Unlock()
	return c.selfInc
}

// GossipCounts returns the lifetime suspicion / refutation /
// confirm-dead counters.
func (c *Cluster) GossipCounts() (suspects, refutes, confirms uint64) {
	return c.suspectsCount.Load(), c.refutes.Load(), c.confirmsCount.Load()
}

// OnChange registers a hook called synchronously after every atomic
// ring transition. Register hooks before StartGossip and before
// serving traffic; registration is not synchronized with firing.
func (c *Cluster) OnChange(fn func(ChangeEvent)) {
	c.hooksMu.Lock()
	c.hooks = append(c.hooks, fn)
	c.hooksMu.Unlock()
}

func (c *Cluster) fireHooks(ev ChangeEvent) {
	c.hooksMu.Lock()
	hooks := append([]func(ChangeEvent){}, c.hooks...)
	c.hooksMu.Unlock()
	for _, fn := range hooks {
		fn(ev)
	}
}

// ---------------------------------------------------------------------------
// Small helpers.

func joinPeers(peers []string) string {
	var b bytes.Buffer
	for i, p := range peers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p)
	}
	return b.String()
}

func stringSlicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffStrings returns the elements of a not present in b (both
// sorted).
func diffStrings(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}
