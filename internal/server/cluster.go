// Cluster integration: this file is everything mamaserved does when it
// is one node of a sharded cluster (Config.Cluster != nil).
//
// Two mechanisms and one dispatch rule, all built on the consistent-hash
// ring in internal/cluster and the content-addressed job key:
//
//   - Routing. Any node accepts any request. Interactive submissions
//     resolve the job key, look up the owning peer, and proxy there —
//     the owner's cache and singleflight see every copy of a job, so
//     the cluster computes each key at most once. Lookups by job ID
//     route the same way (the ID embeds the key's routing prefix). A
//     dead or partitioned owner degrades to local compute: slower,
//     never an error.
//
//   - Distributed result cache. The owner is the authoritative copy of
//     a key's result. Sweep admission batch-fetches remote-owned keys
//     from their owners (one RPC per peer), so a warm cluster dedupes
//     a resubmitted sweep entirely at admission, no matter which node
//     receives it. A node that computes a key it does not own (degraded
//     or spilled work) pushes the result back to the owner best-effort.
//
//   - The dispatch rule. The node a sweep was submitted to is the only
//     one that moves its cells: a dequeued cell goes to its owner when
//     that is a healthy peer with a free slot; a self-owned cell, or
//     any cell when no peer slot is free, runs on the worker that
//     dequeued it; otherwise it goes to any other healthy peer with a
//     free slot. The job stays in this node's registry, running, for as
//     long as it is out, so a submission of that key here coalesces
//     onto it, and a peer that dies holding it hands the cell back as
//     pending (errPeerUnavailable).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
)

// errPeerUnavailable marks a job outcome caused by the peer executing
// it being unreachable or gone, not by the simulation: settle hands the
// cell back as pending and it re-runs somewhere else, since the failed
// RPC has already marked the peer unhealthy.
var errPeerUnavailable = errors.New("cluster: executing peer unavailable")

// clusterMetrics is the mama_cluster_* instrument set. Aggregate
// counters feed /v1/stats; the per-peer series (label "peer") feed
// /metrics so an operator can see which shard is slow, dead, or being
// farmed for work. The failure detector's own state (member count,
// membership version, suspicion / refutation / confirm-dead counters)
// is read from the cluster at scrape time.
type clusterMetrics struct {
	reg *telemetry.Registry

	proxied      *telemetry.Counter // requests forwarded to their owner
	proxyErrors  *telemetry.Counter // forwards that failed in transport
	degraded     *telemetry.Counter // owner down: computed locally instead
	remoteHits   *telemetry.Counter // results fetched from owning peers
	remoteMisses *telemetry.Counter // remote lookups that found nothing
	remoteCells  *telemetry.Counter // sweep cells executed on a peer
	cacheServed  *telemetry.Counter // cache entries served to peers
	writebacks   *telemetry.Counter // non-owned results pushed to owners
	repairPulled *telemetry.Counter // cache entries pulled by anti-entropy repair
}

func newClusterMetrics(r *telemetry.Registry, c *cluster.Cluster) *clusterMetrics {
	r.GaugeFunc("mama_cluster_members",
		"Current ring membership including self.",
		func() float64 { return float64(c.Size()) })
	r.GaugeFunc("mama_cluster_membership_version",
		"Node-local membership version, bumped once per atomic ring transition.",
		func() float64 { return float64(c.MembershipVersion()) })
	r.CounterFunc("mama_cluster_suspect_total",
		"Members this node has suspected (locally or via gossip).",
		func() uint64 { n, _, _ := c.GossipCounts(); return n })
	r.CounterFunc("mama_cluster_refute_total",
		"Suspicions about this node it refuted by bumping its incarnation.",
		func() uint64 { _, n, _ := c.GossipCounts(); return n })
	r.CounterFunc("mama_cluster_confirm_dead_total",
		"Members confirmed dead (suspect timeout expired or learned via gossip).",
		func() uint64 { _, _, n := c.GossipCounts(); return n })
	return &clusterMetrics{
		reg: r,
		proxied: r.Counter("mama_cluster_proxied_total",
			"Requests forwarded to their owning peer."),
		proxyErrors: r.Counter("mama_cluster_proxy_errors_total",
			"Forwards that failed in transport (owner dead or partitioned)."),
		degraded: r.Counter("mama_cluster_degraded_local_total",
			"Requests computed locally because the owner was unreachable."),
		remoteHits: r.Counter("mama_cluster_remote_cache_hits_total",
			"Results fetched from owning peers' caches (cross-shard hits)."),
		remoteMisses: r.Counter("mama_cluster_remote_cache_misses_total",
			"Remote cache lookups that found nothing."),
		remoteCells: r.Counter("mama_cluster_remote_cells_total",
			"Sweep cells executed on a peer instead of locally."),
		cacheServed: r.Counter("mama_cluster_cache_served_total",
			"Cache entries this node served to peers."),
		writebacks: r.Counter("mama_cluster_writebacks_total",
			"Results computed off-owner and pushed back to the owning peer."),
		repairPulled: r.Counter("mama_cluster_repair_pulled_total",
			"Cache entries pulled from previous owners by anti-entropy repair."),
	}
}

// perPeer bumps the labeled sibling of an aggregate counter. The
// registry deduplicates by (name, labels), so this is cheap after the
// first call per peer.
func (cm *clusterMetrics) perPeer(name, help, peer string) {
	cm.reg.Counter(name, help, telemetry.L("peer", peer)).Inc()
}

// longPollWait is how long a remote-cell result wait asks the peer to
// hold the request open (?wait=). Completions come back in one
// round-trip; a cell slower than this is asked for again at once.
var longPollWait = 2 * time.Second

// earlyReleasePause paces a remote-cell wait whose 202 came back before
// longPollWait elapsed: the owner released its held requests because it
// is shutting down, and re-asking at once would spin until its listener
// closes.
const earlyReleasePause = 100 * time.Millisecond

// clusterState is the per-server cluster runtime: the ring and member
// view and the remote-execution slots.
type clusterState struct {
	s *Server
	c *cluster.Cluster
	m *clusterMetrics

	sem       chan struct{} // bounds concurrent remote cell executions
	peerSlots int           // capacity of each per-peer semaphore

	mu      sync.Mutex
	peerSem map[string]chan struct{} // per-peer in-flight bound, created on demand

	wg sync.WaitGroup
}

func newClusterState(s *Server) *clusterState {
	cfg := s.cfg
	peerSlots := cfg.RemotePeerSlots
	if peerSlots <= 0 {
		peerSlots = cfg.Workers
	}
	cs := &clusterState{
		s:         s,
		c:         cfg.Cluster,
		m:         newClusterMetrics(s.reg, cfg.Cluster),
		sem:       make(chan struct{}, 4*cfg.Workers),
		peerSlots: peerSlots,
		peerSem:   make(map[string]chan struct{}),
	}
	// The ring-change hook must be in place before gossip starts (see
	// start()): a transition observed with no hook would skip repair.
	cfg.Cluster.OnChange(cs.onRingChange)
	return cs
}

// peerSlot returns (creating on demand) the in-flight bound for one
// peer. Created lazily because gossip membership means the peer set is
// not known at construction time.
func (cs *clusterState) peerSlot(peer string) chan struct{} {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ps, ok := cs.peerSem[peer]
	if !ok {
		ps = make(chan struct{}, cs.peerSlots)
		cs.peerSem[peer] = ps
	}
	return ps
}

// start launches the failure detector and one boot-time repair, which
// stops when the server's base context is cancelled; wait() joins it
// and any write-back still in flight.
func (cs *clusterState) start() {
	// Gossip starts here, after newClusterState registered the ring-
	// change hook, so no transition can be missed.
	cs.c.StartGossip()
	// A node repairs itself once at boot: a restarted member pulls back
	// the warm entries it owns from whoever kept serving while it was
	// gone (join-only nodes with no bootstrap peers get the same effect
	// from the onRingChange hook when the synced membership lands).
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.repairOwned()
	}()
}

func (cs *clusterState) wait() {
	// Stop gossip first: no new ring transitions (and thus no new
	// repair goroutines on cs.wg) can start while we join.
	cs.c.StopGossip()
	cs.wg.Wait()
}

// onRingChange reacts to one atomic membership transition (fired
// synchronously by the cluster layer, possibly from a gossip loop or
// any request goroutine that merged a piggybacked member table) with
// anti-entropy repair in the background: every ring change moves some
// key ranges onto this node, so it batch-pulls the warm cache entries it
// now owns from the peers that held them. Results are immutable and
// content-addressed, which makes repair safe to run concurrently with
// anything.
func (cs *clusterState) onRingChange(ev cluster.ChangeEvent) {
	cs.s.log.Info("cluster: membership changed",
		"version", ev.Version, "members", len(ev.Members),
		"joined", ev.Joined, "dead", ev.Dead)
	if cs.s.isDraining() || cs.s.baseCtx.Err() != nil {
		return
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.repairOwned()
	}()
}

// ---------------------------------------------------------------------
// Interactive request routing
// ---------------------------------------------------------------------

// proxySubmit routes one decoded submission to its owner. It returns
// true when it wrote the response (proxied), false when the caller
// should run the local path (we own the key, or the owner is down and
// we degrade to local compute).
func (cs *clusterState) proxySubmit(w http.ResponseWriter, r *http.Request, spec JobSpec) bool {
	p, err := cs.s.resolve(spec)
	if err != nil {
		return false // local path re-resolves and reports the error
	}
	owner := cs.c.Owner(p.key)
	if cs.c.IsSelf(owner) {
		return false
	}
	if !cs.c.Healthy(owner) {
		cs.degradeLocal(owner, p.id)
		return false
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	code, resp, err := cs.c.Do(r.Context(), owner, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		cs.m.proxyErrors.Inc()
		cs.m.perPeer("mama_cluster_peer_proxy_errors_total",
			"Forwards to this peer that failed in transport.", owner)
		cs.degradeLocal(owner, p.id)
		return false
	}
	if code == http.StatusTooManyRequests || code >= http.StatusInternalServerError {
		// The owner is alive but refusing work (full queue, draining,
		// injected fault). Local compute beats bouncing the client.
		cs.degradeLocal(owner, p.id)
		return false
	}
	cs.m.proxied.Inc()
	cs.m.perPeer("mama_cluster_peer_proxied_total",
		"Requests forwarded to this peer.", owner)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(resp)
	return true
}

func (cs *clusterState) degradeLocal(owner, jobID string) {
	cs.m.degraded.Inc()
	cs.s.log.Warn("cluster: owner unreachable; computing locally",
		"owner", owner, "job", jobID)
}

// proxyLookup routes a GET for a job this node does not track to the
// job's owner. Returns true when it wrote the response.
func (cs *clusterState) proxyLookup(w http.ResponseWriter, r *http.Request, id, path string) bool {
	owner := cs.c.OwnerOfJobID(id)
	if cs.c.IsSelf(owner) || !cs.c.Healthy(owner) {
		return false
	}
	if q := r.URL.RawQuery; q != "" {
		// Forward the query so ?wait= long-polls work through the proxy;
		// the RPC budget must outlast the longest server-side wait.
		path += "?" + q
	}
	code, resp, err := cs.c.DoTimeout(r.Context(), owner, http.MethodGet, path, nil,
		cluster.MaxResultWait+10*time.Second)
	if err != nil {
		// The owner holds the job state and is unreachable: answer
		// retryable, not 404 — the job may well be running there.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusBadGateway,
			errorBody{Error: fmt.Sprintf("job owner %s unreachable: %v", owner, err)})
		return true
	}
	cs.m.proxied.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(resp)
	return true
}

// ---------------------------------------------------------------------
// Distributed result cache
// ---------------------------------------------------------------------

// cacheLookupRequest/Response are the wire form of the batched
// cross-shard cache probe (POST /internal/cache/lookup).
type cacheLookupRequest struct {
	Keys []string `json:"keys"`
}

// The response types take the result's Go type as a parameter: one
// wire shape, but the serving node answers with its cache entries' JSON
// (json.RawMessage) and the asking node decodes into JobResult.
type cacheLookupResponse[R any] struct {
	Results map[string]R `json:"results"`
}

// prefetch is handed the handles of a sweep about to be admitted
// (sweep.Exec.Prefetch) and batch-fetches every remote-owned key among
// them this node lacks a result for from its owner, one RPC per peer.
// Hits land in the local cache, so the sweep manager's admission-time
// dedupe marks those cells complete without dispatching anything: a warm
// cluster serves a resubmitted sweep with zero recomputation no matter
// which node receives it. Failures are ignored — a missed prefetch only
// costs a recompute.
func (cs *clusterState) prefetch(ctx context.Context, handles []uint32) {
	byOwner := make(map[string][]string)
	for _, h := range handles {
		key, raw := cs.s.cache.entry(h)
		if raw != nil {
			continue
		}
		owner := cs.c.Owner(key)
		if cs.c.IsSelf(owner) {
			continue
		}
		byOwner[owner] = append(byOwner[owner], key)
	}
	for owner, keys := range byOwner {
		if !cs.c.Healthy(owner) {
			continue
		}
		body, err := json.Marshal(cacheLookupRequest{Keys: keys})
		if err != nil {
			continue
		}
		code, resp, err := cs.c.Do(ctx, owner, http.MethodPost, "/internal/cache/lookup", body)
		if err != nil || code != http.StatusOK {
			continue
		}
		var out cacheLookupResponse[JobResult]
		if err := json.Unmarshal(resp, &out); err != nil {
			continue
		}
		for key, res := range out.Results {
			if _, err := cs.s.storeResult(key, res); err != nil {
				continue // not a job key (a result decoded from JSON encodes)
			}
			cs.m.remoteHits.Inc()
			cs.m.perPeer("mama_cluster_peer_remote_cache_hits_total",
				"Results fetched from this peer's cache.", owner)
		}
		if miss := len(keys) - len(out.Results); miss > 0 {
			cs.m.remoteMisses.Add(uint64(miss))
		}
	}
}

// cachePullRequest asks a peer for the cache entries whose keys this
// node now owns (POST /internal/cache/pull). After is a lexicographic
// key cursor so the puller pages deterministically through the peer's
// append-only cache; the response's Next, when set, is the cursor for
// the following page.
type cachePullRequest struct {
	Owner string `json:"owner"`
	After string `json:"after,omitempty"`
	Max   int    `json:"max"`
}

type cachePullResponse[R any] struct {
	Results map[string]R `json:"results"`
	Next    string       `json:"next,omitempty"`
	// Member reports whether the serving node's ring contains the
	// requester. False means the requester's (re)join has not reached
	// this peer yet — nothing can match the ownership filter, so the
	// puller should retry after the membership propagates rather than
	// conclude there is nothing to repair.
	Member bool `json:"member"`
}

// repairPageSize bounds one repair pull page.
const repairPageSize = 256

// repairOwned is the anti-entropy half of a ring transition: pull from
// every healthy peer the warm cache entries whose keys this node now
// owns. It is the ring-change analogue of the sweep-admission prefetch
// — same storeResult path, same first-write-wins cache — except the
// key set comes from the peer's cache scan instead of a sweep spec.
// Best-effort: a failed pull only costs a future recompute or remote
// fetch.
func (cs *clusterState) repairOwned() {
	for _, peer := range cs.c.Peers() {
		if cs.s.baseCtx.Err() != nil {
			return
		}
		if !cs.c.Healthy(peer) {
			continue
		}
		cs.repairFrom(peer)
	}
}

// repairFrom pages one peer's cache for the entries this node owns. A
// rejoining node races its own membership propagation: until the peer
// has resurrected us in its ring, the ownership filter matches nothing
// and the pull answers member=false — so that answer is retried (the
// gossip round-trip is a few probe intervals) instead of being read as
// "nothing to repair".
func (cs *clusterState) repairFrom(peer string) {
	const (
		notMemberRetries = 40
		notMemberWait    = 250 * time.Millisecond
	)
	for attempt := 0; attempt < notMemberRetries; attempt++ {
		after := ""
		for {
			if cs.s.baseCtx.Err() != nil || cs.s.isDraining() {
				return
			}
			body, err := json.Marshal(cachePullRequest{Owner: cs.c.Self(), After: after, Max: repairPageSize})
			if err != nil {
				return
			}
			code, resp, err := cs.c.Do(cs.s.baseCtx, peer, http.MethodPost, "/internal/cache/pull", body)
			if err != nil || code != http.StatusOK {
				return // peer down or refusing: best-effort, give up
			}
			var out cachePullResponse[JobResult]
			if err := json.Unmarshal(resp, &out); err != nil {
				return
			}
			if !out.Member {
				break // peer does not count us a member yet: retry below
			}
			for key, res := range out.Results {
				if _, ok := cs.s.cache.get(key); ok {
					continue
				}
				if _, err := cs.s.storeResult(key, res); err != nil {
					continue // not a job key (a result decoded from JSON encodes)
				}
				cs.m.repairPulled.Inc()
			}
			if out.Next == "" {
				return // full scan served
			}
			after = out.Next
		}
		select {
		case <-cs.s.baseCtx.Done():
			return
		case <-time.After(notMemberWait):
		}
	}
}

// handleCachePull serves a repair scan: every cached key after the
// cursor that the requester currently owns, up to Max entries. The
// ownership check uses this node's own ring — during convergence the
// two nodes may briefly disagree, which at worst transfers an entry
// the requester did not strictly need; the cache is content-addressed,
// so a superfluous copy is harmless.
func (cs *clusterState) handleCachePull(w http.ResponseWriter, r *http.Request) {
	var req cachePullRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad pull request: " + err.Error()})
		return
	}
	owner := cluster.NormalizePeer(req.Owner)
	if owner == "" || req.Max <= 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "pull request needs owner and max"})
		return
	}
	out := cachePullResponse[json.RawMessage]{Results: make(map[string]json.RawMessage), Member: cs.c.Contains(owner)}
	if !out.Member {
		// Not in our ring (yet): the ownership filter below can never
		// match, so skip the scan and let the puller retry after the
		// membership propagates.
		writeJSON(w, http.StatusOK, out)
		return
	}
	for _, key := range cs.s.cache.keysSorted() {
		if key <= req.After {
			continue
		}
		if len(out.Results) >= req.Max {
			out.Next = req.After // resume after the last key we returned
			break
		}
		if cs.c.Owner(key) != owner {
			continue
		}
		if hit, ok := cs.s.cache.get(key); ok {
			out.Results[key] = hit.raw
			cs.m.cacheServed.Inc()
			req.After = key
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// writeBack pushes a locally computed result to its owning peer,
// asynchronously and best-effort: the local copy already serves local
// traffic, the owner copy makes the key findable cluster-wide.
func (cs *clusterState) writeBack(key string, body json.RawMessage) {
	owner := cs.c.Owner(key)
	if cs.c.IsSelf(owner) || !cs.c.Healthy(owner) {
		return
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		code, _, err := cs.c.Do(cs.s.baseCtx, owner, http.MethodPut, "/internal/cache/"+key, body)
		if err == nil && code < 300 {
			cs.m.writebacks.Inc()
			cs.m.perPeer("mama_cluster_peer_writebacks_total",
				"Results pushed back to this owning peer.", owner)
		}
	}()
}

// ---------------------------------------------------------------------
// Remote cell execution (ring-aware sweep dispatch)
// ---------------------------------------------------------------------

// remoteSlot is a reservation to execute one job on a peer, the venue:
// one of the node-wide slots and one of that peer's.
type remoteSlot struct {
	cs    *clusterState
	venue string
	peer  chan struct{}
}

// release frees the reservation; a nil slot (nothing reserved) is fine.
func (r *remoteSlot) release() {
	if r != nil {
		<-r.cs.sem
		<-r.peer
	}
}

// reserve is the dispatch rule. It claims a slot on the peer owning key,
// or failing that — the owner is this node, down, or already has its
// share of our cells in flight — on any other healthy peer; nil means
// the cell runs here. A self-owned cell held by a worker (onWorker)
// stays with that worker: dispatchNext, which it calls before it starts
// the run, is what fills the peers.
func (cs *clusterState) reserve(key string, onWorker bool) *remoteSlot {
	owner := cs.c.Owner(key)
	if onWorker && cs.c.IsSelf(owner) {
		return nil
	}
	select {
	case cs.sem <- struct{}{}:
	default:
		return nil // all remote slots busy: local compute beats waiting
	}
	for _, venue := range append([]string{owner}, cs.c.Peers()...) {
		if cs.c.IsSelf(venue) || !cs.c.Healthy(venue) {
			continue
		}
		ps := cs.peerSlot(venue)
		select {
		case ps <- struct{}{}:
			return &remoteSlot{cs: cs, venue: venue, peer: ps}
		default:
			// Late binding: a cell beyond a peer's share stays in this
			// node's queue, where the next free slot anywhere takes it,
			// instead of serializing in one busy peer's queue.
		}
	}
	<-cs.sem
	return nil
}

// spare reports whether reserve could place a cell on some peer right
// now, so dispatchNext dequeues only what it can send.
func (cs *clusterState) spare() bool {
	if len(cs.sem) == cap(cs.sem) {
		return false
	}
	for _, p := range cs.c.Peers() {
		if len(cs.peerSlot(p)) < cs.peerSlots && cs.c.Healthy(p) {
			return true
		}
	}
	return false
}

// runRemote executes a registered job on the peer that slot reserved.
// The goroutine only waits on HTTP, so the pool worker that dequeued
// the cell immediately moves on to other work — this is what lets one
// receiving node drive a whole cluster's worth of compute.
func (cs *clusterState) runRemote(slot *remoteSlot, j *job) {
	j.markRunning()
	// Remote executions ride the pool's WaitGroup, not cs.wg: they are
	// admitted work, so a graceful drain must wait for them exactly like
	// local runs. (The Add happens on a goroutine the pool is already
	// waiting for, so the counter is provably non-zero.)
	cs.s.pool.wg.Add(1)
	go func() {
		defer cs.s.pool.wg.Done()
		res, err := cs.runRemoteCell(slot.venue, j)
		cs.s.finishJob(j, res, err, false)
		slot.release()
		// Chain the next dispatch off this completion: local workers are
		// typically mid-cell for tens of milliseconds, and waiting for
		// one to come free would leave the peer's pool idle that long.
		cs.dispatchNext()
	}()
}

// dispatchNext sends queued cells to peers until no slot or no ticket is
// left. It runs whenever either may have appeared: a sweep was admitted,
// a worker is about to block on a local run, a remote cell came back. A
// ticket that lost its slot to a concurrent caller never became a job
// and goes straight back to pending; one that is already cached or
// running is settled by admitCell, and the next is tried.
func (cs *clusterState) dispatchNext() {
	for !cs.s.isDraining() && cs.s.baseCtx.Err() == nil && cs.spare() {
		t, ok := cs.s.sweeps.TryDequeue()
		if !ok {
			return
		}
		slot := cs.reserve(t.Key, false)
		if slot == nil {
			cs.s.sweeps.CellDone(t, sweep.CellPending, "")
			return
		}
		if j := cs.s.admitCell(t, true); j != nil {
			cs.runRemote(slot, j)
		} else {
			slot.release()
		}
	}
}

// dispatchAdmitted is dispatchNext for the request that admitted a
// sweep: every local worker may be mid-run, and the peers need not wait
// for one. The pool is not waiting for a request goroutine, so it joins
// the pool's WaitGroup for the length of the call, under s.mu like
// submit's push: beginDrain flips draining under that lock before
// anyone waits.
func (cs *clusterState) dispatchAdmitted() {
	s := cs.s
	s.mu.Lock()
	open := !s.draining.Load()
	if open {
		s.pool.wg.Add(1)
	}
	s.mu.Unlock()
	if open {
		defer s.pool.wg.Done()
		cs.dispatchNext()
	}
}

// runRemoteCell executes one job on venue: submit the spec (marked
// forwarded, so venue runs it whoever owns the key), wait for the
// result. Peer death at any point is reported as errPeerUnavailable; the
// failed RPC has marked venue unhealthy, so the next dispatch of the
// cell goes elsewhere.
func (cs *clusterState) runRemoteCell(venue string, j *job) (JobResult, error) {
	fail := func(err error) (JobResult, error) {
		if cs.s.baseCtx.Err() != nil {
			err = context.Canceled // shutdown: the cell re-runs after restart
		}
		return JobResult{}, err
	}
	body, err := json.Marshal(j.spec)
	if err != nil {
		return fail(fmt.Errorf("encode cell spec: %w", err))
	}
	// The deadline covers the remote queue wait plus the run itself;
	// shutdown cancellation arrives through baseCtx.
	ctx, cancel := context.WithTimeout(cs.s.baseCtx, j.timeout+30*time.Second)
	defer cancel()

	// Submit until admitted: 429/503 mean venue is alive but saturated
	// or restarting — the slot stays taken, so later cells go elsewhere,
	// and the cluster is making progress meanwhile.
	for {
		code, _, err := cs.c.Do(ctx, venue, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return fail(fmt.Errorf("%w: submit to %s: %v", errPeerUnavailable, venue, err))
		}
		if code == http.StatusOK || code == http.StatusAccepted {
			break
		}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			select {
			case <-ctx.Done():
				return fail(fmt.Errorf("%w: %s stayed saturated: %v", errPeerUnavailable, venue, ctx.Err()))
			case <-time.After(500 * time.Millisecond):
				continue
			}
		}
		return fail(fmt.Errorf("peer %s refused cell job: HTTP %d", venue, code))
	}

	// Wait for the result as a held request: venue keeps it open
	// until the job completes or the wait elapses, so a finished cell
	// comes back in one round-trip and a cell slower than longPollWait
	// is asked for again at once.
	wait := longPollWait
	waitQ := "?wait=" + wait.String()
	for {
		asked := time.Now()
		code, resp, err := cs.c.DoTimeout(ctx, venue, http.MethodGet,
			"/v1/jobs/"+j.id+"/result"+waitQ, nil, wait+10*time.Second)
		if err != nil {
			return fail(fmt.Errorf("%w: result wait on %s: %v", errPeerUnavailable, venue, err))
		}
		switch {
		case code == http.StatusAccepted:
			// Still queued/running on venue.
			if time.Since(asked) < wait {
				select {
				case <-ctx.Done():
				case <-time.After(earlyReleasePause):
				}
			}
		case code == http.StatusOK:
			var out resultBody
			if err := json.Unmarshal(resp, &out); err != nil {
				return fail(fmt.Errorf("decode result from %s: %w", venue, err))
			}
			switch out.Status {
			case StatusDone:
				if out.Result == nil {
					return fail(fmt.Errorf("peer %s reported done without a result", venue))
				}
				cs.m.remoteCells.Inc()
				cs.m.perPeer("mama_cluster_peer_remote_cells_total",
					"Sweep cells executed on this peer.", venue)
				return *out.Result, nil
			case StatusFailed:
				return JobResult{}, fmt.Errorf("remote cell failed on %s: %s", venue, out.Error)
			}
		case code == http.StatusNotFound:
			// venue restarted without the job (no persistence there):
			// the next dispatch resubmits.
			return fail(fmt.Errorf("%w: %s lost job %s", errPeerUnavailable, venue, j.id))
		default:
			return fail(fmt.Errorf("peer %s answered HTTP %d waiting for %s", venue, code, j.id))
		}
	}
}

// ---------------------------------------------------------------------
// Internal HTTP endpoints (peer-to-peer protocol)
// ---------------------------------------------------------------------

// gossipExchange is the piggyback middleware wrapped around a clustered
// node's whole HTTP surface: a request that carries a peer's member
// table is merged and answered with this node's whole table. This is
// what makes membership converge between probe ticks — ordinary
// traffic is the widest gossip channel the cluster has. A request
// without one did not come from a peer, and gets no table back.
func (cs *clusterState) gossipExchange(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in := r.Header.Get(cluster.HeaderGossip); in != "" {
			cs.c.ApplyGossipHeader(in)
			if g := cs.c.GossipHeaderValue(); g != "" {
				w.Header().Set(cluster.HeaderGossip, g)
			}
		}
		next.ServeHTTP(w, r)
	})
}

func (cs *clusterState) registerHandlers(mux *http.ServeMux) {
	mux.HandleFunc("PUT /internal/cache/{key}", cs.handleCachePut)
	mux.HandleFunc("POST /internal/cache/lookup", cs.handleCacheLookup)
	mux.HandleFunc("POST /internal/cache/pull", cs.handleCachePull)
	cs.c.RegisterGossipHandlers(mux)
}

func (cs *clusterState) handleCachePut(w http.ResponseWriter, r *http.Request) {
	var res JobResult
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&res); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad result: " + err.Error()})
		return
	}
	if _, err := cs.s.storeResult(r.PathValue("key"), res); err != nil {
		// Not a job key (a result decoded from JSON encodes).
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (cs *clusterState) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	var req cacheLookupRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad lookup: " + err.Error()})
		return
	}
	out := cacheLookupResponse[json.RawMessage]{Results: make(map[string]json.RawMessage)}
	for _, key := range req.Keys {
		if hit, ok := cs.s.cache.get(key); ok {
			out.Results[key] = hit.raw
			cs.m.cacheServed.Inc()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// clusterStats snapshots the cluster block of /v1/stats.
func (cs *clusterState) stats() *ClusterStats {
	suspects, refutes, confirms := cs.c.GossipCounts()
	peers := cs.c.Peers()
	var unhealthy []string
	for _, p := range peers {
		if !cs.c.Healthy(p) {
			unhealthy = append(unhealthy, p)
		}
	}
	return &ClusterStats{
		Self:              cs.c.Self(),
		Peers:             peers,
		Unhealthy:         unhealthy,
		Members:           cs.c.Members(),
		MembershipVersion: cs.c.MembershipVersion(),
		RingHash:          cs.c.RingHash(),
		SelfIncarnation:   cs.c.SelfIncarnation(),
		Suspicions:        suspects,
		Refutes:           refutes,
		ConfirmedDead:     confirms,
		RepairPulled:      cs.m.repairPulled.Value(),
		Proxied:           cs.m.proxied.Value(),
		ProxyErrors:       cs.m.proxyErrors.Value(),
		DegradedLocal:     cs.m.degraded.Value(),
		RemoteCacheHits:   cs.m.remoteHits.Value(),
		RemoteCacheMisses: cs.m.remoteMisses.Value(),
		RemoteCells:       cs.m.remoteCells.Value(),
		CacheServed:       cs.m.cacheServed.Value(),
		Writebacks:        cs.m.writebacks.Value(),
	}
}
