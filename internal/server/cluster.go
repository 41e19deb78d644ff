// Cluster integration: this file is everything mamaserved does when it
// is one node of a sharded cluster (Config.Cluster != nil).
//
// Three mechanisms, all built on the consistent-hash ring in
// internal/cluster and the content-addressed job key:
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
//     receives it. Nodes that compute a key they do not own (degraded
//     or stolen work) push the result back to the owner best-effort.
//
//   - Work stealing. An idle node polls busy peers for queued sweep
//     cells. The victim passes each dequeued ticket through the same
//     admit step as its own workers — cached and in-flight keys never
//     leave — and keeps the new job in its registry, running, under a
//     lease: a submission of that key to the victim coalesces onto it.
//     A thief that dies mid-cell simply lets the lease expire; the job
//     fails and the cell returns to pending. Results are bit-identical
//     wherever they run, so a late report after an expired lease is
//     still a valid cache fill.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
)

// errPeerUnavailable marks a job outcome caused by the peer executing
// it (the key's owner, or a thief) being unreachable or gone, not by the
// simulation: settle hands the cell back as pending and it re-runs —
// locally, since the failed RPC has already marked the peer unhealthy.
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
	remoteCells  *telemetry.Counter // sweep cells executed on their owner
	cacheServed  *telemetry.Counter // cache entries served to peers
	writebacks   *telemetry.Counter // non-owned results pushed to owners
	stealsOut    *telemetry.Counter // cells this node stole from peers
	stealsIn     *telemetry.Counter // cells peers stole from this node
	stealExpired *telemetry.Counter // stolen-cell leases that expired
	repairPulled *telemetry.Counter // cache entries pulled by anti-entropy repair
	deadRequeued *telemetry.Counter // leases requeued because the thief was confirmed dead
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
			"Sweep cells executed on their owning peer instead of locally."),
		cacheServed: r.Counter("mama_cluster_cache_served_total",
			"Cache entries this node served to peers."),
		writebacks: r.Counter("mama_cluster_writebacks_total",
			"Results computed off-owner and pushed back to the owning peer."),
		stealsOut: r.Counter("mama_cluster_steals_out_total",
			"Sweep cells this node stole from deep-queued peers."),
		stealsIn: r.Counter("mama_cluster_steals_in_total",
			"Sweep cells peers stole from this node's queue."),
		stealExpired: r.Counter("mama_cluster_steal_leases_expired_total",
			"Stolen-cell leases that expired without a report (thief died)."),
		repairPulled: r.Counter("mama_cluster_repair_pulled_total",
			"Cache entries pulled from previous owners by anti-entropy repair."),
		deadRequeued: r.Counter("mama_cluster_dead_requeued_total",
			"Stolen-cell leases requeued early because the thief was confirmed dead."),
	}
}

// perPeer bumps the labeled sibling of an aggregate counter. The
// registry deduplicates by (name, labels), so this is cheap after the
// first call per peer.
func (cm *clusterMetrics) perPeer(name, help, peer string) {
	cm.reg.Counter(name, help, telemetry.L("peer", peer)).Inc()
}

// stolenLease is the victim-side record of a job handed to a thief.
type stolenLease struct {
	j       *job
	peer    string
	expires time.Time
}

// longPollWait is how long a remote-cell result wait asks the owner to
// hold the request open (?wait=). Completions come back in one
// round-trip; a cell slower than this is asked for again at once.
var longPollWait = 2 * time.Second

// earlyReleasePause paces a remote-cell wait whose 202 came back before
// longPollWait elapsed: the owner released its held requests because it
// is shutting down, and re-asking at once would spin until its listener
// closes.
const earlyReleasePause = 100 * time.Millisecond

// clusterState is the per-server cluster runtime: the ring and member
// view, remote-execution slots, the stolen-cell lease table, and the
// background stealer/janitor goroutines.
type clusterState struct {
	s *Server
	c *cluster.Cluster
	m *clusterMetrics

	sem        chan struct{} // bounds concurrent remote cell executions
	peerSlots  int           // capacity of each per-peer semaphore
	stealEvery time.Duration // thief poll interval; <= 0 disables stealing
	lease      time.Duration // stolen-cell lease duration
	minPending int           // pending cells a victim keeps for itself

	mu       sync.Mutex
	peerSem  map[string]chan struct{} // per-peer in-flight bound, created on demand
	leases   map[string]*stolenLease  // job key → the lease its job is out on
	stealCur int                      // round-robin cursor over peers
	stealRng *rand.Rand               // jitter source for steal backoff

	wg sync.WaitGroup
}

func newClusterState(s *Server) *clusterState {
	cfg := s.cfg
	peerSlots := cfg.RemotePeerSlots
	if peerSlots <= 0 {
		peerSlots = cfg.Workers
	}
	stealEvery := cfg.StealInterval
	if stealEvery == 0 {
		stealEvery = 250 * time.Millisecond
	}
	lease := cfg.StealLease
	if lease <= 0 {
		lease = cfg.DefaultTimeout + 30*time.Second
	}
	minPending := cfg.StealMinPending
	if minPending == 0 {
		minPending = cfg.Workers
	} else if minPending < 0 {
		minPending = 0 // negative: give away everything that is queued
	}
	cs := &clusterState{
		s:          s,
		c:          cfg.Cluster,
		m:          newClusterMetrics(s.reg, cfg.Cluster),
		sem:        make(chan struct{}, 4*cfg.Workers),
		peerSlots:  peerSlots,
		stealEvery: stealEvery,
		lease:      lease,
		minPending: minPending,
		peerSem:    make(map[string]chan struct{}),
		leases:     make(map[string]*stolenLease),
		stealRng:   rand.New(rand.NewSource(time.Now().UnixNano())),
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

// start launches the failure detector and the background goroutines:
// the lease janitor, one boot-time repair and (unless disabled) the
// stealer. They exit when the server's base context is cancelled;
// wait() joins them and any in-flight remote executions.
func (cs *clusterState) start() {
	// Gossip starts here, after newClusterState registered the ring-
	// change hook, so no transition can be missed.
	cs.c.StartGossip()
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.janitorLoop()
	}()
	// A node repairs itself once at boot: a restarted member pulls back
	// the warm entries it owns from whoever kept serving while it was
	// gone (join-only nodes with no bootstrap peers get the same effect
	// from the onRingChange hook when the synced membership lands).
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.repairOwned()
	}()
	// The peer set can grow from empty (a node started with only -join
	// seeds), so the stealer runs whether or not bootstrap peers exist.
	if cs.stealEvery > 0 {
		cs.wg.Add(1)
		go func() {
			defer cs.wg.Done()
			cs.stealLoop()
		}()
	}
}

func (cs *clusterState) wait() {
	// Stop gossip first: no new ring transitions (and thus no new
	// repair goroutines on cs.wg) can start while we join.
	cs.c.StopGossip()
	cs.wg.Wait()
}

// onRingChange reacts to one atomic membership transition (fired
// synchronously by the cluster layer, possibly from a gossip loop or
// any request goroutine that merged a piggybacked delta):
//
//   - Leases held by a confirmed-dead thief are ended immediately
//     instead of waiting out the lease clock (see endLeases).
//
//   - Anti-entropy repair runs in the background: every ring change
//     moves some key ranges onto this node, so it batch-pulls the warm
//     cache entries it now owns from the peers that held them. Results
//     are immutable and content-addressed, which makes repair safe to
//     run concurrently with anything.
func (cs *clusterState) onRingChange(ev cluster.ChangeEvent) {
	cs.s.log.Info("cluster: membership changed",
		"version", ev.Version, "members", len(ev.Members),
		"joined", ev.Joined, "dead", ev.Dead)
	cs.endLeases(cs.m.deadRequeued, "thief confirmed dead",
		func(l *stolenLease) bool { return slices.Contains(ev.Dead, l.peer) })
	if cs.s.isDraining() || cs.s.baseCtx.Err() != nil {
		return
	}
	cs.wg.Add(1)
	go func() {
		defer cs.wg.Done()
		cs.repairOwned()
	}()
}

// endLeases ends every lease lost matches: the thief will not report,
// so the leased job fails — waking anyone waiting on it — and its cell
// returns to pending. Deleting the lease under cs.mu first keeps that
// exactly-once: the janitor, a ring change and a late steal-done report
// cannot all find the same entry.
func (cs *clusterState) endLeases(counter *telemetry.Counter, why string, lost func(*stolenLease) bool) {
	var ended []*stolenLease
	cs.mu.Lock()
	for k, l := range cs.leases {
		if lost(l) {
			delete(cs.leases, k)
			ended = append(ended, l)
		}
	}
	cs.mu.Unlock()
	for _, l := range ended {
		counter.Inc()
		cs.s.log.Warn("cluster: "+why+"; re-queueing stolen cell", "job", l.j.id, "thief", l.peer)
		cs.s.finishJob(l.j, JobResult{}, fmt.Errorf("%w: %s", errPeerUnavailable, why), false)
	}
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
		w.Header().Set(cluster.HeaderOwner, cs.c.Self())
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
	w.Header().Set(cluster.HeaderOwner, owner)
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
	w.Header().Set(cluster.HeaderOwner, owner)
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

// prefetchSweep resolves a sweep spec's cells and batch-fetches every
// remote-owned key from its owner before admission, one RPC per peer.
// Hits land in the local cache, so the sweep manager's admission-time
// dedupe marks those cells complete without dispatching anything: a
// warm cluster serves a resubmitted sweep with zero recomputation no
// matter which node receives it. Failures are ignored — a missed
// prefetch only costs a recompute.
func (cs *clusterState) prefetchSweep(ctx context.Context, spec sweep.Spec) {
	sp := spec
	cells, err := sp.Expand(cs.s.cfg.MaxSweepCells)
	if err != nil {
		return // Submit will report the real error
	}
	byOwner := make(map[string][]string)
	for _, c := range cells {
		p, err := cs.s.resolve(specFromCell(c))
		if err != nil {
			continue
		}
		if _, ok := cs.s.cache.get(p.key); ok {
			continue
		}
		owner := cs.c.Owner(p.key)
		if cs.c.IsSelf(owner) {
			continue
		}
		byOwner[owner] = append(byOwner[owner], p.key)
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
			_, _ = cs.s.storeResult(key, res) // decoded from JSON, so it encodes
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
				_, _ = cs.s.storeResult(key, res) // decoded from JSON, so it encodes
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

// remoteSlot is a reservation to execute one job on the peer owning its
// key: one of the node-wide slots and one of that peer's.
type remoteSlot struct {
	cs    *clusterState
	owner string
	peer  chan struct{}
}

// release frees the reservation; a nil slot (nothing reserved) is fine.
func (r *remoteSlot) release() {
	if r != nil {
		<-r.cs.sem
		<-r.peer
	}
}

// reserve claims a remote slot for key when a healthy peer owns it, or
// returns nil when the cell should run here: we own the key, the owner
// is down, or the slots are taken.
func (cs *clusterState) reserve(key string) *remoteSlot {
	owner := cs.c.Owner(key)
	if cs.c.IsSelf(owner) || !cs.c.Healthy(owner) {
		return nil
	}
	ps := cs.peerSlot(owner)
	select {
	case cs.sem <- struct{}{}:
	default:
		return nil // all remote slots busy: local compute beats waiting
	}
	select {
	case ps <- struct{}{}:
	default:
		// The owner already has a pool's worth of our cells in flight.
		// Running this one locally (or leaving it for a thief) beats
		// serializing it in the busiest shard's queue.
		<-cs.sem
		return nil
	}
	return &remoteSlot{cs: cs, owner: owner, peer: ps}
}

// runRemote executes a registered job on the owner that slot reserved.
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
		res, err := cs.runRemoteCell(slot.owner, j)
		cs.s.finishJob(j, res, err, false)
		slot.release()
		// Chain the next dispatch off this completion: local workers are
		// typically mid-cell for tens of milliseconds, and waiting for
		// one to come free would leave the owner's pool idle that long.
		cs.dispatchNext()
	}()
}

// dispatchNext pushes one more queued cell to its owning peer, called
// when a remote slot frees up. A cell that is not remotely dispatchable
// right now (self-owned, owner busy or unhealthy) never became a job:
// its ticket goes straight back to pending for a local worker or a
// thief. One that is already cached or running is settled by admitCell,
// and the next is tried.
func (cs *clusterState) dispatchNext() {
	for !cs.s.isDraining() && cs.s.baseCtx.Err() == nil {
		t, ok := cs.s.sweeps.TryDequeue()
		if !ok {
			return
		}
		slot := cs.reserve(t.Key)
		if slot == nil {
			cs.s.sweeps.CellDone(t, sweep.CellPending, nil, "")
			return
		}
		if j := cs.s.admitCell(t); j != nil {
			cs.runRemote(slot, j)
			return
		}
		slot.release()
	}
}

// runRemoteCell executes one job on the peer owning its key: submit the
// spec, wait for the result. Peer death at any point is reported as
// errPeerUnavailable; the failed RPC has marked the owner unhealthy, so
// the next dispatch of the cell runs locally.
func (cs *clusterState) runRemoteCell(owner string, j *job) (JobResult, error) {
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

	// Submit until admitted: 429/503 mean the owner is alive but
	// saturated or restarting — waiting keeps the work on the node that
	// owns the key, and the cluster is making progress meanwhile.
	for {
		code, _, err := cs.c.Do(ctx, owner, http.MethodPost, "/v1/jobs", body)
		if err != nil {
			return fail(fmt.Errorf("%w: submit to %s: %v", errPeerUnavailable, owner, err))
		}
		if code == http.StatusOK || code == http.StatusAccepted {
			break
		}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			select {
			case <-ctx.Done():
				return fail(fmt.Errorf("%w: %s stayed saturated: %v", errPeerUnavailable, owner, ctx.Err()))
			case <-time.After(500 * time.Millisecond):
				continue
			}
		}
		return fail(fmt.Errorf("owner %s refused cell job: HTTP %d", owner, code))
	}

	// Wait for the result as a held request: the owner keeps it open
	// until the job completes or the wait elapses, so a finished cell
	// comes back in one round-trip and a cell slower than longPollWait
	// is asked for again at once.
	wait := longPollWait
	waitQ := "?wait=" + wait.String()
	for {
		asked := time.Now()
		code, resp, err := cs.c.DoTimeout(ctx, owner, http.MethodGet,
			"/v1/jobs/"+j.id+"/result"+waitQ, nil, wait+10*time.Second)
		if err != nil {
			return fail(fmt.Errorf("%w: result wait on %s: %v", errPeerUnavailable, owner, err))
		}
		switch {
		case code == http.StatusAccepted:
			// Still queued/running on the owner.
			if time.Since(asked) < wait {
				select {
				case <-ctx.Done():
				case <-time.After(earlyReleasePause):
				}
			}
		case code == http.StatusOK:
			var out resultBody
			if err := json.Unmarshal(resp, &out); err != nil {
				return fail(fmt.Errorf("decode result from %s: %w", owner, err))
			}
			switch out.Status {
			case StatusDone:
				if out.Result == nil {
					return fail(fmt.Errorf("owner %s reported done without a result", owner))
				}
				cs.m.remoteCells.Inc()
				cs.m.perPeer("mama_cluster_peer_remote_cells_total",
					"Sweep cells executed on this owning peer.", owner)
				return *out.Result, nil
			case StatusFailed:
				return JobResult{}, fmt.Errorf("remote cell failed on %s: %s", owner, out.Error)
			}
		case code == http.StatusNotFound:
			// The owner restarted without the job (no persistence there):
			// the next dispatch resubmits.
			return fail(fmt.Errorf("%w: %s lost job %s", errPeerUnavailable, owner, j.id))
		default:
			return fail(fmt.Errorf("owner %s answered HTTP %d waiting for %s", owner, code, j.id))
		}
	}
}

// ---------------------------------------------------------------------
// Work stealing
// ---------------------------------------------------------------------

// stolenCellWire is one leased cell on the steal protocol.
type stolenCellWire struct {
	Sweep     string     `json:"sweep"`
	Index     int        `json:"index"`
	Key       string     `json:"key"`
	Cell      sweep.Cell `json:"cell"`
	TimeoutMs int64      `json:"timeout_ms,omitempty"`
}

type stealRequest struct {
	Max int `json:"max"`
	// Thief is the thief's advertised URL, required. The victim records
	// it on the lease so a ring transition that confirms the thief dead
	// can match and requeue its leases immediately (RemoteAddr is an
	// ephemeral client port, useless for that comparison).
	Thief string `json:"thief"`
}

type stealResponse struct {
	Cells []stolenCellWire `json:"cells"`
}

// stealDoneRequest reports a stolen cell's outcome back to the victim.
// Result carries the raw JobResult on success; Error the failure.
type stealDoneRequest struct {
	Sweep  string          `json:"sweep"`
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// stealBackoffCap bounds the exponential steal backoff (as a multiple
// of the base interval): an idle cluster polls lazily, but a fresh
// burst of work is never more than this far from being noticed.
const stealBackoffCap = 32

// stealDelay computes the next steal poll delay: the base interval
// after a successful steal, doubling per consecutive miss (victim had
// no spare work, or no healthy victim at all) up to stealBackoffCap×
// base, with ±25% jitter so a fleet of idle thieves does not hammer
// the one busy victim in lockstep.
func (cs *clusterState) stealDelay(misses int) time.Duration {
	d := cs.stealEvery
	if misses > 0 {
		shift := misses
		if shift > 10 {
			shift = 10
		}
		mult := int64(1) << shift
		if mult > stealBackoffCap {
			mult = stealBackoffCap
		}
		d = cs.stealEvery * time.Duration(mult)
	}
	cs.mu.Lock()
	jitter := cs.stealRng.Float64()
	cs.mu.Unlock()
	// jitter in [0.75, 1.25)
	d = time.Duration(float64(d) * (0.75 + jitter/2))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// stealLoop is the thief side: when this node is fully idle (no queued
// jobs, no dispatchable sweep work, free workers) it asks peers — round
// robin — for queued cells and executes them locally through the normal
// job path. Polling backs off exponentially (with jitter) while
// victims have nothing to give and snaps back to the base interval on
// the first successful steal.
func (cs *clusterState) stealLoop() {
	misses := 0
	timer := time.NewTimer(cs.stealDelay(0))
	defer timer.Stop()
	for {
		select {
		case <-cs.s.baseCtx.Done():
			return
		case <-timer.C:
		}
		if cs.s.isDraining() {
			return
		}
		if !cs.idle() {
			// Busy with our own work: not a miss (there is nothing to
			// learn about the victims), poll again at the base cadence.
			misses = 0
			timer.Reset(cs.stealDelay(0))
			continue
		}
		var cells []stolenCellWire
		peer, ok := cs.nextPeer()
		if ok {
			cells = cs.stealFrom(peer, cs.s.cfg.Workers)
		}
		if len(cells) == 0 {
			// No healthy victim, or the victim had no spare work: back off.
			misses++
			timer.Reset(cs.stealDelay(misses))
			continue
		}
		misses = 0
		// Run the batch concurrently — the node is idle, so the whole
		// pool's width is available — but join it before the next poll
		// so the idle() check stays honest.
		var batch sync.WaitGroup
		for _, sc := range cells {
			batch.Add(1)
			go func(sc stolenCellWire) {
				defer batch.Done()
				cs.runStolen(peer, sc)
			}(sc)
		}
		batch.Wait()
		if cs.s.isDraining() {
			return
		}
		timer.Reset(cs.stealDelay(0))
	}
}

// idle reports whether this node has nothing of its own to do.
func (cs *clusterState) idle() bool {
	if cs.s.q.depth() > 0 {
		return false
	}
	if cs.s.metrics.workersBusy.Value() > 0 {
		return false
	}
	counts := cs.s.sweeps.Counts()
	return counts.CellsPending == 0 && counts.CellsRunning == 0
}

// nextPeer picks the next healthy peer round-robin.
func (cs *clusterState) nextPeer() (string, bool) {
	peers := cs.c.Peers()
	if len(peers) == 0 {
		return "", false
	}
	cs.mu.Lock()
	start := cs.stealCur
	cs.mu.Unlock()
	for i := 0; i < len(peers); i++ {
		p := peers[(start+i)%len(peers)]
		if cs.c.Healthy(p) {
			cs.mu.Lock()
			cs.stealCur = (start + i + 1) % len(peers)
			cs.mu.Unlock()
			return p, true
		}
	}
	return "", false
}

// stealFrom asks one victim for up to max queued cells.
func (cs *clusterState) stealFrom(peer string, max int) []stolenCellWire {
	body, err := json.Marshal(stealRequest{Max: max, Thief: cs.c.Self()})
	if err != nil {
		return nil
	}
	code, resp, err := cs.c.Do(cs.s.baseCtx, peer, http.MethodPost, "/internal/steal", body)
	if err != nil || code != http.StatusOK {
		return nil
	}
	var out stealResponse
	if err := json.Unmarshal(resp, &out); err != nil {
		return nil
	}
	return out.Cells
}

// runStolen executes one stolen cell here and reports the outcome to
// the victim. The key goes through this node's own admit step (the
// victim's ticket stays with the victim): a cached result is reported
// without running, a key already in flight here is waited for, and a
// new one runs through the normal job path — registry entry, panic
// isolation, metrics, cache fill and write-back to the key's owner.
func (cs *clusterState) runStolen(victim string, sc stolenCellWire) {
	j, how := cs.s.admitKey(sc.Key, sc.Cell, sc.TimeoutMs, nil)
	if how == admitNew {
		cs.s.pool.execute(-1, j)
	}
	select {
	case <-j.done:
	case <-cs.s.baseCtx.Done():
	}
	report := stealDoneRequest{Sweep: sc.Sweep, Index: sc.Index, Key: sc.Key}
	if hit, ok := cs.s.cache.get(sc.Key); ok { // a done job's result is cached before it reads done
		report.Result = hit.raw
	} else if cs.s.baseCtx.Err() != nil {
		// This thief is shutting down mid-cell: say nothing. The victim's
		// lease janitor returns the cell to pending, and a live node
		// computes it — reporting an error here would fail the cell
		// permanently for a fault that is ours, not the simulation's.
		return
	} else {
		report.Error = j.view().Error
	}
	cs.m.stealsOut.Inc()
	cs.m.perPeer("mama_cluster_peer_steals_out_total",
		"Sweep cells stolen from this peer.", victim)
	body, err := json.Marshal(report)
	if err != nil {
		return
	}
	// Best-effort: if the victim is gone, its lease janitor re-queues
	// the cell; our local cache fill still counts.
	_, _, _ = cs.c.Do(cs.s.baseCtx, victim, http.MethodPost, "/internal/steal/done", body)
}

// janitorLoop expires stolen-cell leases: a thief that died without
// reporting returns its cells to pending, so no steal can lose work.
func (cs *clusterState) janitorLoop() {
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-cs.s.baseCtx.Done():
			return
		case now := <-ticker.C:
			cs.endLeases(cs.m.stealExpired, "steal lease expired",
				func(l *stolenLease) bool { return now.After(l.expires) })
		}
	}
}

// ---------------------------------------------------------------------
// Internal HTTP endpoints (peer-to-peer protocol)
// ---------------------------------------------------------------------

// gossipExchange is the piggyback middleware wrapped around a clustered
// node's whole HTTP surface: incoming requests may carry
// membership deltas from peers or cluster-aware clients, and every
// response carries this node's current digest plus queued deltas. This
// is what makes membership converge between probe ticks — ordinary
// traffic is the widest gossip channel the cluster has.
func (cs *clusterState) gossipExchange(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.c.ApplyGossipHeader(r.Header.Get(cluster.HeaderGossip))
		if g := cs.c.GossipHeaderValue(); g != "" {
			w.Header().Set(cluster.HeaderGossip, g)
		}
		next.ServeHTTP(w, r)
	})
}

func (cs *clusterState) registerHandlers(mux *http.ServeMux) {
	mux.HandleFunc("PUT /internal/cache/{key}", cs.handleCachePut)
	mux.HandleFunc("POST /internal/cache/lookup", cs.handleCacheLookup)
	mux.HandleFunc("POST /internal/cache/pull", cs.handleCachePull)
	mux.HandleFunc("POST /internal/steal", cs.handleSteal)
	mux.HandleFunc("POST /internal/steal/done", cs.handleStealDone)
	cs.c.RegisterGossipHandlers(mux)
}

func (cs *clusterState) handleCachePut(w http.ResponseWriter, r *http.Request) {
	var res JobResult
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&res); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad result: " + err.Error()})
		return
	}
	_, _ = cs.s.storeResult(r.PathValue("key"), res) // decoded from JSON, so it encodes
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

// handleSteal is the victim side: hand out queued sweep cells when this
// node has more pending work than its own pool will promptly absorb.
// Every dequeued ticket passes the admit step first, so a thief only
// receives keys that are neither cached nor in flight here, and what it
// receives stays in this node's registry as a running job under a
// lease — preserving the at-most-once compute guarantee against any
// later submission of the same key.
func (cs *clusterState) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad steal request: " + err.Error()})
		return
	}
	thief := cluster.NormalizePeer(req.Thief)
	if thief == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "steal request needs thief"})
		return
	}
	out := stealResponse{Cells: []stolenCellWire{}}
	if cs.s.isDraining() || req.Max <= 0 {
		writeJSON(w, http.StatusOK, out)
		return
	}
	// Only give work away while there is more queued than the local pool
	// is about to chew through; an almost-drained queue finishes faster
	// locally than over two RPCs.
	if pending := cs.s.sweeps.Counts().CellsPending; pending <= cs.minPending {
		writeJSON(w, http.StatusOK, out)
		return
	}
	for len(out.Cells) < req.Max {
		t, ok := cs.s.sweeps.TryDequeue()
		if !ok {
			break
		}
		j := cs.s.admitCell(t)
		if j == nil {
			continue
		}
		j.markRunning()
		cs.mu.Lock()
		cs.leases[t.Key] = &stolenLease{j: j, peer: thief, expires: time.Now().Add(cs.lease)}
		cs.mu.Unlock()
		cs.m.stealsIn.Inc()
		out.Cells = append(out.Cells, stolenCellWire{
			Sweep: t.SweepID, Index: t.Index, Key: t.Key, Cell: t.Cell, TimeoutMs: t.TimeoutMs,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStealDone finishes a leased job with the thief's outcome. A
// report for an already-expired lease answers 410: the cell was
// re-queued, but the attached result is still a valid cache fill
// (results are bit-identical wherever computed), so it is kept — the
// re-queued cell then completes as deduped without running.
func (cs *clusterState) handleStealDone(w http.ResponseWriter, r *http.Request) {
	var req stealDoneRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad steal report: " + err.Error()})
		return
	}
	var res JobResult
	var err error
	if req.Error != "" {
		err = errors.New(req.Error)
	} else if uerr := json.Unmarshal(req.Result, &res); uerr != nil {
		err = fmt.Errorf("decode stolen result: %w", uerr)
	}
	cs.mu.Lock()
	lease, ok := cs.leases[req.Key]
	delete(cs.leases, req.Key)
	cs.mu.Unlock()
	if !ok {
		if err == nil {
			_, _ = cs.s.storeResult(req.Key, res) // decoded from JSON, so it encodes
		}
		writeJSON(w, http.StatusGone, errorBody{Error: "no such lease (expired or unknown)"})
		return
	}
	cs.s.finishJob(lease.j, res, err, false)
	w.WriteHeader(http.StatusNoContent)
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
		DeadRequeued:      cs.m.deadRequeued.Value(),
		Proxied:           cs.m.proxied.Value(),
		ProxyErrors:       cs.m.proxyErrors.Value(),
		DegradedLocal:     cs.m.degraded.Value(),
		RemoteCacheHits:   cs.m.remoteHits.Value(),
		RemoteCacheMisses: cs.m.remoteMisses.Value(),
		RemoteCells:       cs.m.remoteCells.Value(),
		CacheServed:       cs.m.cacheServed.Value(),
		Writebacks:        cs.m.writebacks.Value(),
		StolenFromPeers:   cs.m.stealsOut.Value(),
		StolenByPeers:     cs.m.stealsIn.Value(),
		StealExpired:      cs.m.stealExpired.Value(),
	}
}
