package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/cluster"
)

// relisten rebinds a specific address, retrying briefly: the previous
// listener's close may not have fully released the port yet.
func relisten(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitMembership polls until every listed node's ring has the wanted
// size and all ring-hash fingerprints agree.
func waitMembership(t *testing.T, nodes []*clusterNode, size int, timeout time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		agreed := true
		var hash uint64
		for i, n := range nodes {
			c := n.srv.cl.c
			if c.Size() != size {
				agreed = false
				break
			}
			if i == 0 {
				hash = c.RingHash()
			} else if c.RingHash() != hash {
				agreed = false
				break
			}
		}
		if agreed {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				c := n.srv.cl.c
				t.Logf("node %s: size=%d hash=%d members=%v", n.url, c.Size(), c.RingHash(), c.Members())
			}
			t.Fatalf("%s: rings did not converge to size %d within %v", msg, size, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGossipKillRejoinRepair is the gossip acceptance test, end to end
// under -race:
//
//  1. a 3-node cluster computes a sweep exactly once;
//  2. one node is killed: the survivors' SWIM detectors confirm it
//     dead, both rebuild the same 2-node ring, and anti-entropy repair
//     re-homes the dead node's key range so an identical sweep against
//     a survivor completes with zero lost cells, zero double-runs, and
//     zero new simulations;
//  3. the node restarts with its original flags: it rejoins via
//     gossip alone (learning its own tombstone and refuting it with a
//     bumped incarnation), all three rings re-agree, and boot-time
//     repair restores its previously-warm entries so a key it owns is
//     an immediate local cache hit — still bit-identical to the
//     original run.
func TestGossipKillRejoinRepair(t *testing.T) {
	const perOwner = 3
	var sims [4]atomic.Int64 // a, b, c, restarted b
	total := func() int64 {
		var n int64
		for i := range sims {
			n += sims[i].Load()
		}
		return n
	}

	lns, urls := listenLoopback(t, 3)
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		nodes[i] = startNode(t, urls[i], urls, lns[i], testGossipOptions(urls),
			func(cfg *Config) {
				cfg.Run = pureRun(&sims[i], 0)
				cfg.RemotePeerSlots = 2 * 3 * perOwner // eager remote dispatch
			})
	}
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Build the sweep from seeds with known owners so node B is
	// guaranteed a share of the key range.
	var specs []JobSpec
	for _, n := range nodes {
		specs = append(specs, specsOwnedBy(t, a, n.url, perOwner)...)
	}
	cells := len(specs)
	keyOf := make(map[uint64]string, cells) // seed -> cache key
	for _, spec := range specs {
		p, err := a.srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		keyOf[spec.Seed] = p.key
	}
	sweepJSON := func(name string) string {
		body, _ := json.Marshal(struct {
			Name  string    `json:"name"`
			Cells []JobSpec `json:"cells"`
		}{Name: name, Cells: specs})
		return string(body)
	}

	// Phase 1: cold sweep, every cell exactly once across the cluster.
	resp, view := postSweep(t, a.ts, sweepJSON("gossip-cold"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cold sweep: HTTP %d", resp.StatusCode)
	}
	if done := waitSweepDone(t, a.ts, view.ID, 60*time.Second); done.Failed != 0 {
		t.Fatalf("cold sweep failed %d cells", done.Failed)
	}
	if got := total(); got != int64(cells) {
		t.Fatalf("cold sweep ran %d simulations, want exactly %d", got, cells)
	}
	// Golden results: keyed by seed, normalized for bit-identity.
	golden := make(map[uint64]string, cells)
	for _, spec := range specs {
		res, ok := a.srv.cache.get(keyOf[spec.Seed])
		if !ok {
			t.Fatalf("cold sweep receiver missing result for seed %d", spec.Seed)
		}
		raw, _ := json.Marshal(res)
		golden[spec.Seed] = normalizeResult(t, raw)
	}

	// Phase 2: kill B. The survivors must agree on a B-less ring.
	b.kill()
	survivors := []*clusterNode{a, c}
	waitMembership(t, survivors, 2, 10*time.Second, "after kill")
	for _, n := range survivors {
		if n.srv.cl.c.Contains(b.url) {
			t.Fatalf("survivor %s still has dead node %s in its ring", n.url, b.url)
		}
		if _, _, confirms := n.srv.cl.c.GossipCounts(); confirms == 0 {
			t.Errorf("survivor %s confirmed no peer dead", n.url)
		}
	}

	// Anti-entropy repair re-homes B's key range: wait until every key
	// is cached on its new owner.
	repairDeadline := time.Now().Add(10 * time.Second)
	for {
		missing := 0
		for _, spec := range specs {
			key := keyOf[spec.Seed]
			owner := a.srv.cl.c.Owner(key)
			for _, n := range survivors {
				if n.url == owner {
					if _, ok := n.srv.cache.get(key); !ok {
						missing++
					}
				}
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(repairDeadline) {
			t.Fatalf("%d keys never repaired onto their new owners", missing)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Warm resubmission against the other survivor: zero lost, zero
	// double-run, zero new simulations.
	resp2, view2 := postSweep(t, c.ts, sweepJSON("gossip-warm"))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("warm sweep: HTTP %d", resp2.StatusCode)
	}
	warm := waitSweepDone(t, c.ts, view2.ID, 60*time.Second)
	if warm.Failed != 0 || warm.Done+warm.Deduped != cells {
		t.Fatalf("warm sweep: done=%d deduped=%d failed=%d, want %d total / 0 failed",
			warm.Done, warm.Deduped, warm.Failed, cells)
	}
	if got := total(); got != int64(cells) {
		t.Errorf("warm sweep after node death ran %d extra simulations, want 0", got-int64(cells))
	}
	events, _ := readSweepEvents(t, c.ts, view2.ID, "")
	seen := make(map[int]int)
	for _, ev := range events {
		seen[ev.Cell]++
	}
	if len(seen) != cells {
		t.Errorf("warm sweep events cover %d cells, want %d", len(seen), cells)
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("warm sweep cell %d has %d terminal events, want exactly 1", cell, n)
		}
	}

	// Phase 3: restart B on the same address with the same bootstrap
	// flags. It must rejoin through gossip alone.
	addr := strings.TrimPrefix(b.url, "http://")
	b2 := startNode(t, b.url, urls, relisten(t, addr), testGossipOptions(urls),
		func(cfg *Config) {
			cfg.Run = pureRun(&sims[3], 0)
			cfg.RemotePeerSlots = 2 * 3 * perOwner
		})
	all := []*clusterNode{a, b2, c}
	waitMembership(t, all, 3, 10*time.Second, "after rejoin")
	if inc := b2.srv.cl.c.SelfIncarnation(); inc == 0 {
		t.Error("rejoined node did not bump its incarnation (no refutation happened)")
	}

	// Boot-time repair restores B's previously-warm share of the cache.
	bKeys := 0
	bootDeadline := time.Now().Add(10 * time.Second)
	for {
		missing := 0
		bKeys = 0
		for _, spec := range specs {
			key := keyOf[spec.Seed]
			if b2.srv.cl.c.Owner(key) != b.url {
				continue
			}
			bKeys++
			if _, ok := b2.srv.cache.get(key); !ok {
				missing++
			}
		}
		if bKeys > 0 && missing == 0 {
			break
		}
		if time.Now().After(bootDeadline) {
			t.Fatalf("rejoined node still missing %d of its %d owned keys", missing, bKeys)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, bcl := clusterStats(t, b2)
	if bcl.RepairPulled == 0 {
		t.Error("rejoined node recorded no repair pulls")
	}
	if bcl.SelfIncarnation == 0 {
		t.Error("rejoined node stats: self_incarnation = 0")
	}

	// A previously-warm, B-owned spec is an immediate cache hit on the
	// rejoined node — and bit-identical to the original run.
	var warmSpec JobSpec
	for _, spec := range specs {
		if b2.srv.cl.c.Owner(keyOf[spec.Seed]) == b.url {
			warmSpec = spec
			break
		}
	}
	body, _ := json.Marshal(warmSpec)
	req, _ := http.NewRequest(http.MethodPost, b2.ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "1") // handle locally: the hit must come from B's own cache
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("warm submit on rejoined node: HTTP %d, want 200 (cache hit)", hresp.StatusCode)
	}
	var hview JobView
	if err := json.NewDecoder(hresp.Body).Decode(&hview); err != nil {
		t.Fatal(err)
	}
	if !hview.Cached {
		t.Error("warm submit on rejoined node was not served from cache")
	}
	if sims[3].Load() != 0 {
		t.Errorf("rejoined node ran %d simulations, want 0 (repair made it warm)", sims[3].Load())
	}
	for _, spec := range specs {
		key := keyOf[spec.Seed]
		if b2.srv.cl.c.Owner(key) != b.url {
			continue
		}
		res, ok := b2.srv.cache.get(key)
		if !ok {
			t.Fatalf("repaired key for seed %d vanished", spec.Seed)
		}
		raw, _ := json.Marshal(res)
		if got := normalizeResult(t, raw); got != golden[spec.Seed] {
			t.Errorf("repaired result for seed %d differs from original:\noriginal: %s\nrepaired: %s",
				spec.Seed, golden[spec.Seed], got)
		}
	}
}

// gossipHeader encodes membership claims as an X-Mama-Gossip value,
// the way a peer that held them would piggyback them.
func gossipHeader(from string, claims ...cluster.MemberUpdate) string {
	b, _ := json.Marshal(struct {
		From    string                 `json:"from"`
		Updates []cluster.MemberUpdate `json:"updates"`
	}{from, claims})
	return base64.RawURLEncoding.EncodeToString(b)
}

// TestSuspectPeerIsSkipped: a peer the failure detector holds suspect
// gets no routed traffic — proxySubmit, reserve (for the cells it owns
// and for spilled ones alike), prefetch and writeBack all pass it
// over, and cluster.unhealthy names it — and every one of them uses it again as
// soon as its refutation arrives. The member table moves only when this
// test moves it: both detectors sleep (hour-long interval), and while
// the peer is to stay suspect the gossip-partition fault keeps every
// outbound header empty, so it cannot hear of the suspicion and refute
// early (boot-time repair RPCs would otherwise carry the news). The
// suspicion arrives as a gossiped claim; the refutation, once the fault
// is lifted, over two ordinary B→A requests (the first answer tells B
// it is suspected, the second request carries B's bumped incarnation).
func TestSuspectPeerIsSkipped(t *testing.T) {
	healGossip := enableFault(t, "cluster/gossip/partition", "always")
	var sims [2]atomic.Int64
	lns, urls := listenLoopback(t, 2)
	nodes := make([]*clusterNode, 2)
	for i := range nodes {
		nodes[i] = startNode(t, urls[i], urls, lns[i],
			cluster.GossipOptions{Interval: time.Hour, Seeds: urls},
			func(cfg *Config) { cfg.Run = pureRun(&sims[i], 0) })
	}
	a, b := nodes[0], nodes[1]
	acs, ctx := a.srv.cl, context.Background()

	specs := specsOwnedBy(t, a, b.url, 3)
	own, err := a.srv.resolve(specOwnedBy(t, a, a.url)) // a cell A could only spill
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(specs))
	bodies := make([]string, len(specs))
	for i, spec := range specs {
		p, err := a.srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(spec)
		keys[i], bodies[i] = p.key, string(body)
	}

	acs.c.ApplyGossipHeader(gossipHeader("http://third-party:1",
		cluster.MemberUpdate{URL: b.url, Inc: 0, State: cluster.StateSuspect}))
	if acs.c.Healthy(b.url) {
		t.Fatal("a suspect peer reads healthy")
	}
	if _, acl := clusterStats(t, a); len(acl.Unhealthy) != 1 || acl.Unhealthy[0] != b.url {
		t.Errorf("cluster.unhealthy = %v, want [%s]", acl.Unhealthy, b.url)
	}

	// proxySubmit degrades to local compute, and writeBack (decided before
	// the job reads done) does not push the result to the suspect owner.
	resp, view := postJob(t, a.ts, bodies[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with a suspect owner: HTTP %d", resp.StatusCode)
	}
	if done := waitDone(t, a.ts, view.ID, 10*time.Second); done.Status != StatusDone {
		t.Fatalf("job with a suspect owner finished as %q: %s", done.Status, done.Error)
	}
	if sims[0].Load() != 1 || sims[1].Load() != 0 {
		t.Errorf("simulations = [%d %d], want [1 0]: the suspect owner must be passed over", sims[0].Load(), sims[1].Load())
	}
	for _, key := range []string{keys[1], own.key} {
		if slot := acs.reserve(key, false); slot != nil {
			slot.release()
			t.Errorf("reserve claimed a slot on a suspect peer (key owned by %s)", acs.c.Owner(key))
		}
	}
	if acs.spare() {
		t.Error("spare() counts a suspect peer's slots")
	}
	acs.prefetch(ctx, digestOf(t, keys[1]))
	_, acl := clusterStats(t, a)
	if acl.DegradedLocal != 1 || acl.Proxied != 0 || acl.Writebacks != 0 ||
		acl.RemoteCacheHits != 0 || acl.RemoteCacheMisses != 0 {
		t.Errorf("while suspect: degraded_local=%d proxied=%d writebacks=%d remote hits/misses=%d/%d, want 1 0 0 0/0",
			acl.DegradedLocal, acl.Proxied, acl.Writebacks, acl.RemoteCacheHits, acl.RemoteCacheMisses)
	}
	// B's boot-time repair runs on its own goroutine; B sees A healthy, so
	// when that goroutine runs late it rightly pulls the B-owned result A
	// just computed. A sent B nothing iff every key B holds, B pulled.
	if bst, bcl := clusterStats(t, b); bst.Submitted != 0 || uint64(bst.CachedKeys) != bcl.RepairPulled {
		t.Errorf("suspect peer saw traffic: submitted=%d cached_keys=%d repair_pulled=%d",
			bst.Submitted, bst.CachedKeys, bcl.RepairPulled)
	}

	healGossip()
	for i := 0; i < 2; i++ {
		if _, _, err := b.srv.cl.c.Do(ctx, a.url, http.MethodGet, "/healthz", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, bcl := clusterStats(t, b); bcl.Refutes != 1 || bcl.SelfIncarnation != 1 {
		t.Fatalf("suspected node: refutes=%d self_incarnation=%d, want 1 and 1", bcl.Refutes, bcl.SelfIncarnation)
	}
	if !acs.c.Healthy(b.url) {
		t.Fatal("peer still unhealthy after its refutation arrived")
	}

	// Every path uses the peer again: the submit is proxied and computed
	// on its owner, prefetch fetches that result, a slot can be reserved
	// for an owned cell and for a spilled one, and a result computed
	// off-owner (a forwarded-marked submit is never proxied) is written
	// back.
	resp, view = postJob(t, a.ts, bodies[1])
	if got := resp.Header.Get(cluster.HeaderOwner); got != b.url {
		t.Fatalf("X-Mama-Owner = %q after refutation, want the owner %s", got, b.url)
	}
	if done := waitDone(t, a.ts, view.ID, 10*time.Second); done.Status != StatusDone {
		t.Fatalf("proxied job finished as %q: %s", done.Status, done.Error)
	}
	if sims[0].Load() != 1 || sims[1].Load() != 1 {
		t.Errorf("simulations = [%d %d], want [1 1]: the refuted owner computes again", sims[0].Load(), sims[1].Load())
	}
	acs.prefetch(ctx, digestOf(t, keys[1]))
	for _, key := range []string{keys[2], own.key} {
		if slot := acs.reserve(key, false); slot == nil || slot.venue != b.url {
			t.Errorf("reserve still passes over the refuted peer (key owned by %s)", acs.c.Owner(key))
		} else {
			slot.release()
		}
	}
	if code, v := postForwarded(t, a, []byte(bodies[2])); code != http.StatusAccepted {
		t.Fatalf("forwarded submit: HTTP %d", code)
	} else if done := waitDone(t, a.ts, v.ID, 10*time.Second); done.Status != StatusDone {
		t.Fatalf("forwarded job finished as %q: %s", done.Status, done.Error)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, acl = clusterStats(t, a)
		if acl.Writebacks == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result computed off-owner never written back to the refuted owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if acl.RemoteCacheHits != 1 || acl.Proxied == 0 || len(acl.Unhealthy) != 0 {
		t.Errorf("after refutation: remote_cache_hits=%d proxied=%d unhealthy=%v, want 1, >0, none",
			acl.RemoteCacheHits, acl.Proxied, acl.Unhealthy)
	}
}

// TestClusterNewAloneGossips: there is no static mode to fall into. A
// node built from cluster.New alone — no EnableGossip call, production
// timings — and told only of one seed joins through it (its ring gains
// a peer it was never configured with), and when that peer is killed it
// confirms the death and drops it from its ring like everyone else.
func TestClusterNewAloneGossips(t *testing.T) {
	lns, urls := listenLoopback(t, 3)
	a := startNode(t, urls[0], urls[:2], lns[0], testGossipOptions(urls[:2]), nil)
	b := startNode(t, urls[1], urls[:2], lns[1], testGossipOptions(urls[:2]), nil)
	cl, err := cluster.New(urls[2], []string{a.url}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := serveNode(t, cl, lns[2], nil)

	waitMembership(t, []*clusterNode{a, b, c}, 3, 10*time.Second, "after join")
	if !cl.Contains(b.url) {
		t.Fatalf("joined node never learned of %s: members %v", b.url, cl.Members())
	}
	b.kill()
	waitMembership(t, []*clusterNode{a, c}, 2, 10*time.Second, "after kill")
	if cl.Contains(b.url) {
		t.Fatalf("dead node %s still in the joined node's ring", b.url)
	}
	if _, _, confirms := cl.GossipCounts(); confirms == 0 {
		t.Error("joined node confirmed no peer dead")
	}
}

// TestGossipFlapChaos runs a cluster whose gossip ping handlers answer
// 503 (a flapping peer, injected): every probe fails, so suspicion
// churns constantly — but refutations ride the unaffected ping-req
// path and ordinary traffic, so nobody is ever confirmed dead, the ring stays full, and a sweep
// still completes every cell exactly once.
func TestGossipFlapChaos(t *testing.T) {
	enableFault(t, "cluster/gossip/flap", "always")
	const cells = 4
	var sims [3]atomic.Int64
	lns, urls := listenLoopback(t, 3)
	opts := cluster.GossipOptions{
		Interval:       10 * time.Millisecond,
		SuspectTimeout: 30 * time.Second, // refutes must always win under -race load
		Seeds:          urls,
	}
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		nodes[i] = startNode(t, urls[i], urls, lns[i], opts, func(cfg *Config) {
			cfg.Run = pureRun(&sims[i], 0)
		})
	}

	// Suspicion and refutation counters must both move: probes fail,
	// the suspects hear about it from a relay's answer and refute.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var suspects, refutes uint64
		for _, n := range nodes {
			s, r, _ := n.srv.cl.c.GossipCounts()
			suspects += s
			refutes += r
		}
		if suspects > 0 && refutes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flapping cluster never churned: suspects=%d refutes=%d", suspects, refutes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		if n.srv.cl.c.Size() != 3 {
			t.Errorf("node %s ring shrank to %d under flapping probes", n.url, n.srv.cl.c.Size())
		}
	}

	// Service is unimpaired: a sweep completes, every cell exactly once.
	resp, view := postSweep(t, nodes[0].ts, sweepGridJSON("flap", cells))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep under flap: HTTP %d", resp.StatusCode)
	}
	done := waitSweepDone(t, nodes[0].ts, view.ID, 30*time.Second)
	if done.Failed != 0 || done.Done+done.Deduped != cells {
		t.Fatalf("sweep under flap: done=%d deduped=%d failed=%d", done.Done, done.Deduped, done.Failed)
	}
	var total int64
	for i := range sims {
		total += sims[i].Load()
	}
	if total != cells {
		t.Errorf("sweep under flap ran %d simulations, want exactly %d", total, cells)
	}
}

// TestGossipPartitionChaos cuts every outbound gossip path: with no
// probes or relays leaving any node, each one suspects and
// then confirms the whole peer set dead, degrading to a singleton ring
// — and keeps serving local work.
func TestGossipPartitionChaos(t *testing.T) {
	enableFault(t, "cluster/gossip/partition", "always")
	var sims [3]atomic.Int64
	lns, urls := listenLoopback(t, 3)
	opts := cluster.GossipOptions{
		Interval:       10 * time.Millisecond,
		SuspectTimeout: 100 * time.Millisecond,
		Seeds:          urls,
	}
	nodes := make([]*clusterNode, 3)
	for i := range nodes {
		nodes[i] = startNode(t, urls[i], urls, lns[i], opts, func(cfg *Config) {
			cfg.Run = pureRun(&sims[i], 0)
		})
	}

	deadline := time.Now().Add(15 * time.Second)
	for {
		singletons := 0
		for _, n := range nodes {
			if n.srv.cl.c.Size() == 1 {
				singletons++
			}
		}
		if singletons == len(nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d nodes degraded to singleton rings", singletons, len(nodes))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range nodes {
		if _, _, confirms := n.srv.cl.c.GossipCounts(); confirms < 2 {
			t.Errorf("node %s confirmed %d peers dead, want 2", n.url, confirms)
		}
	}

	// A singleton node owns every key: submissions complete locally.
	resp, view := postJob(t, nodes[0].ts, fakeSpec(7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under gossip partition: HTTP %d", resp.StatusCode)
	}
	if body := waitDone(t, nodes[0].ts, view.ID, 10*time.Second); body.Status != StatusDone {
		t.Fatalf("job under gossip partition finished as %q: %s", body.Status, body.Error)
	}
	if sims[0].Load() != 1 {
		t.Errorf("receiving node ran %d simulations, want 1 (local compute)", sims[0].Load())
	}
}

// digestOf is a job key as sweep.Exec.Prefetch takes it: the raw bytes
// its hex digits spell.
func digestOf(t *testing.T, key string) string {
	t.Helper()
	d, err := hex.DecodeString(key)
	if err != nil || len(d) != sha256.Size {
		t.Fatalf("job key %q is not %d hex-encoded bytes", key, sha256.Size)
	}
	return string(d)
}
