package server

import (
	"bytes"
	"context"
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

// TestKillRestartRepair is the membership acceptance test, end to end
// under -race:
//
//  1. a 3-node cluster computes a sweep exactly once;
//  2. one node, B, is killed: the ring does not change, so B still owns
//     its keys, but an identical sweep against a survivor completes
//     with zero lost cells, zero double-runs and zero new simulations —
//     admission asks the other healthy peers for the keys whose owner
//     does not answer;
//  3. B restarts with its original flags: boot repair pulls back its
//     previously-warm entries from the peers, so a key it owns is an
//     immediate local cache hit — still bit-identical to the original
//     run.
func TestKillRestartRepair(t *testing.T) {
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
		nodes[i] = startNode(t, urls[i], urls, lns[i], func(cfg *Config) {
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
	bKeys := 0
	for _, spec := range specs {
		p, err := a.srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		keyOf[spec.Seed] = p.key
		if a.srv.cl.c.Owner(p.key) == b.url {
			bKeys++
		}
	}

	// Phase 1: cold sweep, every cell exactly once across the cluster.
	resp, view := postSweep(t, a.ts, cellsJSON("kill-cold", specs))
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

	// Phase 2: kill B, then resubmit the sweep to the other survivor:
	// zero lost, zero double-run, zero new simulations.
	b.kill()
	resp2, view2 := postSweep(t, c.ts, cellsJSON("kill-warm", specs))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("warm sweep: HTTP %d", resp2.StatusCode)
	}
	warm := waitSweepDone(t, c.ts, view2.ID, 60*time.Second)
	if warm.Failed != 0 || warm.Done+warm.Deduped != cells {
		t.Fatalf("warm sweep: done=%d deduped=%d failed=%d, want %d total / 0 failed",
			warm.Done, warm.Deduped, warm.Failed, cells)
	}
	if warm.Deduped != cells {
		t.Errorf("warm sweep deduped %d of %d cells at admission: the dead owner's keys were not found on the other peers",
			warm.Deduped, cells)
	}
	if got := total(); got != int64(cells) {
		t.Errorf("warm sweep after node death ran %d extra simulations, want 0", got-int64(cells))
	}
	exactlyOnce(t, c, view2.ID, cells)
	if c.srv.cl.c.Healthy(b.url) {
		t.Errorf("survivor %s still counts the dead node healthy", c.url)
	}

	// Phase 3: restart B on the same address with the same flags. Boot
	// repair restores its previously-warm share of the cache.
	addr := strings.TrimPrefix(b.url, "http://")
	b2 := startNode(t, b.url, urls, relisten(t, addr), func(cfg *Config) {
		cfg.Run = pureRun(&sims[3], 0)
		cfg.RemotePeerSlots = 2 * 3 * perOwner
	})
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		missing := 0
		for _, spec := range specs {
			key := keyOf[spec.Seed]
			if b2.srv.cl.c.Owner(key) != b.url {
				continue
			}
			if _, ok := b2.srv.cache.get(key); !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted node still missing %d of its %d owned keys", missing, bKeys)
		}
	}
	if _, bcl := clusterStats(t, b2); bcl.RepairPulled == 0 {
		t.Error("restarted node recorded no repair pulls")
	}

	// A previously-warm, B-owned spec is an immediate cache hit on the
	// restarted node — and bit-identical to the original run.
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
		t.Fatalf("warm submit on restarted node: HTTP %d, want 200 (cache hit)", hresp.StatusCode)
	}
	var hview JobView
	if err := json.NewDecoder(hresp.Body).Decode(&hview); err != nil {
		t.Fatal(err)
	}
	if !hview.Cached {
		t.Error("warm submit on restarted node was not served from cache")
	}
	if sims[3].Load() != 0 {
		t.Errorf("restarted node ran %d simulations, want 0 (repair made it warm)", sims[3].Load())
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

// TestUnhealthyPeerIsSkipped: a peer whose last RPC failed gets no
// routed traffic — proxySubmit, reserve (for the cells it owns and for
// spilled ones alike), prefetch and writeBack all pass it over, and
// cluster.unhealthy names it — and every one of them uses it again as
// soon as an RPC to it is answered.
func TestUnhealthyPeerIsSkipped(t *testing.T) {
	var sims [2]atomic.Int64
	nodes := startCluster(t, 2, func(i int, cfg *Config) { cfg.Run = pureRun(&sims[i], 0) })
	a, b := nodes[0], nodes[1]
	acs, ctx := a.srv.cl, context.Background()
	// Both boot repairs are answered before anything else happens (no
	// write-back is in flight yet, so the group holds only them): a late
	// one could otherwise clear the mark this test sets.
	a.srv.cl.wg.Wait()
	b.srv.cl.wg.Wait()

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

	// sideline fails one A→B RPC on its own deadline, a transport failure
	// A books against B. It precedes every check, each of which takes far
	// less than the second a failed peer is passed over for.
	sideline := func() {
		t.Helper()
		if _, _, err := acs.c.DoTimeout(ctx, b.url, http.MethodGet, "/healthz", nil, time.Nanosecond); err == nil {
			t.Fatal("an RPC with a 1ns deadline succeeded")
		}
		if acs.c.Healthy(b.url) {
			t.Fatal("a peer whose last RPC failed reads healthy")
		}
	}
	sideline()
	if _, acl := clusterStats(t, a); len(acl.Unhealthy) != 1 || acl.Unhealthy[0] != b.url {
		t.Errorf("cluster.unhealthy = %v, want [%s]", acl.Unhealthy, b.url)
	}

	// proxySubmit degrades to local compute, and writeBack (decided before
	// the job reads done) does not push the result to the unhealthy owner.
	sideline()
	resp, view := postJob(t, a.ts, bodies[0])
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with an unhealthy owner: HTTP %d", resp.StatusCode)
	}
	if done := waitDone(t, a.ts, view.ID, 10*time.Second); done.Status != StatusDone {
		t.Fatalf("job with an unhealthy owner finished as %q: %s", done.Status, done.Error)
	}
	if sims[0].Load() != 1 || sims[1].Load() != 0 {
		t.Errorf("simulations = [%d %d], want [1 0]: the unhealthy owner must be passed over", sims[0].Load(), sims[1].Load())
	}
	for _, key := range []string{keys[1], own.key} {
		sideline()
		if slot := acs.reserve(key, false); slot != nil {
			slot.release()
			t.Errorf("reserve claimed a slot on an unhealthy peer (key owned by %s)", acs.c.Owner(key))
		}
	}
	sideline()
	if acs.spare() {
		t.Error("spare() counts an unhealthy peer's slots")
	}
	sideline()
	acs.prefetch(ctx, internKeys(a.srv, keys[1])) // no other peer to ask
	_, acl := clusterStats(t, a)
	if acl.DegradedLocal != 1 || acl.Proxied != 0 || acl.Writebacks != 0 ||
		acl.RemoteCacheHits != 0 || acl.RemoteCacheMisses != 0 {
		t.Errorf("while unhealthy: degraded_local=%d proxied=%d writebacks=%d remote hits/misses=%d/%d, want 1 0 0 0/0",
			acl.DegradedLocal, acl.Proxied, acl.Writebacks, acl.RemoteCacheHits, acl.RemoteCacheMisses)
	}
	if bst := getStats(t, b.ts); bst.Submitted != 0 || bst.CachedKeys != 0 {
		t.Errorf("unhealthy peer saw traffic: submitted=%d cached_keys=%d", bst.Submitted, bst.CachedKeys)
	}

	// One answered RPC makes the peer healthy again at once.
	if code, _, err := acs.c.Do(ctx, b.url, http.MethodGet, "/healthz", nil); err != nil || code != http.StatusOK {
		t.Fatalf("GET /healthz on B: HTTP %d, %v", code, err)
	}
	if !acs.c.Healthy(b.url) {
		t.Fatal("peer still unhealthy after an answered RPC")
	}

	// Every path uses the peer again: the submit is proxied and computed
	// on its owner, prefetch fetches that result, a slot can be reserved
	// for an owned cell and for a spilled one, and a result computed
	// off-owner (a forwarded-marked submit is never proxied) is written
	// back.
	_, view = postJob(t, a.ts, bodies[1])
	if _, acl := clusterStats(t, a); acl.Proxied != 1 || acl.DegradedLocal != 1 {
		t.Fatalf("after recovery the submit left proxied=%d degraded_local=%d, want 1 and 1 (proxied to the owner)",
			acl.Proxied, acl.DegradedLocal)
	}
	if done := waitDone(t, a.ts, view.ID, 10*time.Second); done.Status != StatusDone {
		t.Fatalf("proxied job finished as %q: %s", done.Status, done.Error)
	}
	if sims[0].Load() != 1 || sims[1].Load() != 1 {
		t.Errorf("simulations = [%d %d], want [1 1]: the recovered owner computes again", sims[0].Load(), sims[1].Load())
	}
	acs.prefetch(ctx, internKeys(a.srv, keys[1]))
	for _, key := range []string{keys[2], own.key} {
		if slot := acs.reserve(key, false); slot == nil || slot.venue != b.url {
			t.Errorf("reserve still passes over the recovered peer (key owned by %s)", acs.c.Owner(key))
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
			t.Fatal("result computed off-owner never written back to the recovered owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if acl.RemoteCacheHits != 1 || acl.Proxied == 0 || len(acl.Unhealthy) != 0 {
		t.Errorf("after recovery: remote_cache_hits=%d proxied=%d unhealthy=%v, want 1, >0, none",
			acl.RemoteCacheHits, acl.Proxied, acl.Unhealthy)
	}
}

// TestPartitionChaos cuts every peer RPC with the cluster/rpc/partition
// fault: boot repair, proxying, lookups and remote cells all fail in
// transport, and a submission still completes on the node that
// received it, with exactly one simulation.
func TestPartitionChaos(t *testing.T) {
	enableFault(t, "cluster/rpc/partition", "always")
	var sims [3]atomic.Int64
	nodes := startCluster(t, 3, func(i int, cfg *Config) { cfg.Run = pureRun(&sims[i], 0) })

	resp, view := postJob(t, nodes[0].ts, fakeSpec(7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit under partition: HTTP %d", resp.StatusCode)
	}
	if body := waitDone(t, nodes[0].ts, view.ID, 10*time.Second); body.Status != StatusDone {
		t.Fatalf("job under partition finished as %q: %s", body.Status, body.Error)
	}
	if got := [3]int64{sims[0].Load(), sims[1].Load(), sims[2].Load()}; got != [3]int64{1, 0, 0} {
		t.Errorf("simulations = %v, want [1 0 0] (local compute on the receiving node)", got)
	}
}
