// Command clustersmoke is the `make cluster-smoke` gate: a three-node
// sharded mamaserved cluster (one fixed peer list) driven end to end
// with real tiny simulations. A cold sweep submitted to node A is
// routed across the ring (every cell simulated exactly once
// cluster-wide), then the same cells are resubmitted under a new sweep
// name to node C — the warm pass must complete with zero new
// simulations anywhere, served by cross-shard cache fetches from the
// owning nodes. A churn phase kills node B mid-sweep (the sweep must
// still finish every cell exactly once on the survivors; the phase's
// simulations per cell are printed), then restarts it: B must answer
// /healthz again and its boot repair settle, and a warm resubmission
// against the restarted node must cost zero new simulations. A last
// phase boots a second trio with the default per-peer slots and gives
// node A a sweep whose every cell A itself owns: the dispatch rule must
// still put all three nodes to work, each cell simulated once. It
// exercises the whole cluster surface (ring routing, remote execution,
// spilling to non-owners, distributed cache lookup, last-RPC health,
// boot repair) in-process in a few seconds.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"time"

	"micromama/internal/client"
	"micromama/internal/cluster"
	"micromama/internal/server"
	"micromama/internal/sweep"
)

// spec expands to an eight-cell tiny-scale sweep (two mixes × two
// controllers × two seeds) with a small instruction target so real
// simulations stay fast while still spreading keys across all shards.
func spec(name string, seeds ...uint64) sweep.Spec {
	return sweep.Spec{
		Name: name,
		Grid: &sweep.Grid{
			Mixes:       [][]string{{"spec06.libquantum"}, {"spec06.sphinx3"}},
			Controllers: []string{"no", "bandit"},
			Seeds:       seeds,
			Scales:      []string{"tiny"},
			Target:      60_000,
		},
	}
}

type node struct {
	cl  *cluster.Cluster
	srv *server.Server
	ts  *httptest.Server
	url string
	c   *client.Client
}

// startNode builds one cluster member on an already-bound listener.
// The same constructor serves initial boot and the churn-phase restart,
// so a restarted node differs only by what its boot repair pulls back.
func startNode(ln net.Listener, self string, urls []string, peerSlots int) (*node, error) {
	cl, err := cluster.New(self, urls, cluster.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster %s: %w", self, err)
	}
	srv, err := server.New(server.Config{
		Workers:         2,
		QueueDepth:      64,
		Cluster:         cl,
		RemotePeerSlots: peerSlots,
	})
	if err != nil {
		return nil, fmt.Errorf("server %s: %w", self, err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	return &node{cl: cl, srv: srv, ts: ts, url: self,
		c: client.New(self, client.Options{Timeout: 2 * time.Minute})}, nil
}

// startCluster binds n loopback listeners first so every node is built
// with the full peer list before any server starts.
func startCluster(n, peerSlots int) ([]*node, []string, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*node, n)
	for i := range nodes {
		nd, err := startNode(lns[i], urls[i], urls, peerSlots)
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = nd
	}
	return nodes, urls, nil
}

// relisten rebinds a specific loopback address the kernel may still
// hold in TIME_WAIT for a moment after the old listener closed.
func relisten(addr string) (net.Listener, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rebind %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

type stats struct {
	Simulations uint64 `json:"simulations"`
	Cluster     *struct {
		Peers           []string `json:"peers"`
		RingHash        uint64   `json:"ring_hash"`
		RepairPulled    uint64   `json:"repair_pulled"`
		Proxied         uint64   `json:"proxied"`
		RemoteCells     uint64   `json:"remote_cells"`
		RemoteCacheHits uint64   `json:"remote_cache_hits"`
		CacheServed     uint64   `json:"cache_served"`
	} `json:"cluster"`
}

func getStats(ctx context.Context, nd *node) (stats, error) {
	resp, err := nd.c.Get(ctx, "/v1/stats")
	if err != nil {
		return stats{}, err
	}
	var st stats
	if err := json.Unmarshal(resp.Body, &st); err != nil {
		return stats{}, err
	}
	if st.Cluster == nil {
		return stats{}, fmt.Errorf("no cluster block in /v1/stats")
	}
	return st, nil
}

func totalSims(ctx context.Context, nodes []*node) (uint64, error) {
	var total uint64
	for _, nd := range nodes {
		st, err := getStats(ctx, nd)
		if err != nil {
			return 0, err
		}
		total += st.Simulations
	}
	return total, nil
}

// waitCluster polls every node's /v1/stats until each answers with the
// expected ring size and all ring fingerprints agree.
func waitCluster(ctx context.Context, nodes []*node, size int, timeout time.Duration, what string) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		var hashes []uint64
		for _, nd := range nodes {
			st, err := getStats(ctx, nd)
			if err != nil {
				ok = false
				break
			}
			if len(st.Cluster.Peers)+1 != size {
				ok = false
				break
			}
			hashes = append(hashes, st.Cluster.RingHash)
		}
		if ok {
			for _, h := range hashes {
				if h != hashes[0] {
					ok = false
					break
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: nodes did not agree on a %d-node ring within %v", what, size, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// eagerSlots makes owner dispatch eager: a peer-owned cell always finds
// a slot on its owner, and a spilled self-owned one comes home with the
// result wait, so the warm passes find each result exactly where the
// ring says it lives (no async write-back to wait on).
const eagerSlots = 32

func stopAll(nodes []*node) {
	for _, nd := range nodes {
		nd.ts.Close()
		nd.srv.Close()
	}
}

func run() error {
	nodes, urls, err := startCluster(3, eagerSlots)
	if err != nil {
		return err
	}
	defer func() { stopAll(nodes) }()
	a, c := nodes[0], nodes[2]

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if err := waitCluster(ctx, nodes, 3, 10*time.Second, "bootstrap"); err != nil {
		return err
	}

	// Phase 1: cold sweep against node A. The ring routes each cell to
	// its owning node; cluster-wide each cell simulates exactly once.
	coldStart := time.Now()
	v, err := a.c.SubmitSweep(ctx, spec("cluster-smoke", 1, 2))
	if err != nil {
		return fmt.Errorf("cold submit: %w", err)
	}
	fmt.Printf("cluster-smoke: submitted %s (%d cells) to node A\n", v.ID, v.Cells)
	final, err := a.c.StreamSweepResults(ctx, v.ID, func(ev sweep.Event) error { return nil })
	if err != nil {
		return fmt.Errorf("cold stream: %w", err)
	}
	coldDur := time.Since(coldStart)
	if final.Done != v.Cells || final.Failed != 0 {
		return fmt.Errorf("cold sweep: done %d failed %d, want %d/0", final.Done, final.Failed, v.Cells)
	}
	simsAfterCold, err := totalSims(ctx, nodes)
	if err != nil {
		return err
	}
	if simsAfterCold != uint64(v.Cells) {
		return fmt.Errorf("cold sweep ran %d simulations cluster-wide, want exactly %d (one per cell)",
			simsAfterCold, v.Cells)
	}
	aStats, err := getStats(ctx, a)
	if err != nil {
		return err
	}
	if aStats.Cluster.RemoteCells == 0 {
		return fmt.Errorf("node A executed no cells remotely; routing is not happening")
	}
	fmt.Printf("cluster-smoke: cold sweep done in %v (%d cells, %d sims cluster-wide, %d routed off A)\n",
		coldDur.Round(time.Millisecond), final.Done, simsAfterCold, aStats.Cluster.RemoteCells)

	// Phase 2: same cells, new sweep name, submitted to node C. Every
	// result lives on its owning shard; C must assemble the sweep from
	// cross-shard cache fetches without a single new simulation.
	warmStart := time.Now()
	warm, err := c.c.SubmitSweep(ctx, spec("cluster-smoke-warm", 1, 2))
	if err != nil {
		return fmt.Errorf("warm submit: %w", err)
	}
	warmDur := time.Since(warmStart)
	if warm.Status != "done" || warm.Deduped != v.Cells {
		return fmt.Errorf("warm sweep: status %q deduped %d, want done with all %d cells deduped",
			warm.Status, warm.Deduped, v.Cells)
	}
	simsAfterWarm, err := totalSims(ctx, nodes)
	if err != nil {
		return err
	}
	if simsAfterWarm != simsAfterCold {
		return fmt.Errorf("warm sweep ran %d new simulations, want 0",
			simsAfterWarm-simsAfterCold)
	}
	cStats, err := getStats(ctx, c)
	if err != nil {
		return err
	}
	if cStats.Cluster.RemoteCacheHits == 0 {
		return fmt.Errorf("node C reports zero cross-shard cache hits; warm pass was not served by the ring")
	}
	fmt.Printf("cluster-smoke: warm sweep to node C answered in %v (%d cells deduped, %d cross-shard cache hits, 0 new simulations)\n",
		warmDur.Round(time.Millisecond), warm.Deduped, cStats.Cluster.RemoteCacheHits)

	// Phase 3: churn. Kill node B mid-sweep: the sweep must still finish
	// every cell exactly once on the survivors. Then restart B: it must
	// answer /healthz again and its boot repair settle, until a warm
	// resubmission against B costs zero new simulations.
	b := nodes[1]
	bAddr := b.url[len("http://"):]
	churn, err := a.c.SubmitSweep(ctx, spec("cluster-smoke-churn", 3, 4))
	if err != nil {
		return fmt.Errorf("churn submit: %w", err)
	}
	// Wait for the sweep to actually be in flight before pulling the
	// plug, so the kill interrupts live dispatch rather than an idle
	// queue.
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := a.c.Get(ctx, "/v1/sweeps/"+churn.ID)
		if err != nil {
			return fmt.Errorf("churn view: %w", err)
		}
		var view sweep.View
		if err := json.Unmarshal(resp.Body, &view); err != nil {
			return fmt.Errorf("churn view: %w", err)
		}
		if view.Running > 0 || view.Done > 0 || view.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("churn sweep never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killAt := time.Now()
	b.ts.Close()
	b.srv.Close()
	fmt.Printf("cluster-smoke: killed node B mid-sweep (%s)\n", b.url)
	survivors := []*node{a, c}

	// The orphaned sweep must still complete: every cell terminal
	// exactly once, none failed — B's in-flight cells are re-routed to
	// the survivors.
	terminal := make(map[int]int)
	churnFinal, err := a.c.StreamSweepResults(ctx, churn.ID, func(ev sweep.Event) error {
		terminal[ev.Cell]++
		return nil
	})
	if err != nil {
		return fmt.Errorf("churn stream: %w", err)
	}
	// Duplicate simulations: every simulation the churn phase ran on any
	// node (B's up to its death, read from its stopped server) per cell,
	// printed before the checks so a failing run reports it too.
	survivorSims, err := totalSims(ctx, survivors)
	if err != nil {
		return err
	}
	churnSims := survivorSims + b.srv.Stats().Simulations - simsAfterWarm
	fmt.Printf("cluster-smoke: churn phase ran %d simulations for %d cells (%.2f per cell)\n",
		churnSims, churn.Cells, float64(churnSims)/float64(churn.Cells))
	if churnFinal.Done != churn.Cells || churnFinal.Failed != 0 {
		return fmt.Errorf("churn sweep: done %d failed %d, want %d/0", churnFinal.Done, churnFinal.Failed, churn.Cells)
	}
	if len(terminal) != churn.Cells {
		return fmt.Errorf("churn sweep emitted terminal events for %d cells, want %d", len(terminal), churn.Cells)
	}
	for cell, n := range terminal {
		if n != 1 {
			return fmt.Errorf("churn cell %d completed %d times, want exactly once", cell, n)
		}
	}
	fmt.Printf("cluster-smoke: churn sweep finished on the survivors (%d cells exactly once, 0 failed)\n",
		churnFinal.Done)

	// Restart B on the same address with the same config. It must answer
	// /healthz again and pull back every key it owns via boot repair.
	ln, err := relisten(bAddr)
	if err != nil {
		return err
	}
	nb, err := startNode(ln, b.url, urls, eagerSlots)
	if err != nil {
		return fmt.Errorf("restart B: %w", err)
	}
	nodes[1] = nb
	if _, err := nb.c.Get(ctx, "/healthz"); err != nil {
		return fmt.Errorf("restarted B: /healthz: %w", err)
	}
	// Repair runs right after the restart; wait until the pull counter
	// is nonzero and has stopped moving before trusting B's cache.
	var pulled uint64
	stable := 0
	for deadline := time.Now().Add(15 * time.Second); stable < 5; {
		st, err := getStats(ctx, nb)
		if err != nil {
			return err
		}
		if st.Cluster.RepairPulled > 0 && st.Cluster.RepairPulled == pulled {
			stable++
		} else {
			stable = 0
		}
		pulled = st.Cluster.RepairPulled
		if time.Now().After(deadline) {
			return fmt.Errorf("boot repair never settled (pulled %d)", pulled)
		}
		time.Sleep(100 * time.Millisecond)
	}
	fmt.Printf("cluster-smoke: B answers /healthz again %v after its kill, and repair settled with %d cache entries\n",
		time.Since(killAt).Round(time.Millisecond), pulled)

	// Final warm pass, submitted to the restarted node: the churn cells
	// must all dedupe against B's repaired cache and its peers — zero
	// new simulations anywhere.
	simsBefore, err := totalSims(ctx, nodes)
	if err != nil {
		return err
	}
	rewarm, err := nb.c.SubmitSweep(ctx, spec("cluster-smoke-rewarm", 3, 4))
	if err != nil {
		return fmt.Errorf("rewarm submit: %w", err)
	}
	if rewarm.Status != "done" || rewarm.Deduped != churn.Cells {
		return fmt.Errorf("rewarm sweep: status %q deduped %d, want done with all %d cells deduped",
			rewarm.Status, rewarm.Deduped, churn.Cells)
	}
	simsAfter, err := totalSims(ctx, nodes)
	if err != nil {
		return err
	}
	if simsAfter != simsBefore {
		return fmt.Errorf("rewarm sweep ran %d new simulations after B restarted, want 0", simsAfter-simsBefore)
	}
	fmt.Printf("cluster-smoke: warm resubmission to restarted B deduped %d cells with 0 new simulations\n",
		rewarm.Deduped)
	return skewPhase(ctx)
}

// skewPhase is the dispatch rule's worst placement, on a fresh trio with
// the default per-peer slots (= workers): every cell of the sweep is
// owned by the node that receives it. All three nodes must simulate,
// and the per-node counts must add up to the cells — each ran once.
func skewPhase(ctx context.Context) error {
	const cells = 12
	nodes, _, err := startCluster(3, 0)
	if err != nil {
		return err
	}
	defer stopAll(nodes)
	if err := waitCluster(ctx, nodes, 3, 10*time.Second, "skew bootstrap"); err != nil {
		return err
	}
	a := nodes[0]
	own, err := seedsOwnedBy(ctx, a, cells)
	if err != nil {
		return err
	}
	v, err := a.c.SubmitSweep(ctx, skewSpec("cluster-smoke-skew", own))
	if err != nil {
		return fmt.Errorf("skew submit: %w", err)
	}
	final, err := a.c.StreamSweepResults(ctx, v.ID, func(ev sweep.Event) error { return nil })
	if err != nil {
		return fmt.Errorf("skew stream: %w", err)
	}
	if final.Done != cells || final.Failed != 0 {
		return fmt.Errorf("skew sweep: done %d failed %d, want %d/0", final.Done, final.Failed, cells)
	}
	var per [3]uint64
	var sum uint64
	for i, nd := range nodes {
		st, err := getStats(ctx, nd)
		if err != nil {
			return err
		}
		per[i] = st.Simulations
		sum += per[i]
	}
	fmt.Printf("cluster-smoke: skewed sweep (%d cells, all owned by node A) simulated A=%d B=%d C=%d\n",
		cells, per[0], per[1], per[2])
	if sum != cells {
		return fmt.Errorf("skewed sweep ran %d simulations cluster-wide, want exactly %d", sum, cells)
	}
	for i, n := range per {
		if n == 0 {
			return fmt.Errorf("node %c simulated nothing: a free peer slot was left empty", 'A'+i)
		}
	}
	return nil
}

// skewSpec is the skew phase's sweep over the given seeds.
func skewSpec(name string, seeds []uint64) sweep.Spec {
	return sweep.Spec{Name: name, Grid: &sweep.Grid{
		Mixes: [][]string{{"spec06.libquantum"}}, Controllers: []string{"no"},
		Seeds: seeds, Scales: []string{"tiny"}, Target: 60_000,
	}}
}

// seedsOwnedBy hunts for n seeds whose skewSpec cells land on nd. Job
// keys are content addresses, the same on every server, so a throwaway
// standalone one with a no-op run function names every candidate's key
// without a clustered node seeing any of them; nd's ring says who owns
// each.
func seedsOwnedBy(ctx context.Context, nd *node, n int) ([]uint64, error) {
	probe, err := server.New(server.Config{Workers: 1,
		Run: func(context.Context, server.JobSpec) (server.JobResult, error) { return server.JobResult{}, nil }})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(probe.Handler())
	defer func() {
		ts.Close()
		probe.Close()
	}()
	pc := client.New(ts.URL, client.Options{Timeout: time.Minute})
	candidates := make([]uint64, 8*n)
	for i := range candidates {
		candidates[i] = uint64(1000 + i)
	}
	v, err := pc.SubmitSweep(ctx, skewSpec("probe", candidates))
	if err != nil {
		return nil, fmt.Errorf("probe submit: %w", err)
	}
	var own []uint64
	if _, err := pc.StreamSweepResults(ctx, v.ID, func(ev sweep.Event) error {
		if len(own) < n && nd.cl.Owner(ev.Key) == nd.url {
			own = append(own, ev.Spec.Seed)
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("probe stream: %w", err)
	}
	if len(own) < n {
		return nil, fmt.Errorf("only %d of %d candidate seeds are owned by %s, want %d", len(own), len(candidates), nd.url, n)
	}
	return own, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cluster-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("cluster-smoke: PASS")
}
