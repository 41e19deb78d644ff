package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/faultinject"
	"micromama/internal/sweep"
)

// clusterNode is one in-process member of a test cluster.
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
	url string
}

func (n *clusterNode) kill() {
	n.ts.Close()
	n.srv.Close()
}

// listenLoopback binds n loopback listeners and returns them with the
// URLs nodes served on them will advertise. Binding first lets every
// node be constructed with the full peer set.
func listenLoopback(t testing.TB, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	return lns, urls
}

// startNode boots one cluster node with peer list urls on a pre-bound
// listener; mut customizes the server Config.
func startNode(t testing.TB, self string, urls []string, ln net.Listener, mut func(cfg *Config)) *clusterNode {
	t.Helper()
	cl, err := cluster.New(self, urls, cluster.Options{RPCTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:    2,
		QueueDepth: 64,
		Cluster:    cl,
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener = ln
	ts.Start()
	n := &clusterNode{srv: srv, ts: ts, url: cl.Self()}
	t.Cleanup(n.kill)
	return n
}

// startCluster boots n nodes that share one peer list.
func startCluster(t testing.TB, n int, mut func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	lns, urls := listenLoopback(t, n)
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		nodes[i] = startNode(t, urls[i], urls, lns[i], func(cfg *Config) {
			if mut != nil {
				mut(i, cfg)
			}
		})
	}
	return nodes
}

// pureRun builds a deterministic fake runFunc: the result is a pure
// function of the spec (so it is bit-identical wherever it executes)
// and every invocation bumps sims.
func pureRun(sims *atomic.Int64, delay time.Duration) runFunc {
	return func(ctx context.Context, spec JobSpec) (JobResult, error) {
		sims.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return JobResult{}, ctx.Err()
			}
		}
		return JobResult{
			Mix:        strings.Join(spec.Mix, "+"),
			Controller: spec.Controller,
			WS:         float64(spec.Seed) * 1.5,
			HS:         float64(spec.Seed) + 0.25,
			GM:         1,
			Speedups:   []float64{float64(spec.Seed)},
		}, nil
	}
}

// clusterStats fetches /v1/stats and requires the cluster block.
func clusterStats(t *testing.T, n *clusterNode) (Stats, ClusterStats) {
	t.Helper()
	st := getStats(t, n.ts)
	if st.Cluster == nil {
		t.Fatalf("node %s: stats missing cluster block", n.url)
	}
	return st, *st.Cluster
}

// TestClusterWarmSweepZeroRecompute is the tentpole acceptance test: a
// cold sweep submitted to node A computes every cell exactly once
// across the cluster; resubmitting the identical sweep to node C
// completes with zero additional simulations anywhere — admission
// prefetch pulls every remote-owned result from its owning shard — and
// each node streams every event from its own result cache.
func TestClusterWarmSweepZeroRecompute(t *testing.T) {
	const cells = 9
	sims := make([]atomic.Int64, 3)
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.Run = pureRun(&sims[i], 0)
		// Eager dispatch: every remote-owned cell must execute on its
		// owner so the warm pass finds every result already in place
		// (no async write-back races in the assertion below).
		cfg.RemotePeerSlots = 2 * cells
	})
	a, c := nodes[0], nodes[2]
	// Every node owns a third of the cells, so whichever peer A's own
	// cells were spilled to, C has B's left to fetch.
	var specs []JobSpec
	for _, n := range nodes {
		specs = append(specs, specsOwnedBy(t, a, n.url, cells/3)...)
	}

	total := func() int64 {
		var n int64
		for i := range sims {
			n += sims[i].Load()
		}
		return n
	}

	resp, view := postSweep(t, a.ts, cellsJSON("cold", specs))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cold sweep: HTTP %d", resp.StatusCode)
	}
	waitSweepDone(t, a.ts, view.ID, 30*time.Second)

	if got := total(); got != cells {
		t.Fatalf("cold sweep ran %d simulations across the cluster, want exactly %d", got, cells)
	}
	// A cell that ran on a peer streams what A's cache holds: its result
	// came back through storeResult like a local run's.
	if _, acl := clusterStats(t, a); acl.RemoteCells == 0 {
		t.Error("no cell of the cold sweep ran on a peer")
	}
	eventsReadCache(t, a.srv, a.ts, view.ID)

	// Same grid against a different node: every cell must dedupe at
	// admission via the distributed cache.
	resp2, view2 := postSweep(t, c.ts, cellsJSON("warm", specs))
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("warm sweep: HTTP %d", resp2.StatusCode)
	}
	warm := waitSweepDone(t, c.ts, view2.ID, 30*time.Second)
	if warm.Deduped != cells {
		t.Errorf("warm sweep deduped %d of %d cells", warm.Deduped, cells)
	}
	if got := total(); got != cells {
		t.Errorf("warm resubmission ran %d extra simulations, want 0", got-cells)
	}
	if _, ccl := clusterStats(t, c); ccl.RemoteCacheHits == 0 {
		t.Error("warm pass recorded no cross-shard cache hits; prefetch did not reach the owners")
	}
	eventsReadCache(t, c.srv, c.ts, view2.ID)
}

// specsOwnedBy hunts for count fake-job seeds whose keys land on the
// wanted node, using the ring every node shares.
func specsOwnedBy(t *testing.T, n *clusterNode, want string, count int) []JobSpec {
	t.Helper()
	var out []JobSpec
	for seed := uint64(1); seed < 4096 && len(out) < count; seed++ {
		spec := JobSpec{Cell: sweep.Cell{Mix: []string{"spec06.libquantum"}, Controller: "no", Scale: "tiny", Seed: seed}}
		p, err := n.srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		if n.srv.cl.c.Owner(p.key) == want {
			out = append(out, spec)
		}
	}
	if len(out) < count {
		t.Fatalf("only %d of %d seeds found owned by %s", len(out), count, want)
	}
	return out
}

func specOwnedBy(t *testing.T, n *clusterNode, want string) JobSpec {
	t.Helper()
	return specsOwnedBy(t, n, want, 1)[0]
}

// TestClusterProxySubmit checks interactive routing: a submission to a
// non-owning node is proxied to the owner (which computes and caches
// it): the receiver counts exactly one proxied request for the submit,
// and the job is afterwards visible through both nodes.
func TestClusterProxySubmit(t *testing.T) {
	sims := make([]atomic.Int64, 2)
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.Run = pureRun(&sims[i], 0)
	})
	a, b := nodes[0], nodes[1]

	spec := specOwnedBy(t, a, b.url)
	body, _ := json.Marshal(spec)
	_, before := clusterStats(t, a)
	resp, err := http.Post(a.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied submit: HTTP %d", resp.StatusCode)
	}
	if _, acl := clusterStats(t, a); acl.Proxied != before.Proxied+1 {
		t.Errorf("submit moved the receiver's proxied count %d -> %d, want +1", before.Proxied, acl.Proxied)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}

	// The job completes and is visible from both nodes (the receiver
	// proxies the lookup); only the owner computed it.
	if bodyA := waitDone(t, a.ts, view.ID, 10*time.Second); bodyA.Status != StatusDone {
		t.Fatalf("job via non-owner finished as %q", bodyA.Status)
	}
	if bodyB := waitDone(t, b.ts, view.ID, 10*time.Second); bodyB.Status != StatusDone {
		t.Fatalf("job via owner finished as %q", bodyB.Status)
	}
	if sims[0].Load() != 0 || sims[1].Load() != 1 {
		t.Errorf("simulations = [%d %d], want [0 1] (owner computes)", sims[0].Load(), sims[1].Load())
	}
}

// normalizeResult strips the one timing-dependent field (sim_ms is
// wall-clock) and returns canonical JSON for bit-identity comparison.
func normalizeResult(t *testing.T, raw []byte) string {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("unmarshal result %s: %v", raw, err)
	}
	res.SimMs = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// goldenKey identifies one golden spec.
type goldenKey struct {
	seed       uint64
	controller string
}

// TestClusterGoldenRoutingPaths pins bit-identical results across the
// three execution paths with real simulations: the same specs computed
// locally on a standalone server, proxied to their cluster owner, and
// spilled by a busy coordinator to a peer that does not own them must
// produce byte-identical metrics.
func TestClusterGoldenRoutingPaths(t *testing.T) {
	// The spill cluster boots first, because its ring picks the specs:
	// all three are owned by the coordinator, whose only worker is wedged
	// on an interactive job, so every cell of its sweep leaves for the
	// peer — off-owner — and comes home by result wait and write-back.
	release := make(chan struct{})
	defer close(release)
	var coord, peer *Server
	var peerSims atomic.Int64
	spilled := startCluster(t, 2, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Workers = 1
			cfg.Run = func(ctx context.Context, spec JobSpec) (JobResult, error) {
				if spec.Seed == 9999 { // the wedge job
					select {
					case <-release:
					case <-ctx.Done():
					}
					return JobResult{Mix: "wedge"}, nil
				}
				return coord.simulate(ctx, spec)
			}
		} else {
			cfg.Run = func(ctx context.Context, spec JobSpec) (JobResult, error) {
				peerSims.Add(1)
				return peer.simulate(ctx, spec)
			}
		}
	})
	coord, peer = spilled[0].srv, spilled[1].srv
	specs := specsOwnedBy(t, spilled[0], spilled[0].url, 2)
	for seed := uint64(1); len(specs) < 3; seed++ {
		spec := JobSpec{Cell: sweep.Cell{Mix: []string{"spec06.libquantum"}, Controller: "bandit", Scale: "tiny", Seed: seed}}
		if p, err := coord.resolve(spec); err != nil {
			t.Fatal(err)
		} else if coord.cl.c.Owner(p.key) == spilled[0].url {
			specs = append(specs, spec)
		}
	}

	// Golden: a standalone (non-clustered) server runs everything
	// locally with real simulations.
	golden := make(map[goldenKey]string)
	solo := mustNew(t, Config{Workers: 1, QueueDepth: 8})
	soloTS := httptest.NewServer(solo.Handler())
	for _, spec := range specs {
		body, _ := json.Marshal(spec)
		resp, view := postJob(t, soloTS, string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("golden submit: HTTP %d", resp.StatusCode)
		}
		done := waitDone(t, soloTS, view.ID, 30*time.Second)
		if done.Status != StatusDone {
			t.Fatalf("golden job seed %d finished as %q: %s", spec.Seed, done.Status, done.Error)
		}
		raw, _ := json.Marshal(done.Result)
		golden[goldenKey{spec.Seed, spec.Controller}] = normalizeResult(t, raw)
	}
	soloTS.Close()
	solo.Close()

	// Proxied: submit each spec to a 2-node cluster via whichever node
	// does NOT own it, forcing the proxy hop; the owner computes with
	// real simulations.
	proxied := startCluster(t, 2, nil)
	for _, spec := range specs {
		p, err := proxied[0].srv.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		receiver := proxied[0]
		if proxied[0].srv.cl.c.Owner(p.key) == proxied[0].url {
			receiver = proxied[1]
		}
		body, _ := json.Marshal(spec)
		resp, view := postJob(t, receiver.ts, string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("proxied submit seed %d: HTTP %d", spec.Seed, resp.StatusCode)
		}
		done := waitDone(t, receiver.ts, view.ID, 30*time.Second)
		if done.Status != StatusDone {
			t.Fatalf("proxied job seed %d finished as %q: %s", spec.Seed, done.Status, done.Error)
		}
		raw, _ := json.Marshal(done.Result)
		want := golden[goldenKey{spec.Seed, spec.Controller}]
		if got := normalizeResult(t, raw); got != want {
			t.Errorf("proxied result for seed %d differs from local:\n  local: %s\nproxied: %s",
				spec.Seed, want, got)
		}
	}

	// Spilled: wedge the coordinator's single worker with a
	// forwarded-marked (so never proxied) interactive job, then hand it
	// the golden cells. Nothing but the dispatch rule can move them.
	if code, _ := postForwarded(t, spilled[0], []byte(fakeSpec(9999))); code != http.StatusAccepted {
		t.Fatalf("wedge submit: HTTP %d", code)
	}
	resp, view := postSweep(t, spilled[0].ts, cellsJSON("spill-golden", specs))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("spill sweep: HTTP %d", resp.StatusCode)
	}
	done := waitSweepDone(t, spilled[0].ts, view.ID, 60*time.Second)
	if done.Failed != 0 {
		t.Fatalf("spill sweep finished with %d failed cells", done.Failed)
	}
	if n := peerSims.Load(); n != int64(len(specs)) {
		t.Fatalf("peer ran %d simulations, want all %d cells spilled to it", n, len(specs))
	}
	if _, ccl := clusterStats(t, spilled[0]); ccl.RemoteCells != uint64(len(specs)) {
		t.Errorf("coordinator remote_cells = %d, want %d", ccl.RemoteCells, len(specs))
	}

	// Every spilled cell's result must be byte-identical to the golden
	// local run of the same spec.
	events, _ := readSweepEvents(t, spilled[0].ts, view.ID, "")
	compared := 0
	for _, ev := range events {
		want, ok := golden[goldenKey{ev.Spec.Seed, ev.Spec.Controller}]
		if !ok {
			t.Errorf("event for unexpected cell seed %d/%s", ev.Spec.Seed, ev.Spec.Controller)
			continue
		}
		if got := normalizeResult(t, ev.Result); got != want {
			t.Errorf("spilled result for seed %d/%s differs from local:\n  local: %s\nspilled: %s",
				ev.Spec.Seed, ev.Spec.Controller, want, got)
		}
		compared++
	}
	if compared != len(specs) {
		t.Errorf("compared %d spilled results, want %d", compared, len(specs))
	}
}

// TestClusterOwnerDeathMidSweep kills an owning shard while a sweep is
// in flight: the sweep must still complete via re-routing (transient
// requeue, the failed RPC sidelining the owner, degraded-local compute)
// with every cell terminal exactly once — none lost, none
// double-counted.
func TestClusterOwnerDeathMidSweep(t *testing.T) {
	const cells = 12
	sims := make([]atomic.Int64, 3)
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.Run = pureRun(&sims[i], 30*time.Millisecond)
	})
	a, b := nodes[0], nodes[1]

	resp, view := postSweep(t, a.ts, sweepGridJSON("chaos", cells))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}

	// Let the sweep make some progress, then kill node B.
	deadline := time.Now().Add(10 * time.Second)
	for getSweepView(t, a.ts, view.ID).Done == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep made no progress before the kill")
		}
		time.Sleep(5 * time.Millisecond)
	}
	b.kill()

	done := waitSweepDone(t, a.ts, view.ID, 60*time.Second)
	if done.Done+done.Deduped != cells || done.Failed != 0 {
		t.Fatalf("after owner death: done=%d deduped=%d failed=%d, want %d total done / 0 failed",
			done.Done, done.Deduped, done.Failed, cells)
	}

	// Exactly one terminal event per cell index: nothing lost, nothing
	// double-counted.
	exactlyOnce(t, a, view.ID, cells)
}

// cellsJSON is a sweep body listing specs as explicit cells.
func cellsJSON(name string, specs []JobSpec) string {
	body, _ := json.Marshal(struct {
		Name  string    `json:"name"`
		Cells []JobSpec `json:"cells"`
	}{name, specs})
	return string(body)
}

// exactlyOnce requires one terminal event per cell of a finished sweep.
func exactlyOnce(t *testing.T, n *clusterNode, sweepID string, cells int) {
	t.Helper()
	events, _ := readSweepEvents(t, n.ts, sweepID, "")
	seen := make(map[int]int)
	for _, ev := range events {
		seen[ev.Cell]++
	}
	if len(seen) != cells {
		t.Errorf("events cover %d distinct cells, want %d", len(seen), cells)
	}
	for cell, k := range seen {
		if k != 1 {
			t.Errorf("cell %d has %d terminal events, want exactly 1", cell, k)
		}
	}
}

// TestClusterDispatchFillsEveryPeer pins the dispatch rule's balance: a
// sweep submitted to node A keeps all three nodes busy whoever owns its
// cells — spread by the ring, all owned by one peer, or all owned by the
// coordinator itself — so each simulates a third and the sweep takes a
// third of the serial time. Nothing but the coordinator's own dispatch
// (at admission, before each local run, after each remote completion)
// moves a cell.
func TestClusterDispatchFillsEveryPeer(t *testing.T) {
	const (
		cells = 48
		delay = 50 * time.Millisecond
		share = cells / 3
	)
	slow, _ := faultinject.Lookup("server/worker/slow")
	for _, row := range []struct {
		name  string
		owner int // index of the node owning every cell; -1 spreads them by hash
	}{{"hash-placed", -1}, {"all-owned-by-B", 1}, {"all-owned-by-A", 0}} {
		t.Run(row.name, func(t *testing.T) {
			stalls := slow.Fired()
			sims := make([]atomic.Int64, 3)
			nodes := startCluster(t, 3, func(i int, cfg *Config) {
				cfg.Workers = 1
				cfg.Run = pureRun(&sims[i], delay)
			})
			a := nodes[0]
			body := sweepGridJSON("fill", cells)
			if row.owner >= 0 {
				body = cellsJSON("fill", specsOwnedBy(t, a, nodes[row.owner].url, cells))
			}
			resp, view := postSweep(t, a.ts, body)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("sweep: HTTP %d", resp.StatusCode)
			}
			final := waitSweepDone(t, a.ts, view.ID, 60*time.Second)
			if final.Done != cells {
				t.Fatalf("sweep finished as %+v, want all %d cells done", final, cells)
			}
			got := []int64{sims[0].Load(), sims[1].Load(), sims[2].Load()}
			if got[0]+got[1]+got[2] != cells {
				t.Fatalf("simulations %v sum to %d, want exactly %d", got, got[0]+got[1]+got[2], cells)
			}
			if slow.Fired() != stalls {
				// The chaos suite stretches every fifth run by twice a cell:
				// balance and wall time are not this run's subject.
				for i, n := range got {
					if n == 0 {
						t.Errorf("node %d simulated nothing: %v", i, got)
					}
				}
				return
			}
			for i, n := range got {
				if n < share-3 || n > share+3 {
					t.Errorf("node %d ran %d simulations, want %d ± 3: %v", i, n, share, got)
				}
			}
			wall, ideal := final.FinishedAt.Sub(final.CreatedAt), share*delay
			if wall > ideal*13/10 {
				t.Errorf("sweep took %v, want ≤ 1.3 × the ideal %v", wall, ideal)
			}
			t.Logf("simulations %v, wall %v (ideal %v)", got, wall, ideal)
		})
	}
}

// TestClusterSpillPeerDeath kills a peer while it holds cells it does
// not own: every cell of the sweep is owned by coordinator A, so what C
// is running when it dies was spilled there. The lost cells come back
// as pending (errPeerUnavailable) and re-run on A or B; every cell is
// terminal exactly once and none fails.
func TestClusterSpillPeerDeath(t *testing.T) {
	const cells = 12
	sims := make([]atomic.Int64, 3)
	holding := make(chan struct{}, cells)
	nodes := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.Workers = 1
		cfg.Run = pureRun(&sims[i], 10*time.Millisecond)
		if i == 2 { // C takes cells and never finishes one
			cfg.Run = func(ctx context.Context, spec JobSpec) (JobResult, error) {
				holding <- struct{}{}
				<-ctx.Done()
				return JobResult{}, ctx.Err()
			}
		}
	})
	a, c := nodes[0], nodes[2]

	resp, view := postSweep(t, a.ts, cellsJSON("spill-death", specsOwnedBy(t, a, a.url, cells)))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep: HTTP %d", resp.StatusCode)
	}
	select {
	case <-holding:
	case <-time.After(10 * time.Second):
		t.Fatal("no cell was ever spilled to C")
	}
	c.kill()

	done := waitSweepDone(t, a.ts, view.ID, 60*time.Second)
	if done.Done+done.Deduped != cells || done.Failed != 0 {
		t.Fatalf("after the spill peer died: done=%d deduped=%d failed=%d, want %d total done / 0 failed",
			done.Done, done.Deduped, done.Failed, cells)
	}
	exactlyOnce(t, a, view.ID, cells)
	if got := sims[0].Load() + sims[1].Load(); got != cells {
		t.Errorf("survivors ran %d simulations, want exactly %d", got, cells)
	}
	if _, acl := clusterStats(t, a); acl.RemoteCells == 0 {
		t.Error("coordinator recorded no remote cells; B never took a spilled one")
	}
}

// TestRemovedEndpointsGone: the coordinator's dispatch is the only way
// a cell changes nodes, so the pull protocol's endpoints answer 404.
func TestRemovedEndpointsGone(t *testing.T) {
	n := startCluster(t, 1, nil)[0]
	for _, path := range []string{"/internal/steal", "/internal/steal/done"} {
		resp, err := http.Post(n.ts.URL+path, "application/json", strings.NewReader(`{"max":1,"thief":"http://127.0.0.1:1"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestCachePutRefusesNonKeys: a write-back's key becomes a file name
// under CacheDir, and ServeMux hands the handler the path segment
// unescaped. A key that is not a job key answers 400 and writes
// nothing anywhere; a job key is stored under CacheDir as before.
func TestCachePutRefusesNonKeys(t *testing.T) {
	root := t.TempDir()
	cacheDir := filepath.Join(root, "a", "b", "cache")
	n := startCluster(t, 1, func(_ int, cfg *Config) { cfg.CacheDir = cacheDir })[0]
	put := func(key string) int {
		req, err := http.NewRequest(http.MethodPut, n.ts.URL+"/internal/cache/"+key, strings.NewReader(`{"mix":"fake","ws":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good := strings.Repeat("0123456789abcdef", sweep.KeyLen/16)
	for _, key := range []string{"..%2F..%2Fescaped", "..%2Fcache%2F" + good, strings.ToUpper(good), good[1:], good + "0"} {
		if code := put(key); code != http.StatusBadRequest {
			t.Errorf("PUT /internal/cache/%s: HTTP %d, want 400", key, code)
		}
	}
	if code := put(good); code != http.StatusNoContent {
		t.Fatalf("PUT a job key: HTTP %d, want 204", code)
	}
	n.kill() // flushes the write-behind mirror

	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	want := []string{filepath.Join(cacheDir, "records.log")}
	if !reflect.DeepEqual(files, want) {
		t.Errorf("files under %s = %v, want only %v", root, files, want)
	}
	if recs := latestLines(t, cacheDir, "key"); len(recs) != 1 || recs[good] == nil {
		t.Errorf("the log holds %d records, want just the job key's", len(recs))
	}
}

// TestClusterPartitionDegrade cuts every peer RPC via the injected
// partition fault: each RPC fails and sidelines the peer, each retry
// after the sideline fails again, and submissions against the reachable
// node must degrade to local compute throughout — slower, but never a
// client-visible error.
func TestClusterPartitionDegrade(t *testing.T) {
	enableFault(t, "cluster/rpc/partition", "always")
	sims := make([]atomic.Int64, 2)
	nodes := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.Run = pureRun(&sims[i], 0)
	})
	a, b := nodes[0], nodes[1]

	// A peer-owned job, submitted twice: a proxy attempt fails in
	// transport and degrades to local compute, or finds the peer still
	// sidelined by the last failure and degrades without trying. The
	// client sees 202s throughout, never an error.
	remoteSpec := specOwnedBy(t, a, b.url)
	body, _ := json.Marshal(remoteSpec)
	for i := 0; i < 2; i++ {
		resp, view := postJob(t, a.ts, string(body))
		// First submit queues locally (202); the resubmission is a local
		// cache hit (200) — still routed through the proxy path first.
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d under partition: HTTP %d", i, resp.StatusCode)
		}
		if done := waitDone(t, a.ts, view.ID, 10*time.Second); done.Status != StatusDone {
			t.Fatalf("job under partition finished as %q: %s", done.Status, done.Error)
		}
	}

	// A whole sweep completes on the one reachable node.
	resp, view := postSweep(t, a.ts, sweepGridJSON("partitioned", 6))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sweep under partition: HTTP %d", resp.StatusCode)
	}
	if done := waitSweepDone(t, a.ts, view.ID, 30*time.Second); done.Failed != 0 {
		t.Fatalf("sweep under partition: %d failed cells", done.Failed)
	}

	if sims[1].Load() != 0 {
		t.Errorf("partitioned peer ran %d simulations; nothing should reach it", sims[1].Load())
	}
	// No end-state check on cluster.unhealthy: a sideline lasts one
	// retry interval (TestUnhealthyPeerIsSkipped pins the stat while it
	// holds).
	if _, acl := clusterStats(t, a); acl.DegradedLocal == 0 {
		t.Error("no degraded-local compute recorded under full partition")
	}
}
