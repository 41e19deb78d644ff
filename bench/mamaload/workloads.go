package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"micromama/internal/client"
	"micromama/internal/experiment"
	"micromama/internal/metrics"
	"micromama/internal/server"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

// workloadNames is the fixed list; BENCHMARK.json names the same six.
var workloadNames = []string{"sim_direct", "jobs_cold", "jobs_warm", "sweep_cold", "sweep_warm", "cluster3_cold"}

// workloadWhy is printed with the results: why each workload is in the
// benchmark.
var workloadWhy = map[string]string{
	"sim_direct":    "experiment.Runner called directly by one goroutine: the simulator stack does all the work and the service none",
	"jobs_cold":     "never-seen specs, POST /v1/jobs then WaitJob as mamactl does: the whole interactive path, where the wait protocol sets latency",
	"jobs_warm":     "cached specs, POST (answered 200) then GET result: decode, hashing, the registry lock, cache reads, encode and net/http, simulator idle",
	"sweep_cold":    "two clients submit four-cell never-seen sweeps back to back and stream them: the sweep execution path under fair-share contention",
	"sweep_warm":    "a 512-cell grid resubmitted under fresh names to a restarted warm server: expand, hash, admission dedupe, event log, persistence, streaming; zero simulations",
	"cluster3_cold": "sweep_cold's traffic against a three-node gossip cluster, clients on nodes A and C: ring routing, remote cells, stealing, write-back",
}

// env is what every workload of a child process shares.
type env struct {
	name    string
	ps      pairSet
	target  uint64 // instruction target of a pair simulation
	smoke   bool
	clients int
	dir     string      // scratch directory inside the checkout
	mw      *middleware // nil unless the run has a traced pass
	scale   experiment.Scale

	mu   sync.Mutex
	refs [numPairs]string // per-pair result digest; set once, then compared
}

// record is correctness checks 1 and 3 for one result of a pair: it is
// complete, and it is the result every earlier run of the pair gave.
func (e *env) record(pair int, r *jobResult) error {
	if err := r.check(len(e.ps.mixOf(pair))); err != nil {
		return fmt.Errorf("pair %s: %w", e.ps.pairName(pair), err)
	}
	d := r.digest()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.refs[pair] == "" {
		e.refs[pair] = d
	} else if e.refs[pair] != d {
		return fmt.Errorf("pair %s: digest %s differs from this pair's earlier digest %s", e.ps.pairName(pair), d, e.refs[pair])
	}
	return nil
}

// pairDigests returns the per-pair digests keyed by pair name.
func (e *env) pairDigests() map[string]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]string, numPairs)
	for p, d := range e.refs {
		out[e.ps.pairName(p)] = d
	}
	return out
}

func (e *env) mix(m int) workload.Mix {
	specs := make([]workload.Spec, len(mixes[m]))
	for i, name := range mixes[m] {
		// newPairSet has checked every name against the catalog.
		specs[i], _ = workload.ByName(name)
	}
	return workload.Mix{Specs: specs}
}

// impl is one workload. setup is everything before the measured phase;
// work builds the closed loop's op (with clients of its own, traced or
// not); verify runs the checks that need the whole phase (simulation
// counts); layer reports the per-layer numbers only this workload can
// measure, from its traced phase.
// coldRSSAtOp is where the workloads that simulate read peak memory: the
// last op every run is sure to reach.
const coldRSSAtOp = minSamples - 1

type impl interface {
	setup() error
	work(tr *tracer) work
	verify(attempted int) error
	layer(ph phase, out map[string]float64)
	close()
}

func newImpl(e *env) (impl, error) {
	switch e.name {
	case "sim_direct":
		return &simDirect{e: e}, nil
	case "jobs_cold":
		return &jobsCold{e: e}, nil
	case "jobs_warm":
		return &jobsWarm{e: e}, nil
	case "sweep_cold":
		return &sweepCold{e: e}, nil
	case "sweep_warm":
		return &sweepWarm{e: e}, nil
	case "cluster3_cold":
		return &sweepCold{e: e, clustered: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", e.name, workloadNames)
}

// ---------------------------------------------------------------- sim_direct

type simDirect struct {
	e      *env
	runner *experiment.Runner
	mixes  [numMixes]workload.Mix
	seq    []int
}

func (w *simDirect) setup() error {
	w.runner = experiment.NewRunner(w.e.scale)
	for m := range w.mixes {
		w.mixes[m] = w.e.mix(m)
	}
	w.seq = shuffled(w.e.ps.seed, 1, numPairs, 64)
	for pair := 0; pair < numPairs; pair++ {
		if err := w.run(context.Background(), pair); err != nil {
			return err
		}
	}
	return nil
}

func (w *simDirect) run(ctx context.Context, pair int) error {
	mix, key := w.mixes[pair/len(controllers)], w.e.ps.ctrlOf(pair)
	var res experiment.MixResult
	var err error
	if _, traced := refFrom(ctx); traced {
		res, err = w.runTraced(ctx, mix, key)
	} else {
		res, err = w.runner.RunMixContext(ctx, mix, sim.DefaultConfig(len(mix.Specs)), key, experiment.Options{})
	}
	if err != nil {
		return err
	}
	r := resultOf(res)
	return w.e.record(pair, &r)
}

// runTraced is RunMixContext taken apart into the public calls it is
// made of, with a span around each; record then checks that the parts
// add up to the same result.
func (w *simDirect) runTraced(ctx context.Context, mix workload.Mix, key string) (experiment.MixResult, error) {
	cfg := sim.DefaultConfig(len(mix.Specs))
	_, sp := child(ctx, "trace.open")
	traces := mix.Traces()
	sp.end()
	_, sp = child(ctx, "core.make")
	ctrl, err := experiment.MakeController(key, experiment.Options{Step: w.e.scale.Step})
	sp.end()
	if err != nil {
		return experiment.MixResult{}, err
	}
	_, sp = child(ctx, "sim.new")
	sys, err := sim.New(cfg, traces, ctrl)
	sp.end()
	if err != nil {
		return experiment.MixResult{}, err
	}
	_, sp = child(ctx, "sim.run")
	res, err := sys.RunContext(ctx, w.e.scale.Target, w.e.scale.MaxCycles())
	sp.end()
	if err != nil {
		return experiment.MixResult{}, err
	}
	_, sp = child(ctx, "experiment.speedups")
	defer sp.end()
	speedups := make([]float64, len(mix.Specs))
	for i, cr := range res.Cores {
		base, err := w.runner.BaselineIPCContext(ctx, mix.Specs[i], cfg)
		if err != nil {
			return experiment.MixResult{}, err
		}
		if base > 0 {
			speedups[i] = cr.IPC / base
		}
	}
	return experiment.MixResult{
		Mix: mix, Controller: key, Result: res, Speedups: speedups,
		WS: metrics.WS(speedups), HS: metrics.HS(speedups),
		GM: metrics.GM(speedups), Unfairness: metrics.Unfairness(speedups),
	}, nil
}

func (w *simDirect) work(*tracer) work {
	return work{clients: 1, opsPerEpoch: numPairs, rssAtOp: coldRSSAtOp, op: func(ctx context.Context, _, i int) error {
		return w.run(ctx, w.seq[i%len(w.seq)])
	}}
}

func (w *simDirect) verify(int) error                { return nil }
func (w *simDirect) layer(phase, map[string]float64) {}
func (w *simDirect) close()                          {}

// ------------------------------------------------------------------ helpers

// decodeView decodes a job view and insists on the HTTP status the
// workload expects at that point.
func decodeView(resp *client.Response, wantStatus int) (jobView, error) {
	var v jobView
	if resp.Status != wantStatus {
		return v, fmt.Errorf("HTTP %d, want %d: %s", resp.Status, wantStatus, bytes.TrimSpace(resp.Body))
	}
	if err := json.Unmarshal(resp.Body, &v); err != nil {
		return v, fmt.Errorf("decode job view: %w", err)
	}
	return v, nil
}

// singleNode starts the one-node server of the jobs_* and sweep_*
// workloads: two workers, as many as the closed loop has clients.
func (e *env) singleNode(cacheDir string) (*node, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	return startNode(server.Config{Workers: 2, CacheDir: cacheDir}, ln, e.mw)
}

// pairCells are the sixteen pairs as explicit sweep cells under one
// cache namespace.
func (e *env) pairCells(cacheSeed uint64) []sweep.Cell {
	cells := make([]sweep.Cell, numPairs)
	for p := range cells {
		s := e.ps.spec(p, cacheSeed, e.target)
		cells[p] = sweep.Cell{Mix: s.Mix, Controller: s.Controller, Scale: s.Scale, Seed: s.Seed, Target: s.Target}
	}
	return cells
}

// sweepRun is one sweep driven to completion the way mamactl drives it:
// submit, then follow the result stream to its end marker.
type sweepRun struct {
	view       sweep.View
	submit     time.Duration // SubmitSweep, request to decoded view
	firstEvent time.Duration // submit sent to first event seen
	stream     time.Duration // StreamSweepResults
	events     int
}

func runSweep(ctx context.Context, cl *client.Client, spec sweep.Spec, onEvent func(sweep.Event) error) (sweepRun, error) {
	var r sweepRun
	begin := time.Now()
	sctx, sp := child(ctx, "client.submit_sweep")
	v, err := cl.SubmitSweep(sctx, spec)
	sp.end()
	r.submit = time.Since(begin)
	if err != nil {
		return r, err
	}
	sctx, sp = child(ctx, "client.stream")
	streamBegin := time.Now()
	r.view, err = cl.StreamSweepResults(sctx, v.ID, func(ev sweep.Event) error {
		if r.events == 0 {
			r.firstEvent = time.Since(begin)
		}
		r.events++
		return onEvent(ev)
	})
	sp.end()
	r.stream = time.Since(streamBegin)
	if err != nil {
		return r, err
	}
	if r.view.Status != "done" || r.view.Failed != 0 || r.events != r.view.Cells {
		return r, fmt.Errorf("sweep %s ended %q with %d failed cells and %d events for %d cells",
			v.ID, r.view.Status, r.view.Failed, r.events, r.view.Cells)
	}
	return r, nil
}

// pairEvent is what a cold sweep does with each event: the cell must
// have been simulated for this sweep, and its result must be the
// pair's.
func (e *env) pairEvent(mixIndex int, wantStatus sweep.CellStatus, simMs *int64) func(sweep.Event) error {
	return func(ev sweep.Event) error {
		if ev.Status != wantStatus {
			return fmt.Errorf("cell %d is %q, want %q: %s", ev.Cell, ev.Status, wantStatus, ev.Error)
		}
		var res jobResult
		if err := json.Unmarshal(ev.Result, &res); err != nil {
			return fmt.Errorf("cell %d: decode result: %w", ev.Cell, err)
		}
		for c, key := range controllers {
			if key == ev.Spec.Controller {
				if simMs != nil {
					*simMs += res.SimMs
				}
				return e.record(mixIndex*len(controllers)+c, &res)
			}
		}
		return fmt.Errorf("cell %d has controller %q, which the bench never sent", ev.Cell, ev.Spec.Controller)
	}
}

// warmPairs runs every pair once through cl as one sixteen-cell sweep
// under the set-up namespace: traces materialise, the server's runner
// learns the baselines, and the per-pair reference digests are set.
func (e *env) warmPairs(ctx context.Context, cl *client.Client) error {
	spec := sweep.Spec{Name: e.name + "-setup", Cells: e.pairCells(e.ps.cacheSeed(0))}
	_, err := runSweep(ctx, cl, spec, func(ev sweep.Event) error {
		return e.pairEvent(ev.Cell/len(controllers), sweep.CellDone, nil)(ev)
	})
	return err
}

// simulations sums the nodes' simulation counters.
func simulations(nodes []*node) uint64 {
	var n uint64
	for _, nd := range nodes {
		n += nd.srv.Stats().Simulations
	}
	return n
}

// ----------------------------------------------------------------- jobs_cold

type jobsCold struct {
	e        *env
	node     *node
	seq      []int
	simsBase uint64

	mu      sync.Mutex
	queueMs []float64
	runMs   []float64
	lagMs   []float64
	simMs   int64
}

func (w *jobsCold) setup() error {
	var err error
	if w.node, err = w.e.singleNode(""); err != nil {
		return err
	}
	w.seq = shuffled(w.e.ps.seed, 2, numPairs, 64)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.e.warmPairs(ctx, newClients(w.node.url, 1, nil)[0]); err != nil {
		return err
	}
	w.simsBase = w.node.srv.Stats().Simulations
	return nil
}

func (w *jobsCold) work(tr *tracer) work {
	cls := newClients(w.node.url, w.e.clients, tr)
	return work{clients: w.e.clients, opsPerEpoch: numPairs, rssAtOp: coldRSSAtOp, op: func(ctx context.Context, c, i int) error {
		pair := w.seq[i%len(w.seq)]
		spec := w.e.ps.spec(pair, w.e.ps.cacheSeed(1+i/numPairs), w.e.target)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		cctx, sp := child(ctx, "client.post")
		resp, err := cls[c].Post(cctx, "/v1/jobs", body)
		sp.end()
		if err != nil {
			return err
		}
		// 202: a never-seen spec is queued, not answered from the cache.
		v, err := decodeView(resp, http.StatusAccepted)
		if err != nil {
			return err
		}
		cctx, sp = child(ctx, "client.wait")
		resp, err = cls[c].WaitJob(cctx, v.ID, 0)
		sp.end()
		if err != nil {
			return err
		}
		if v, err = decodeView(resp, http.StatusOK); err != nil {
			return err
		}
		seen := time.Now()
		if _, traced := refFrom(ctx); traced && v.StartedAt != nil && v.FinishedAt != nil {
			spanUnder(ctx, "server.queue", v.EnqueuedAt, *v.StartedAt)
			spanUnder(ctx, "server.run", *v.StartedAt, *v.FinishedAt)
			spanUnder(ctx, "client.notify_lag", *v.FinishedAt, seen)
			w.mu.Lock()
			w.queueMs = append(w.queueMs, ms(v.StartedAt.Sub(v.EnqueuedAt)))
			w.runMs = append(w.runMs, ms(v.FinishedAt.Sub(*v.StartedAt)))
			w.lagMs = append(w.lagMs, ms(seen.Sub(*v.FinishedAt)))
			if v.Result != nil {
				w.simMs += v.Result.SimMs
			}
			w.mu.Unlock()
		}
		return w.e.record(pair, v.Result)
	}}
}

// verify: every op was a never-seen key, so every op is one simulation.
func (w *jobsCold) verify(attempted int) error {
	if got := w.node.srv.Stats().Simulations - w.simsBase; got != uint64(attempted) {
		return fmt.Errorf("%d ops caused %d simulations, want one each", attempted, got)
	}
	return nil
}

func (w *jobsCold) layer(ph phase, out map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out["server.queue_wait_ms_p50"] = median(w.queueMs)
	out["server.run_ms_p50"] = median(w.runMs)
	var run float64
	for _, r := range w.runMs {
		run += r
	}
	if run > 0 {
		out["server.sim_share"] = float64(w.simMs) / run
	}
	out["client.notify_lag_ms_p50"] = median(w.lagMs)
	if p90, _, err := percentile(w.lagMs, 0.90, 0); err == nil {
		out["client.notify_lag_ms_p90"] = p90
	}
	if done := ph.attempted - ph.failed; done > 0 {
		polls := w.e.mw.snapshot()["GET_v1/jobs/ID/result"].Count
		out["client.polls_per_job"] = float64(polls) / float64(done)
	}
}

func (w *jobsCold) close() {
	if w.node != nil {
		w.node.stop()
	}
}

// ----------------------------------------------------------------- jobs_warm

// warmSeeds is how many cache namespaces jobs_warm fills per pair.
const warmSeeds = 2

type jobsWarm struct {
	e        *env
	node     *node
	seq      []int
	bodies   [warmSeeds][numPairs][]byte
	simsBase uint64
}

func (w *jobsWarm) setup() error {
	var err error
	if w.node, err = w.e.singleNode(""); err != nil {
		return err
	}
	w.seq = shuffled(w.e.ps.seed, 3, numPairs*warmSeeds, 128)
	var cells []sweep.Cell
	for s := 0; s < warmSeeds; s++ {
		cells = append(cells, w.e.pairCells(w.e.ps.cacheSeed(s))...)
		for p := 0; p < numPairs; p++ {
			spec := w.e.ps.spec(p, w.e.ps.cacheSeed(s), w.e.target)
			if w.bodies[s][p], err = json.Marshal(spec); err != nil {
				return err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fill := sweep.Spec{Name: "jobs_warm-setup", Cells: cells}
	_, err = runSweep(ctx, newClients(w.node.url, 1, nil)[0], fill, func(ev sweep.Event) error {
		return w.e.pairEvent((ev.Cell%numPairs)/len(controllers), sweep.CellDone, nil)(ev)
	})
	w.simsBase = w.node.srv.Stats().Simulations
	return err
}

func (w *jobsWarm) work(tr *tracer) work {
	cls := newClients(w.node.url, w.e.clients, tr)
	return work{clients: w.e.clients, opsPerEpoch: 64 * numPairs * warmSeeds, rssAtOp: 40_000, op: func(ctx context.Context, c, i int) error {
		k := w.seq[i%len(w.seq)]
		pair := k % numPairs
		cctx, sp := child(ctx, "client.post")
		resp, err := cls[c].Post(cctx, "/v1/jobs", w.bodies[k/numPairs][pair])
		sp.end()
		if err != nil {
			return err
		}
		v, err := decodeView(resp, http.StatusOK)
		if err != nil {
			return err
		}
		// 200, not 202: answered from the cache or the registry of
		// finished jobs, with nothing queued.
		if v.Status != "done" {
			return fmt.Errorf("job %s answered 200 with status %q", v.ID, v.Status)
		}
		cctx, sp = child(ctx, "client.get_result")
		resp, err = cls[c].Get(cctx, "/v1/jobs/"+v.ID+"/result")
		sp.end()
		if err != nil {
			return err
		}
		if v, err = decodeView(resp, http.StatusOK); err != nil {
			return err
		}
		return w.e.record(pair, v.Result)
	}}
}

// verify is check 4: a warm workload simulates nothing.
func (w *jobsWarm) verify(int) error {
	if got := w.node.srv.Stats().Simulations - w.simsBase; got != 0 {
		return fmt.Errorf("warm jobs caused %d simulations, want 0", got)
	}
	return nil
}

func (w *jobsWarm) layer(phase, map[string]float64) {}

func (w *jobsWarm) close() {
	if w.node != nil {
		w.node.stop()
	}
}

// ------------------------------------------------- sweep_cold, cluster3_cold

// sweepCold is both cold sweep workloads: the same traffic against one
// node with a cache directory, or against a three-node cluster with the
// first client on node A and the second on node C.
type sweepCold struct {
	e         *env
	clustered bool
	nodes     []*node
	workers   int
	seq       []int
	simsBase  uint64
	converge  time.Duration

	mu         sync.Mutex
	admitUs    []float64 // per cell
	firstMs    []float64
	simMs      int64
	cacheDir   string
	layerStats []server.Stats // per node, when the traced phase began
}

func (w *sweepCold) setup() error {
	if w.clustered {
		var err error
		if w.nodes, w.converge, err = startCluster(w.e.mw); err != nil {
			return err
		}
		w.workers = len(w.nodes)
	} else {
		w.cacheDir = filepath.Join(w.e.dir, "cache")
		n, err := w.e.singleNode(w.cacheDir)
		if err != nil {
			return err
		}
		w.nodes, w.workers = []*node{n}, 2
	}
	w.seq = shuffled(w.e.ps.seed, 4, numMixes, 256)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := w.e.warmPairs(ctx, newClients(w.nodes[0].url, 1, nil)[0]); err != nil {
		return err
	}
	w.simsBase = simulations(w.nodes)
	return nil
}

// clientNode places client c: on the cluster, the first client talks to
// node A and the second to node C.
func (w *sweepCold) clientNode(c int) *node {
	if c%2 == 1 {
		return w.nodes[len(w.nodes)-1]
	}
	return w.nodes[0]
}

func (w *sweepCold) work(tr *tracer) work {
	cls := make([]*client.Client, w.e.clients)
	for c := range cls {
		cls[c] = newClients(w.clientNode(c).url, 1, tr)[0]
	}
	if tr != nil {
		w.layerStats = nil
		for _, n := range w.nodes {
			w.layerStats = append(w.layerStats, n.srv.Stats())
		}
	}
	// One epoch is two passes over the mixes: thirty-two simulations.
	return work{clients: w.e.clients, opsPerEpoch: 2 * numMixes, rssAtOp: coldRSSAtOp, op: func(ctx context.Context, c, i int) error {
		m := w.seq[i%len(w.seq)]
		spec := sweep.Spec{
			Name: fmt.Sprintf("%s-%d", w.e.name, i),
			Grid: &sweep.Grid{
				Mixes: [][]string{mixes[m]}, Controllers: controllers,
				Scales: []string{pairScale}, Seeds: []uint64{w.e.ps.cacheSeed(1 + i/numMixes)},
				Target: w.e.target,
			},
		}
		var simMs int64
		r, err := runSweep(ctx, cls[c], spec, w.e.pairEvent(m, sweep.CellDone, &simMs))
		if err != nil {
			return err
		}
		if _, traced := refFrom(ctx); traced {
			w.mu.Lock()
			w.admitUs = append(w.admitUs, us(r.submit)/float64(r.view.Cells))
			w.firstMs = append(w.firstMs, ms(r.firstEvent))
			w.simMs += simMs
			w.mu.Unlock()
		}
		return nil
	}}
}

// verify is the exactly-once check (5 on the cluster): every cell of
// every sweep was new, so the nodes together ran one simulation per cell.
func (w *sweepCold) verify(attempted int) error {
	want := uint64(attempted * len(controllers))
	if got := simulations(w.nodes) - w.simsBase; got != want {
		return fmt.Errorf("%d sweeps of %d cells caused %d simulations over %d node(s), want %d",
			attempted, len(controllers), got, len(w.nodes), want)
	}
	return nil
}

func (w *sweepCold) layer(ph phase, out map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	done := float64(ph.attempted - ph.failed)
	if done == 0 {
		return
	}
	out["sweep.admit_cold_us_per_cell"] = median(w.admitUs)
	out["sweep.first_event_ms_p50"] = median(w.firstMs)
	out["sweep.worker_util"] = float64(w.simMs) / (float64(w.workers) * ms(ph.wall))
	if !w.clustered {
		out["sweep.persist_mb"] = dirMB(filepath.Join(w.cacheDir, "sweeps"))
		return
	}
	out["cluster.converge_ms"] = ms(w.converge)
	var sims []float64
	var total float64
	for i, n := range w.nodes {
		now, was := n.srv.Stats(), w.layerStats[i]
		out["cluster.remote_cells"] += float64(now.Cluster.RemoteCells-was.Cluster.RemoteCells) / done
		out["cluster.stolen_cells"] += float64(now.Cluster.StolenFromPeers-was.Cluster.StolenFromPeers) / done
		out["cluster.writebacks"] += float64(now.Cluster.Writebacks-was.Cluster.Writebacks) / done
		out["cluster.remote_cache_hits"] += float64(now.Cluster.RemoteCacheHits-was.Cluster.RemoteCacheHits) / done
		out["cluster.proxied"] += float64(now.Cluster.Proxied-was.Cluster.Proxied) / done
		s := float64(now.Simulations - was.Simulations)
		sims = append(sims, s)
		total += s
	}
	if total > 0 {
		worst := 0.0
		for _, s := range sims {
			worst = max(worst, s)
		}
		out["cluster.node_sim_imbalance"] = worst / (total / float64(len(sims)))
	}
	var rpcs int
	var rpcTime time.Duration
	for route, rs := range w.e.mw.snapshot() {
		if len(route) > 5 && route[:5] == "peer." {
			rpcs += rs.Count
			rpcTime += rs.Total
		}
	}
	out["cluster.internal_rpcs"] = float64(rpcs) / done
	if rpcs > 0 {
		out["cluster.internal_rpc_ms"] = ms(rpcTime) / float64(rpcs)
	}
}

func (w *sweepCold) close() {
	for _, n := range w.nodes {
		n.stop()
	}
}

// dirMB is the size of the regular files under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// ---------------------------------------------------------------- sweep_warm

// The warm grid: four single-trace mixes × four controllers × 32 seeds.
const warmGridSeeds = 32

// warmGrid is that grid over the given cache namespaces: the first mix's
// four traces, one of each class, each alone on one core.
func warmGrid(seeds []uint64) sweep.Grid {
	var single [][]string
	for _, name := range mixes[0] {
		single = append(single, []string{name})
	}
	return sweep.Grid{Mixes: single, Controllers: controllers, Scales: []string{pairScale}, Seeds: seeds, Target: cheapTarget}
}

type sweepWarm struct {
	e        *env
	node     *node
	cacheDir string
	grid     sweep.Grid
	want     map[string][]byte // cell key -> result bytes server A produced
	simsBase uint64
	flush    time.Duration // server A's Shutdown
	start    time.Duration // server B's New over the filled directory
	loaded   uint64

	mu       sync.Mutex
	admitUs  []float64
	streamUs []float64
	deduped  int
	cells    int
}

func (w *sweepWarm) setup() error {
	w.cacheDir = filepath.Join(w.e.dir, "cache")
	seeds := make([]uint64, warmGridSeeds)
	if w.e.smoke {
		seeds = seeds[:4]
	}
	for i := range seeds {
		seeds[i] = w.e.ps.cacheSeed(i)
	}
	w.grid = warmGrid(seeds)

	a, err := w.e.singleNode(w.cacheDir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w.want = map[string][]byte{}
	grid := w.grid
	_, err = runSweep(ctx, newClients(a.url, 1, nil)[0], sweep.Spec{Name: "sweep_warm-setup", Grid: &grid}, func(ev sweep.Event) error {
		var res jobResult
		if err := json.Unmarshal(ev.Result, &res); err != nil {
			return fmt.Errorf("cell %d: decode result: %w", ev.Cell, err)
		}
		if err := res.check(len(ev.Spec.Mix)); err != nil {
			return fmt.Errorf("cell %d: %w", ev.Cell, err)
		}
		w.want[ev.Key] = append([]byte(nil), ev.Result...)
		return nil
	})
	if err != nil {
		a.stop()
		return err
	}
	t := time.Now()
	if err := a.drain(ctx); err != nil {
		return fmt.Errorf("shutdown of the filling server: %w", err)
	}
	w.flush = time.Since(t)
	t = time.Now()
	if w.node, err = w.e.singleNode(w.cacheDir); err != nil {
		return err
	}
	w.start = time.Since(t)
	st := w.node.srv.Stats()
	w.simsBase, w.loaded = st.Simulations, st.CacheLoaded
	if int(w.loaded) != len(w.want) {
		return fmt.Errorf("restarted server loaded %d cache entries, want %d", w.loaded, len(w.want))
	}
	return nil
}

func (w *sweepWarm) work(tr *tracer) work {
	cls := newClients(w.node.url, w.e.clients, tr)
	return work{clients: w.e.clients, opsPerEpoch: 16, rssAtOp: 1000, op: func(ctx context.Context, c, i int) error {
		grid := w.grid
		spec := sweep.Spec{Name: fmt.Sprintf("sweep_warm-%d", i), Grid: &grid}
		r, err := runSweep(ctx, cls[c], spec, func(ev sweep.Event) error {
			// Check 2 for a warm cell: byte for byte what the filling
			// server produced, which set-up has already checked.
			if ev.Status != sweep.CellDeduped || !bytes.Equal(ev.Result, w.want[ev.Key]) {
				return fmt.Errorf("cell %d is %q with a result that differs from the filled one", ev.Cell, ev.Status)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if r.view.Deduped != r.view.Cells {
			return fmt.Errorf("sweep %s deduped %d of %d cells", r.view.ID, r.view.Deduped, r.view.Cells)
		}
		if _, traced := refFrom(ctx); traced {
			w.mu.Lock()
			w.admitUs = append(w.admitUs, us(r.submit)/float64(r.view.Cells))
			w.streamUs = append(w.streamUs, us(r.stream)/float64(r.events))
			w.deduped += r.view.Deduped
			w.cells += r.view.Cells
			w.mu.Unlock()
		}
		return nil
	}}
}

func (w *sweepWarm) verify(int) error {
	if got := w.node.srv.Stats().Simulations - w.simsBase; got != 0 {
		return fmt.Errorf("warm sweeps caused %d simulations, want 0", got)
	}
	return nil
}

func (w *sweepWarm) layer(_ phase, out map[string]float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	out["sweep.admit_warm_us_per_cell"] = median(w.admitUs)
	out["sweep.stream_us_per_event"] = median(w.streamUs)
	if w.cells > 0 {
		out["sweep.deduped_frac"] = float64(w.deduped) / float64(w.cells)
	}
	out["sweep.persist_mb"] = dirMB(filepath.Join(w.cacheDir, "sweeps"))
	out["server.start_ms"] = ms(w.start)
	out["server.shutdown_flush_ms"] = ms(w.flush)
	if w.loaded > 0 {
		out["server.cache_load_us_per_entry"] = us(w.start) / float64(w.loaded)
	}
}

func (w *sweepWarm) close() {
	if w.node != nil {
		w.node.stop()
	}
}
