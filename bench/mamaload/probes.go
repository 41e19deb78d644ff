package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/sweep"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

// The probes time calls into each layer's public functions from outside,
// one layer at a time, in a process of their own with nothing else
// running. They do not depend on the workload: every traced run reports
// them, so a layer's number can be read beside any workload's end-to-end
// numbers.

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// timeEach runs f n times back to back and returns the mean duration of
// one call; for calls too short to time singly.
func timeEach(n int, f func(i int)) time.Duration {
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t) / time.Duration(n)
}

func runProbes(ctx context.Context, e *env, out map[string]float64) error {
	for _, probe := range []func(context.Context, *env, map[string]float64) error{
		probeTrace, probeSim, probeExperiment, probeServer, probeSweepCluster,
	} {
		if err := probe(ctx, e, out); err != nil {
			return err
		}
	}
	st := trace.DefaultPool().Stats()
	out["trace.pool_mb"] = float64(st.UsedBytes) / (1 << 20)
	out["trace.pool_fallbacks"] = float64(st.Fallbacks)
	return nil
}

// probeTraceName is a catalog trace no workload uses, so its first read
// in the process is the one that materialises it.
const probeTraceName = "ligra.KCore"

func probeTrace(_ context.Context, e *env, out map[string]float64) error {
	spec, err := workload.ByName(probeTraceName)
	if err != nil {
		return err
	}
	n := 2_000_000
	if e.smoke {
		n = 200_000
	}
	// Every record is touched, so a replay is timed as a consumer of the
	// trace pays for it and not as the cost of slicing a slab.
	var sink uint64
	read := func() time.Duration {
		r := spec.Shared()
		t := time.Now()
		left := n
		if br, ok := r.(interface{ NextBlock(int) []trace.Instr }); ok {
			for left > 0 {
				blk := br.NextBlock(min(left, 256))
				if len(blk) == 0 {
					break
				}
				for i := range blk {
					sink += blk[i].Addr
				}
				left -= len(blk)
			}
		} else {
			for ; left > 0; left-- {
				ins, ok := r.Next()
				if !ok {
					break
				}
				sink += ins.Addr
			}
		}
		return time.Since(t)
	}
	out["trace.materialize_ns_per_instr"] = float64(read()) / float64(n)
	out["trace.replay_ns_per_instr"] = float64(read()) / float64(n)
	if sink == 0 {
		return fmt.Errorf("trace %s read as all-zero addresses", probeTraceName)
	}
	return nil
}

// oneCoreTraces are the generator classes of the catalog, one trace
// each: which component of the simulator is slow shows in which of
// these is slow.
var oneCoreTraces = []struct{ class, name string }{
	{"stream", "spec06.libquantum"}, {"stride", "spec06.gromacs"},
	{"chase", "spec06.mcf"}, {"graph", "ligra.PageRank"},
}

func probeSim(ctx context.Context, e *env, out map[string]float64) error {
	mix0 := e.mix(0)
	cfg4 := sim.DefaultConfig(len(mix0.Specs))
	var newErr error
	out["sim.new_us"] = us(timeMedian(5, func() {
		if _, err := sim.New(cfg4, mix0.Traces(), sim.NoPrefetchController()); err != nil {
			newErr = err
		}
	}))
	if newErr != nil {
		return newErr
	}

	for _, oc := range oneCoreTraces {
		spec, err := workload.ByName(oc.name)
		if err != nil {
			return err
		}
		mix := workload.Mix{Specs: []workload.Spec{spec}}
		target := 2 * e.target
		var rates []float64
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			sys, err := sim.New(sim.DefaultConfig(1), mix.Traces(), sim.NoPrefetchController())
			if err != nil {
				return err
			}
			res, err := sys.RunContext(ctx, target, target*e.scale.MaxCyclesFactor)
			if err != nil {
				return err
			}
			rates = append(rates, float64(res.Cores[0].Instructions)/time.Since(t).Seconds()/1e6)
		}
		out["sim.minstr_per_s.1c."+oc.class] = median(rates)
	}

	// The pair set through sim.New + RunContext directly: host speed per
	// controller, and the simulated counts, which repeat exactly.
	instr := map[string]float64{}
	spent := map[string]time.Duration{}
	for pair := 0; pair < numPairs; pair++ {
		key := e.ps.ctrlOf(pair)
		res, d, err := simulateDirect(ctx, e, e.mix(pair/len(controllers)), key)
		if err != nil {
			return err
		}
		spent[key] += d
		for _, cr := range res.Cores {
			instr[key] += float64(cr.Instructions)
			out["model.instructions"] += float64(cr.Instructions)
			out["model.cycles"] += float64(cr.Cycles)
			out["model.l2_misses"] += float64(cr.L2.Misses)
		}
		out["model.llc_misses"] += float64(res.LLC.Misses)
		out["model.dram_reads"] += float64(res.DRAM.Reads)
		out["model.dram_row_hits"] += float64(res.DRAM.RowHits)
		out["model.prefetches"] += float64(res.TotalPrefetches())
	}
	for _, key := range controllers {
		out["sim.minstr_per_s.4c."+key] = instr[key] / spent[key].Seconds() / 1e6
	}
	return nil
}

// simulateDirect is one simulation with no experiment.Runner around it,
// timed from sim.New to the end of RunContext.
func simulateDirect(ctx context.Context, e *env, mix workload.Mix, key string) (sim.Result, time.Duration, error) {
	ctrl, err := experiment.MakeController(key, experiment.Options{Step: e.scale.Step})
	if err != nil {
		return sim.Result{}, 0, err
	}
	t := time.Now()
	sys, err := sim.New(sim.DefaultConfig(len(mix.Specs)), mix.Traces(), ctrl)
	if err != nil {
		return sim.Result{}, 0, err
	}
	res, err := sys.RunContext(ctx, e.scale.Target, e.scale.MaxCycles())
	return res, time.Since(t), err
}

func probeExperiment(ctx context.Context, e *env, out map[string]float64) error {
	// A fresh runner has no baselines; the trace pool is warm, so this is
	// the baseline simulation itself.
	r := experiment.NewRunner(e.scale)
	mix := e.mix(1)
	cfg := sim.DefaultConfig(len(mix.Specs))
	var cold []float64
	var baseTotal time.Duration
	for _, spec := range mix.Specs {
		t := time.Now()
		if _, err := r.BaselineIPCContext(ctx, spec, cfg); err != nil {
			return err
		}
		d := time.Since(t)
		baseTotal += d
		cold = append(cold, ms(d))
	}
	out["experiment.baseline_cold_ms"] = median(cold)
	var hitErr error
	out["experiment.baseline_hit_us"] = us(timeEach(2000, func(i int) {
		if _, err := r.BaselineIPCContext(ctx, mix.Specs[i%len(mix.Specs)], cfg); err != nil {
			hitErr = err
		}
	}))
	if hitErr != nil {
		return hitErr
	}
	// The first job on a mix pays for its baselines and its own run.
	t := time.Now()
	if _, err := r.RunMixContext(ctx, mix, cfg, "no", experiment.Options{}); err != nil {
		return err
	}
	run := time.Since(t)
	out["experiment.baseline_share_cold"] = baseTotal.Seconds() / (baseTotal + run).Seconds()

	for _, key := range controllers {
		var runErr error
		out["experiment.runmix_ms."+key] = ms(timeMedian(3, func() {
			if _, err := r.RunMixContext(ctx, mix, cfg, key, experiment.Options{}); err != nil {
				runErr = err
			}
		}))
		if runErr != nil {
			return runErr
		}
	}
	return nil
}

// probeServer times the handlers on a recorder — no socket, no client —
// and then the socket and client alone, against /healthz.
func probeServer(ctx context.Context, e *env, out map[string]float64) error {
	n, err := e.singleNode("")
	if err != nil {
		return err
	}
	defer n.stop()
	h := n.srv.Handler()
	call := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	var missUs []float64
	var bodies [][]byte
	var ids []string
	for m := 0; m < numMixes; m++ {
		spec := e.ps.spec(m*len(controllers), e.ps.cacheSeed(0), e.target)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		t := time.Now()
		rec := call(http.MethodPost, "/v1/jobs", body)
		missUs = append(missUs, us(time.Since(t)))
		var v jobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusAccepted {
			return fmt.Errorf("probe submit: HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		bodies, ids = append(bodies, body), append(ids, v.ID)
	}
	out["server.submit_miss_us"] = median(missUs)
	for _, id := range ids {
		if rec := call(http.MethodGet, "/v1/jobs/"+id+"/result?wait=30s", nil); rec.Code != http.StatusOK {
			return fmt.Errorf("probe job %s did not finish: HTTP %d: %s", id, rec.Code, rec.Body.Bytes())
		}
	}
	reps := 2000
	if e.smoke {
		reps = 200
	}
	bad := 0
	expect := func(rec *httptest.ResponseRecorder) {
		if rec.Code != http.StatusOK {
			bad++
		}
	}
	out["server.submit_hit_us"] = us(timeEach(reps, func(i int) { expect(call(http.MethodPost, "/v1/jobs", bodies[i%len(bodies)])) }))
	out["server.result_get_us"] = us(timeEach(reps, func(i int) { expect(call(http.MethodGet, "/v1/jobs/"+ids[i%len(ids)]+"/result", nil)) }))
	out["server.stats_us"] = us(timeEach(reps/4, func(int) { expect(call(http.MethodGet, "/v1/stats", nil)) }))
	out["telemetry.scrape_us"] = us(timeEach(reps/40, func(int) { expect(call(http.MethodGet, "/metrics", nil)) }))
	if bad > 0 {
		return fmt.Errorf("%d handler probes were not answered 200", bad)
	}

	cl := newClients(n.url, 1, nil)[0]
	rtt := make([]float64, reps)
	for i := range rtt {
		t := beginOp()
		resp, err := cl.Get(ctx, "/healthz")
		if err != nil || resp.Status != http.StatusOK {
			return fmt.Errorf("probe GET /healthz: %v", err)
		}
		rtt[i] = us(t.end())
	}
	out["client.rtt_us"] = median(rtt)
	return nil
}

func probeSweepCluster(_ context.Context, e *env, out map[string]float64) error {
	seeds := make([]uint64, warmGridSeeds)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	var cells int
	var expandErr error
	d := timeMedian(20, func() {
		grid := warmGrid(seeds)
		spec := sweep.Spec{Grid: &grid}
		cs, err := spec.Expand(0)
		cells, expandErr = len(cs), err
	})
	if expandErr != nil {
		return expandErr
	}
	out["sweep.expand_us_per_cell"] = us(d) / float64(cells)

	peers := make([]string, len(clusterPorts))
	for i, p := range clusterPorts {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	var ring *cluster.Ring
	out["cluster.ring_build_us"] = us(timeMedian(20, func() { ring = cluster.NewRing(peers, 0) }))
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-key-%d", i)
	}
	owned := 0
	out["cluster.ring_owner_ns"] = float64(timeEach(200_000, func(i int) {
		if ring.Owner(keys[i%len(keys)]) != "" {
			owned++
		}
	}))
	if owned == 0 {
		return fmt.Errorf("ring of %d peers owns no key", len(peers))
	}
	return nil
}
