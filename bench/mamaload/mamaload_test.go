package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

// asMainEnv makes the test binary behave as the mamaload command: the
// smoke test runs the real command line, and the command re-executes
// itself for every workload, so the children must be mamaload too.
const asMainEnv = "MAMALOAD_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// mamaload runs the command with args and fails the test if it exits
// non-zero.
func mamaload(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mamaload %v: %v\n%s", args, err, out)
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the program must name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if got, want := names, workloadNames; !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bad name or bound %v", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program has %d", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per-layer metric %q: bad or repeated name", m.Name)
		}
		seen[m.Name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// TestSmoke runs all six workloads at smoke size through the real
// command line, once untraced and once traced, and checks everything a
// report promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	begin := time.Now()
	dir := t.TempDir()
	plain, traced, spanFile := filepath.Join(dir, "plain.json"), filepath.Join(dir, "traced.json"), filepath.Join(dir, "spans.ndjson")
	mamaload(t, "-workload", "all", "-smoke", "-out", plain)
	mamaload(t, "-workload", "all", "-smoke", "-trace", "1", "-out", traced, "-spans", spanFile)

	for _, tc := range []struct {
		path string
		defs []metricDef
	}{{plain, endToEnd}, {traced, perLayer}} {
		rep, err := readReport(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Runs) != len(workloadNames) {
			t.Fatalf("%s holds %d runs, want one per workload", tc.path, len(rep.Runs))
		}
		if rep.Host.GoVersion == "" || rep.Host.Kernel == "" || rep.Host.GOMAXPROCS < 1 || rep.Host.NProc < 1 {
			t.Errorf("host block incomplete: %+v", rep.Host)
		}
		digests := map[string]string{}
		for i, r := range rep.Runs {
			if r.Workload != workloadNames[i] || !nameRE.MatchString(r.Workload) {
				t.Errorf("run %d is %q, want %q", i, r.Workload, workloadNames[i])
			}
			if !r.Correct || r.Failed != 0 || r.FailedFrac != 0 || r.Attempted < 1 || len(r.Errors) != 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d failed_frac=%v errors=%v",
					r.Workload, r.Correct, r.Attempted, r.Failed, r.FailedFrac, r.Errors)
			}
			var got, want []string
			for name, m := range r.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, d := range tc.defs {
				want = append(want, d.Name+" "+d.Unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s reports metrics %v, want %v", r.Workload, got, want)
			}
			if r.Workload != "sweep_warm" {
				if len(r.PairDigests) != numPairs || r.ResultDigest == "" {
					t.Errorf("%s: %d pair digests, result_digest %q", r.Workload, len(r.PairDigests), r.ResultDigest)
				}
				digests[r.Workload] = r.ResultDigest
			}
		}
		if err := sameDigest(digests); err != nil || len(digests) != 5 {
			t.Errorf("digests across paths %v: %v", digests, err)
		}
		if tc.path == plain {
			for _, r := range rep.Runs {
				for _, d := range endToEnd {
					if r.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s %s = %v; an end-to-end metric never reads 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
					}
				}
			}
			continue
		}
		for _, r := range rep.Runs {
			// What every traced run must have measured, whatever the
			// workload; and what only its own workload can.
			for _, name := range []string{"sim.minstr_per_s.4c.mumama", "model.instructions", "server.submit_hit_us", "client.rtt_us", "cluster.ring_owner_ns", "sweep.expand_us_per_cell", "trace.pool_mb"} {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s: probe %s = %v", r.Workload, name, r.Metrics[name].Value)
				}
			}
			if r.Metrics["trace.pool_fallbacks"].Value != 0 {
				t.Errorf("%s: the trace pool fell back to streaming", r.Workload)
			}
			if len(r.Spans) == 0 || r.Spans["op"].Count == 0 {
				t.Errorf("%s: no op spans", r.Workload)
			}
		}
		own := map[string][]string{
			"jobs_cold":     {"client.polls_per_job", "client.notify_lag_ms_p50", "server.run_ms_p50", "server.sim_share"},
			"sweep_cold":    {"sweep.admit_cold_us_per_cell", "sweep.first_event_ms_p50", "sweep.worker_util", "sweep.persist_mb"},
			"sweep_warm":    {"sweep.admit_warm_us_per_cell", "sweep.stream_us_per_event", "sweep.persist_mb", "server.start_ms", "server.cache_load_us_per_entry", "server.shutdown_flush_ms"},
			"cluster3_cold": {"cluster.internal_rpcs", "cluster.remote_cells", "cluster.node_sim_imbalance", "cluster.converge_ms"},
		}
		for _, r := range rep.Runs {
			for _, name := range own[r.Workload] {
				if r.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v", r.Workload, name, r.Metrics[name].Value)
				}
			}
			if r.Workload == "sweep_warm" && r.Metrics["sweep.deduped_frac"].Value != 1 {
				t.Errorf("sweep_warm deduped %v of its cells, want all", r.Metrics["sweep.deduped_frac"].Value)
			}
		}
	}

	// The span file: one well-formed forest per workload.
	spans, err := readSpans(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	byWorkload := map[string][]span{}
	for _, s := range spans {
		byWorkload[s.Workload] = append(byWorkload[s.Workload], s)
	}
	for _, name := range workloadNames {
		stats, err := checkForest(byWorkload[name])
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if stats["op"].Count == 0 {
			t.Errorf("%s: span file holds no op span", name)
		}
	}
	// On jobs_cold the pieces must add up: the op's children cover it,
	// and queue + run + notify lag is the op.
	st, _ := checkForest(byWorkload["jobs_cold"])
	op := st["op"]
	if op.SelfMs > 0.05*op.MeanMs {
		t.Errorf("jobs_cold: children of op leave %.3g of %.3g ms uncovered, want at most 5 %%", op.SelfMs, op.MeanMs)
	}
	parts := st["server.queue"].MeanMs + st["server.run"].MeanMs + st["client.notify_lag"].MeanMs
	if parts < 0.9*op.MeanMs || parts > 1.1*op.MeanMs {
		t.Errorf("jobs_cold: queue+run+notify_lag = %.4g ms, op = %.4g ms; want within 10 %%", parts, op.MeanMs)
	}
	t.Logf("smoke of six workloads, untraced and traced: %v", time.Since(begin).Round(time.Millisecond))
}

func TestCheckForestRejectsBrokenTrees(t *testing.T) {
	ok := []span{
		{ID: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "a", Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Name: "b", Parent: 1, StartNs: 30, EndNs: 60}, // overlaps a
		{ID: 4, Name: "c", Parent: 2, StartNs: 10, EndNs: 20},
	}
	st, err := checkForest(ok)
	if err != nil {
		t.Fatal(err)
	}
	// a ∪ b covers [10,60]: op's self time is 50 ns, a's is 20.
	if got := st["op"].SelfMs * 1e6; got != 50 {
		t.Errorf("op self = %v ns, want 50", got)
	}
	if got := st["a"].SelfMs * 1e6; got != 20 {
		t.Errorf("a self = %v ns, want 20", got)
	}
	for name, bad := range map[string][]span{
		"missing parent": {{ID: 2, Name: "a", Parent: 9, StartNs: 0, EndNs: 1}},
		"child outside":  {{ID: 1, Name: "op", StartNs: 0, EndNs: 10}, {ID: 2, Name: "a", Parent: 1, StartNs: 5, EndNs: 11}},
		"ends early":     {{ID: 1, Name: "op", StartNs: 10, EndNs: 5}},
		"duplicate id":   {{ID: 1, Name: "op", StartNs: 0, EndNs: 1}, {ID: 1, Name: "op", StartNs: 0, EndNs: 1}},
	} {
		if _, err := checkForest(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckEnvRefusesKnobs(t *testing.T) {
	for _, k := range refusedEnv {
		t.Setenv(k, "1")
		if err := checkEnv(); err == nil {
			t.Errorf("%s set: run not refused", k)
		}
		os.Unsetenv(k)
	}
	if err := checkEnv(); err != nil {
		t.Errorf("clean environment refused: %v", err)
	}
}

// On other ports the ring would be another one: a taken port refuses
// the run instead of moving it.
func TestClusterRefusesTakenPort(t *testing.T) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", clusterPorts[1]))
	if err != nil {
		t.Skipf("port %d is taken by something else: %v", clusterPorts[1], err)
	}
	defer ln.Close()
	if lns, err := listenCluster(); err == nil {
		for _, l := range lns {
			l.Close()
		}
		t.Error("listenCluster found a way around a taken port")
	}
	// The port it did bind before it gave up is free again.
	first, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", clusterPorts[0]))
	if err != nil {
		t.Fatalf("listenCluster left port %d bound: %v", clusterPorts[0], err)
	}
	first.Close()
}

func TestOpsAreSeededAndWorkIsNot(t *testing.T) {
	a, err := newPairSet(11)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newPairSet(12)
	for pair := 0; pair < numPairs; pair++ {
		if a.pairName(pair) != b.pairName(pair) {
			t.Error("the pairs moved with the seed; the work of a pass must not")
		}
	}
	used := map[string]bool{}
	for _, mix := range mixes {
		if len(mix) != 4 {
			t.Fatalf("mix %v is not four-core", mix)
		}
		for _, name := range mix {
			if used[name] {
				t.Errorf("trace %s is in two mixes", name)
			}
			used[name] = true
		}
	}
	if a.cacheSeed(1) == b.cacheSeed(1) || a.cacheSeed(1) == a.cacheSeed(2) {
		t.Error("cache namespaces collide across seeds or passes")
	}
	s11, again, s12 := shuffled(11, 1, numPairs, 4), shuffled(11, 1, numPairs, 4), shuffled(12, 1, numPairs, 4)
	if !slices.Equal(s11, again) {
		t.Error("the same seed gave two op orders")
	}
	if slices.Equal(s11, s12) {
		t.Error("seeds 11 and 12 gave the same op order")
	}
	// Every pass holds every pair once: an epoch is constant work.
	for p := 0; p < 4; p++ {
		seen := map[int]bool{}
		for _, v := range s11[p*numPairs : (p+1)*numPairs] {
			seen[v] = true
		}
		if len(seen) != numPairs {
			t.Errorf("pass %d holds %d distinct pairs, want %d", p, len(seen), numPairs)
		}
	}
}
