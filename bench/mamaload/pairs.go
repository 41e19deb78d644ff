package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"micromama/internal/experiment"
	"micromama/internal/workload"
)

// Every simulation of the pair set runs at this budget: the service's
// "tiny" scale with the instruction target lowered, so one simulation
// is tens of milliseconds and a run holds hundreds of them.
const (
	pairScale  = "tiny"
	pairTarget = 100_000
	// cheapTarget is the budget of sweep_warm's single-trace cells: they
	// exist to be looked up, not simulated.
	cheapTarget = 20_000
)

// controllers is the paper's basic comparison: no prefetching, the
// per-core bandit, µMama, and a fixed state-of-the-art prefetcher.
var controllers = []string{"no", "bandit", "mumama", "pythia"}

// mixes are the four four-core mixes every workload simulates, drawn
// once from the prefetch-sensitive catalog: each takes one trace of each
// generator class (pointer chase or the heaviest stride, graph, stream,
// stride), because a simulation runs until its slowest core reaches the
// target and the slow class sets the cost of a mix.
//
// They do not depend on the seed. Drawing them per seed was measured
// first: free sampling from the 34 sensitive names moves the work of one
// pass over the pairs by 2× between seeds, and even a balanced draw (each
// of these sixteen names once, regrouped per seed) moves it by ±10 %,
// which is the size of regression the benchmark exists to see. The seed
// decides what the service cannot tell from repetition instead: the
// cache namespaces (so the keys, their hashes and their ring owners),
// and the order of the ops.
var mixes = [4][]string{
	{"spec06.mcf", "ligra.BFS", "spec06.libquantum", "spec06.gromacs"},
	{"spec17.mcf", "ligra.PageRank", "spec06.lbm", "spec06.cactusADM"},
	{"parsec.canneal", "ligra.Components", "spec17.fotonik3d", "parsec.facesim"},
	{"spec17.cactuBSSN", "ligra.Radii", "spec17.roms", "spec06.soplex"},
}

const (
	numMixes = len(mixes)
	numPairs = numMixes * 4 // × len(controllers)
)

// pairSet is the input of a run: the sixteen (mix, controller) pairs and
// the seed that namespaces and orders them.
type pairSet struct{ seed uint64 }

// newPairSet checks the mixes against the catalog; the program under
// test only ever sees the specs built from them.
func newPairSet(seed uint64) (pairSet, error) {
	sensitive := map[string]bool{}
	for _, s := range workload.Sensitive() {
		sensitive[s.Name] = true
	}
	for _, mix := range mixes {
		for _, name := range mix {
			if !sensitive[name] {
				return pairSet{}, fmt.Errorf("trace %q is not in the prefetch-sensitive catalog", name)
			}
		}
	}
	return pairSet{seed: seed}, nil
}

func (ps pairSet) mixOf(pair int) []string { return mixes[pair/len(controllers)] }
func (ps pairSet) ctrlOf(pair int) string  { return controllers[pair%len(controllers)] }
func (ps pairSet) pairName(pair int) string {
	return strings.Join(ps.mixOf(pair), "+") + "/" + ps.ctrlOf(pair)
}

// cacheSeed is the job seed of pass n: it only namespaces the server's
// cache key, so the same pair under another pass is the same simulation
// under a key the server has never seen. Pass 0 is the set-up pass.
func (ps pairSet) cacheSeed(pass int) uint64 { return ps.seed<<24 + uint64(pass) }

// spec builds the wire spec of a pair under a cache namespace.
func (ps pairSet) spec(pair int, cacheSeed, target uint64) jobSpec {
	return jobSpec{
		Mix: ps.mixOf(pair), Controller: ps.ctrlOf(pair),
		Scale: pairScale, Target: target, Seed: cacheSeed,
	}
}

// shuffled returns n passes over [0,k) back to back, each pass in its
// own seeded order: the op sequence a workload deals to its clients.
func shuffled(seed uint64, salt int64, k, passes int) []int {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + salt))
	seq := make([]int, 0, k*passes)
	for p := 0; p < passes; p++ {
		seq = append(seq, rng.Perm(k)...)
	}
	return seq
}

// The wire types below are the bench's own view of the service's JSON.
// They are deliberately not server.JobSpec / server.JobView: the bench
// is a client, and what it depends on is the wire format.

type jobSpec struct {
	Mix        []string `json:"mix"`
	Controller string   `json:"controller"`
	Scale      string   `json:"scale,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	Target     uint64   `json:"target,omitempty"`
}

type jobResult struct {
	Mix        string    `json:"mix"`
	Controller string    `json:"controller"`
	WS         float64   `json:"ws"`
	HS         float64   `json:"hs"`
	GM         float64   `json:"gm"`
	Unfairness float64   `json:"unfairness"`
	Speedups   []float64 `json:"speedups"`
	IPC        []float64 `json:"ipc"`
	L2MPKI     []float64 `json:"l2_mpki"`
	Prefetches uint64    `json:"prefetches"`
	SimMs      int64     `json:"sim_ms"`
}

type jobView struct {
	ID         string     `json:"id"`
	Status     string     `json:"status"`
	Cached     bool       `json:"cached"`
	Error      string     `json:"error"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     *jobResult `json:"result"`
}

// resultOf renders a direct experiment result the way the service does,
// so the direct path and the served paths can be compared field by
// field.
func resultOf(res experiment.MixResult) jobResult {
	out := jobResult{
		Mix: res.Mix.Name(), Controller: res.Controller,
		WS: res.WS, HS: res.HS, GM: res.GM, Unfairness: res.Unfairness,
		Speedups:   res.Speedups,
		Prefetches: res.Result.TotalPrefetches(),
	}
	for _, cr := range res.Result.Cores {
		out.IPC = append(out.IPC, cr.IPC)
		out.L2MPKI = append(out.L2MPKI, cr.L2MPKI())
	}
	return out
}

// check is correctness check 1: the result is complete and its numbers
// are usable.
func (r *jobResult) check(cores int) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if len(r.IPC) != cores || len(r.Speedups) != cores || len(r.L2MPKI) != cores {
		return fmt.Errorf("result has %d ipc / %d speedups / %d l2_mpki entries, want %d cores",
			len(r.IPC), len(r.Speedups), len(r.L2MPKI), cores)
	}
	positive := append([]float64{r.WS, r.HS}, r.IPC...)
	for _, v := range positive {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("result has a non-positive or non-finite value %v (ws %v hs %v ipc %v)", v, r.WS, r.HS, r.IPC)
		}
	}
	return nil
}

// digest is the canonical form of a result for bit-identity checks:
// every simulated number at full precision, without the wall-clock
// sim_ms and without the mix label, which carries the cache namespace.
func (r *jobResult) digest() string {
	var b strings.Builder
	b.WriteString(r.Controller)
	num := func(v float64) {
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	list := func(tag string, vs []float64) {
		b.WriteByte(' ')
		b.WriteString(tag)
		for _, v := range vs {
			num(v)
		}
	}
	num(r.WS)
	num(r.HS)
	num(r.GM)
	num(r.Unfairness)
	list("sp", r.Speedups)
	list("ipc", r.IPC)
	list("mpki", r.L2MPKI)
	b.WriteString(" pf ")
	b.WriteString(strconv.FormatUint(r.Prefetches, 10))
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// digestOf folds per-item digests into one, independent of the order the
// items were produced in.
func digestOf(items map[string]string) string {
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, items[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
