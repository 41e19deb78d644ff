// Package workload provides the trace catalog and multicore workload
// mixes used by the experiment harness. The catalog's synthetic traces
// mirror the behaviour classes of the paper's trace set (50% Ligra, 22%
// SPEC06, 20% SPEC17, 8% PARSEC — all prefetch-sensitive), plus a small
// set of insensitive traces for §6.3's secondary analysis.
package workload

import (
	"fmt"
	"sort"

	"micromama/internal/trace"
	"micromama/internal/xrand"
)

// effectively-unbounded trace length; the simulator stops at its
// instruction target and loops traces that end.
const unbounded = 1 << 62

// Class labels a trace's originating suite analog.
type Class string

const (
	ClassLigra  Class = "ligra"
	ClassSPEC06 Class = "spec06"
	ClassSPEC17 Class = "spec17"
	ClassPARSEC Class = "parsec"
)

// Spec is one catalog entry: a named, reproducible trace factory.
type Spec struct {
	Name      string
	Class     Class
	Sensitive bool // passes the paper's >10% prefetch-sensitivity filter
	factory   func() trace.Reader
}

// New instantiates a fresh reader for the trace.
func (s Spec) New() trace.Reader { return s.factory() }

// Shared returns a reader for the trace backed by the process-wide
// materialized-trace pool: the instruction stream is generated once and
// every Shared reader replays the same read-only slab (degrading to a
// plain New() stream when the pool's memory budget is exhausted). The
// replayed sequence is bit-identical to New()'s.
func (s Spec) Shared() trace.Reader {
	return trace.DefaultPool().Shared(s.Name, s.factory)
}

func seedOf(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// catalog is built once at init, and byName indexes it by name.
var (
	catalog []Spec
	byName  = map[string]int{}
)

func add(name string, class Class, sensitive bool, f func(seed uint64) trace.Reader) {
	seed := seedOf(name)
	if _, dup := byName[name]; !dup {
		byName[name] = len(catalog)
	}
	catalog = append(catalog, Spec{
		Name:      name,
		Class:     class,
		Sensitive: sensitive,
		factory:   func() trace.Reader { return f(seed) },
	})
}

func init() {
	// --- Ligra-like graph traces (≈50% of the sensitive set). Frontier
	// scans alternate with irregular gathers; vertex counts and phase
	// lengths vary per algorithm, producing the high L2-MPKI variance
	// of §6.3.
	graph := func(name string, vertices uint64, scan, gather uint64, memRatio, gatherRatio float64) {
		add(name, ClassLigra, true, func(seed uint64) trace.Reader {
			return trace.NewGraph(name, trace.GraphConfig{
				Seed: seed, Vertices: vertices, EdgeFootprint: 64 << 20,
				ScanPhase: scan, GatherPhase: gather,
				MemRatio: memRatio, GatherMemRatio: gatherRatio, Length: unbounded,
			})
		})
	}
	graph("ligra.BFS", 1<<20, 150_000, 250_000, 0.12, 0.035)
	graph("ligra.PageRank", 2<<20, 400_000, 150_000, 0.14, 0.045)
	graph("ligra.PageRankDelta", 2<<20, 250_000, 250_000, 0.13, 0.035)
	graph("ligra.BC", 1<<20, 200_000, 300_000, 0.12, 0.025)
	graph("ligra.BellmanFord", 2<<20, 150_000, 350_000, 0.11, 0.030)
	graph("ligra.Components", 1<<20, 300_000, 200_000, 0.13, 0.040)
	graph("ligra.Radii", 2<<20, 180_000, 280_000, 0.12, 0.025)
	graph("ligra.MIS", 1<<20, 220_000, 180_000, 0.10, 0.035)
	graph("ligra.KCore", 2<<20, 120_000, 380_000, 0.11, 0.022)
	graph("ligra.Triangle", 1<<20, 500_000, 100_000, 0.15, 0.050)

	// --- SPEC06-like traces (≈22%).
	add("spec06.libquantum", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec06.libquantum", trace.StreamConfig{
			Seed: seed, Footprint: 32 << 20, Streams: 1, MemRatio: 0.10, StoreRatio: 0.25, Length: unbounded,
		})
	})
	add("spec06.lbm", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec06.lbm", trace.StreamConfig{
			Seed: seed, Footprint: 48 << 20, Streams: 3, MemRatio: 0.12, StoreRatio: 0.40, Length: unbounded,
		})
	})
	add("spec06.mcf", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewChase("spec06.mcf", trace.ChaseConfig{
			Seed: seed, Footprint: 96 << 20, MemRatio: 0.25, LocalRatio: 0.88, Length: unbounded,
		})
	})
	add("spec06.gromacs", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStride("spec06.gromacs", trace.StrideConfig{
			Seed: seed, Strides: []uint64{128, 384}, Footprint: 24 << 20,
			MemRatio: 0.035, NoiseRatio: 0.05, StoreRatio: 0.15, Length: unbounded,
		})
	})
	add("spec06.cactusADM", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStride("spec06.cactusADM", trace.StrideConfig{
			Seed: seed, Strides: []uint64{192, 576, 1152}, Footprint: 40 << 20,
			MemRatio: 0.040, NoiseRatio: 0.03, StoreRatio: 0.20, Length: unbounded,
		})
	})

	// --- SPEC17-like traces (≈20%).
	add("spec17.fotonik3d", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec17.fotonik3d", trace.StreamConfig{
			Seed: seed, Footprint: 64 << 20, Streams: 4, MemRatio: 0.11, StoreRatio: 0.20, Length: unbounded,
		})
	})
	add("spec17.cactuBSSN", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStride("spec17.cactuBSSN", trace.StrideConfig{
			Seed: seed, Strides: []uint64{256, 512, 1024, 2048}, Footprint: 56 << 20,
			MemRatio: 0.045, NoiseRatio: 0.04, StoreRatio: 0.18, Length: unbounded,
		})
	})
	add("spec17.mcf", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewChase("spec17.mcf", trace.ChaseConfig{
			Seed: seed, Footprint: 128 << 20, MemRatio: 0.22, LocalRatio: 0.90, Length: unbounded,
		})
	})
	add("spec17.roms", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec17.roms", trace.StreamConfig{
			Seed: seed, Footprint: 40 << 20, Streams: 2, MemRatio: 0.09, StoreRatio: 0.30, Length: unbounded,
		})
	})

	// --- PARSEC-like traces (≈8%): phase-mixed programs.
	add("parsec.canneal", ClassPARSEC, true, func(seed uint64) trace.Reader {
		chase := trace.NewChase("canneal.chase", trace.ChaseConfig{
			Seed: seed ^ 1, Footprint: 64 << 20, MemRatio: 0.25, LocalRatio: 0.85, Length: unbounded,
		})
		stream := trace.NewStream("canneal.stream", trace.StreamConfig{
			Seed: seed ^ 2, Footprint: 16 << 20, Streams: 1, MemRatio: 0.10, StoreRatio: 0.20, Length: unbounded,
		})
		return trace.NewMixed("parsec.canneal", 300_000, unbounded, chase, stream)
	})
	add("parsec.streamcluster", ClassPARSEC, true, func(seed uint64) trace.Reader {
		stream := trace.NewStream("streamcluster.scan", trace.StreamConfig{
			Seed: seed ^ 1, Footprint: 24 << 20, Streams: 2, MemRatio: 0.11, StoreRatio: 0.10, Length: unbounded,
		})
		stride := trace.NewStride("streamcluster.stride", trace.StrideConfig{
			Seed: seed ^ 2, Strides: []uint64{320}, Footprint: 24 << 20,
			MemRatio: 0.035, NoiseRatio: 0.06, StoreRatio: 0.10, Length: unbounded,
		})
		return trace.NewMixed("parsec.streamcluster", 250_000, unbounded, stream, stride)
	})

	// --- Additional suite coverage: more Ligra algorithms and
	// SPEC/PARSEC analogs so 52-mix full-scale runs draw from a wide
	// pool.
	graph("ligra.BFSBV", 1<<20, 200_000, 220_000, 0.11, 0.030)
	graph("ligra.MaxIndSet", 2<<20, 160_000, 240_000, 0.12, 0.028)
	add("spec06.milc", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec06.milc", trace.StreamConfig{
			Seed: seed, Footprint: 28 << 20, Streams: 2, MemRatio: 0.08, StoreRatio: 0.30, Length: unbounded,
		})
	})
	add("spec06.soplex", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStride("spec06.soplex", trace.StrideConfig{
			Seed: seed, Strides: []uint64{96, 224}, Footprint: 20 << 20,
			MemRatio: 0.045, NoiseRatio: 0.10, StoreRatio: 0.12, Length: unbounded,
		})
	})
	add("spec17.lbm", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec17.lbm", trace.StreamConfig{
			Seed: seed, Footprint: 56 << 20, Streams: 3, MemRatio: 0.10, StoreRatio: 0.45, Length: unbounded,
		})
	})
	add("spec17.pop2", ClassSPEC17, true, func(seed uint64) trace.Reader {
		stream := trace.NewStream("pop2.stream", trace.StreamConfig{
			Seed: seed ^ 1, Footprint: 20 << 20, Streams: 2, MemRatio: 0.07, StoreRatio: 0.25, Length: unbounded,
		})
		stride := trace.NewStride("pop2.stride", trace.StrideConfig{
			Seed: seed ^ 2, Strides: []uint64{448}, Footprint: 16 << 20,
			MemRatio: 0.04, NoiseRatio: 0.04, StoreRatio: 0.20, Length: unbounded,
		})
		return trace.NewMixed("spec17.pop2", 220_000, unbounded, stream, stride)
	})
	add("parsec.facesim", ClassPARSEC, true, func(seed uint64) trace.Reader {
		stride := trace.NewStride("facesim.stride", trace.StrideConfig{
			Seed: seed ^ 1, Strides: []uint64{160, 320}, Footprint: 24 << 20,
			MemRatio: 0.05, NoiseRatio: 0.06, StoreRatio: 0.18, Length: unbounded,
		})
		compute := trace.NewCompute("facesim.compute", trace.ComputeConfig{
			Seed: seed ^ 2, WorkingSet: 192 << 10, MemRatio: 0.15, Length: unbounded,
		})
		return trace.NewMixed("parsec.facesim", 180_000, unbounded, stride, compute)
	})

	// --- Light prefetch-sensitive traces: low L2 MPKI but latency-bound
	// enough that deeper L2 prefetching still buys >10% (the paper notes
	// 56% of its workloads have µ−σ of L2-MPKI under 2.5 — the sensitive
	// set is dominated by light traces, and these give mixes the
	// asymmetric-importance structure µMama exploits).
	add("spec06.zeusmp", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec06.zeusmp", trace.StreamConfig{
			Seed: seed, Footprint: 24 << 20, Streams: 2, MemRatio: 0.035, StoreRatio: 0.20, Length: unbounded,
		})
	})
	add("spec06.sphinx3", ClassSPEC06, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec06.sphinx3", trace.StreamConfig{
			Seed: seed, Footprint: 16 << 20, Streams: 1, MemRatio: 0.045, StoreRatio: 0.10, Length: unbounded,
		})
	})
	add("spec17.wrf", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec17.wrf", trace.StreamConfig{
			Seed: seed, Footprint: 20 << 20, Streams: 3, MemRatio: 0.030, StoreRatio: 0.25, Length: unbounded,
		})
	})
	add("spec17.nab", ClassSPEC17, true, func(seed uint64) trace.Reader {
		return trace.NewStream("spec17.nab", trace.StreamConfig{
			Seed: seed, Footprint: 12 << 20, Streams: 2, MemRatio: 0.025, StoreRatio: 0.15, Length: unbounded,
		})
	})
	add("ligra.BFSCC", ClassLigra, true, func(seed uint64) trace.Reader {
		return trace.NewGraph("ligra.BFSCC", trace.GraphConfig{
			Seed: seed, Vertices: 1 << 20, EdgeFootprint: 64 << 20,
			ScanPhase: 250_000, GatherPhase: 150_000,
			MemRatio: 0.06, GatherMemRatio: 0.015, Length: unbounded,
		})
	})
	add("ligra.CF", ClassLigra, true, func(seed uint64) trace.Reader {
		return trace.NewGraph("ligra.CF", trace.GraphConfig{
			Seed: seed, Vertices: 1 << 20, EdgeFootprint: 48 << 20,
			ScanPhase: 350_000, GatherPhase: 120_000,
			MemRatio: 0.05, GatherMemRatio: 0.012, Length: unbounded,
		})
	})

	// --- Insensitive traces (fail the >10% filter; §6.3's secondary
	// set). Compute-bound or cache-resident.
	insens := func(name string, class Class, ws uint64, memRatio float64) {
		add(name, class, false, func(seed uint64) trace.Reader {
			return trace.NewCompute(name, trace.ComputeConfig{
				Seed: seed, WorkingSet: ws, MemRatio: memRatio, Length: unbounded,
			})
		})
	}
	insens("spec06.povray", ClassSPEC06, 64<<10, 0.12)
	insens("spec06.gamess", ClassSPEC06, 96<<10, 0.15)
	insens("spec17.leela", ClassSPEC17, 128<<10, 0.12)
	insens("spec17.exchange2", ClassSPEC17, 64<<10, 0.08)
}

// Catalog returns all catalog entries (sorted by name, stable).
func Catalog() []Spec {
	out := make([]Spec, len(catalog))
	copy(out, catalog)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Sensitive returns the prefetch-sensitive entries.
func Sensitive() []Spec {
	var out []Spec
	for _, s := range Catalog() {
		if s.Sensitive {
			out = append(out, s)
		}
	}
	return out
}

// Insensitive returns the entries failing the sensitivity filter.
func Insensitive() []Spec {
	var out []Spec
	for _, s := range Catalog() {
		if !s.Sensitive {
			out = append(out, s)
		}
	}
	return out
}

// ByName returns the named spec.
func ByName(name string) (Spec, error) {
	if i, ok := byName[name]; ok {
		return catalog[i], nil
	}
	return Spec{}, fmt.Errorf("workload: unknown trace %q", name)
}

// Known reports whether the catalog has a trace of that name.
func Known(name string) bool {
	_, ok := byName[name]
	return ok
}

// Mix is one multicore workload: an ordered list of trace specs, one
// per core.
type Mix struct {
	ID    int
	Specs []Spec
}

// Name renders the mix compactly.
func (m Mix) Name() string {
	s := fmt.Sprintf("mix%02d{", m.ID)
	for i, sp := range m.Specs {
		if i > 0 {
			s += ","
		}
		s += sp.Name
	}
	return s + "}"
}

// Traces returns one reader per core. Readers resolve through the
// shared materialized-trace pool (Spec.Shared): concurrent baseline,
// profile, and controller runs of the same mix replay one buffer
// instead of regenerating the trace per run. Each reader has its own
// cursor, so a mix may repeat a spec.
func (m Mix) Traces() []trace.Reader {
	out := make([]trace.Reader, len(m.Specs))
	for i, sp := range m.Specs {
		out[i] = sp.Shared()
	}
	return out
}

// Mixes samples `count` mixes of `cores` traces each from the sensitive
// catalog, seeded deterministically (the paper randomly samples 52
// mixes for its 4- and 8-core experiments).
func Mixes(cores, count int, seed uint64) []Mix {
	specs := Sensitive()
	r := xrand.New(seed)
	mixes := make([]Mix, count)
	for i := range mixes {
		picked := make([]Spec, cores)
		for c := 0; c < cores; c++ {
			picked[c] = specs[r.Intn(len(specs))]
		}
		mixes[i] = Mix{ID: i, Specs: picked}
	}
	return mixes
}
