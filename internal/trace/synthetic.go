package trace

import "micromama/internal/xrand"

// Synthetic trace generators. Each generator is a deterministic state
// machine over a seeded PRNG; Reset reproduces the identical sequence.
// The classes cover the behaviour axes of the paper's trace set
// (SPEC06/17, Ligra, PARSEC): streaming scans, regular strided array
// walks, dependent pointer chasing, irregular graph processing with
// frontier phases, phase-mixed programs, and compute-bound code.
//
// All generators are "infinite" in spirit but expose a finite Length so
// tests can bound them; the simulator core Resets a trace that ends
// before its target and reads on.

const (
	lineBytes = 64
	pageBytes = 4096
)

// StreamConfig parameterizes a streaming-scan generator
// (libquantum/fotonik3d-like behaviour: long unit-stride scans over a
// footprint much larger than the LLC, highly next-line/streamer
// friendly).
type StreamConfig struct {
	Seed uint64
	// Footprint is the bytes scanned before wrapping. Should exceed the
	// LLC for the trace to stay memory-bound.
	Footprint uint64
	// Streams is the number of concurrent scan pointers.
	Streams int
	// MemRatio is the fraction of instructions that access memory.
	MemRatio float64
	// StoreRatio is the fraction of memory accesses that are stores.
	StoreRatio float64
	// Length is the number of instructions before the trace ends.
	Length uint64
}

// Stream is a streaming-scan trace generator.
type Stream struct {
	cfg   StreamConfig
	label string
	r     xrand.RNG
	pos   []uint64
	next  int
	count uint64
}

// NewStream constructs a streaming generator.
func NewStream(label string, cfg StreamConfig) *Stream {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.Footprint == 0 {
		cfg.Footprint = 32 << 20
	}
	s := &Stream{cfg: cfg, label: label, r: xrand.New(cfg.Seed)}
	s.Reset()
	return s
}

// Reset implements Reader.
func (s *Stream) Reset() {
	s.r.Reset()
	// Reset is on the looping hot path; reuse the slice.
	if len(s.pos) != s.cfg.Streams {
		s.pos = make([]uint64, s.cfg.Streams)
	}
	for i := range s.pos {
		// Space the streams across the footprint.
		s.pos[i] = uint64(i) * (s.cfg.Footprint / uint64(s.cfg.Streams))
	}
	s.next = 0
	s.count = 0
}

// Name implements Reader.
func (s *Stream) Name() string { return s.label }

// Next implements Reader.
func (s *Stream) Next() (Instr, bool) {
	if s.count >= s.cfg.Length {
		return Instr{}, false
	}
	s.count++
	if s.r.Float64() >= s.cfg.MemRatio {
		return Instr{PC: IdlePC, Kind: Other}, true
	}
	i := s.next
	s.next = (s.next + 1) % s.cfg.Streams
	addr := 0x10000000 + s.pos[i]
	s.pos[i] = (s.pos[i] + 8) % s.cfg.Footprint
	kind := Load
	if s.r.Float64() < s.cfg.StoreRatio {
		kind = Store
	}
	return Instr{PC: 0x2000 + uint16(i)*4, Addr: addr, Kind: kind}, true
}

// StrideConfig parameterizes a multi-stride array-walk generator
// (cactuBSSN/gromacs-like: several PC sites each walking with its own
// constant stride; friendly to stride prefetchers at matching degree).
type StrideConfig struct {
	Seed uint64
	// Strides lists the byte stride of each PC site.
	Strides []uint64
	// Footprint bounds each site's walk before wrapping.
	Footprint uint64
	MemRatio  float64
	// NoiseRatio is the fraction of memory accesses redirected to a
	// random address (breaking perfect stride patterns).
	NoiseRatio float64
	StoreRatio float64
	Length     uint64
}

// Stride is a multi-stride trace generator.
type Stride struct {
	cfg   StrideConfig
	label string
	r     xrand.RNG
	pos   []uint64
	next  int
	count uint64
}

// NewStride constructs a strided generator.
func NewStride(label string, cfg StrideConfig) *Stride {
	if len(cfg.Strides) == 0 {
		cfg.Strides = []uint64{256}
	}
	if cfg.Footprint == 0 {
		cfg.Footprint = 64 << 20
	}
	s := &Stride{cfg: cfg, label: label, r: xrand.New(cfg.Seed)}
	s.Reset()
	return s
}

// Reset implements Reader.
func (s *Stride) Reset() {
	s.r.Reset()
	// Reset is on the looping hot path; reuse the slice.
	if len(s.pos) != len(s.cfg.Strides) {
		s.pos = make([]uint64, len(s.cfg.Strides))
	}
	for i := range s.pos {
		s.pos[i] = uint64(i) * (s.cfg.Footprint / uint64(len(s.cfg.Strides)))
	}
	s.next = 0
	s.count = 0
}

// Name implements Reader.
func (s *Stride) Name() string { return s.label }

// Next implements Reader.
func (s *Stride) Next() (Instr, bool) {
	if s.count >= s.cfg.Length {
		return Instr{}, false
	}
	s.count++
	if s.r.Float64() >= s.cfg.MemRatio {
		return Instr{PC: IdlePC, Kind: Other}, true
	}
	i := s.next
	s.next = (s.next + 1) % len(s.cfg.Strides)
	var addr uint64
	if s.cfg.NoiseRatio > 0 && s.r.Float64() < s.cfg.NoiseRatio {
		addr = 0x40000000 + s.r.Uint64()%s.cfg.Footprint
	} else {
		addr = 0x40000000 + s.pos[i]
		s.pos[i] = (s.pos[i] + s.cfg.Strides[i]) % s.cfg.Footprint
	}
	kind := Load
	if s.r.Float64() < s.cfg.StoreRatio {
		kind = Store
	}
	return Instr{PC: 0x3000 + uint16(i)*4, Addr: addr, Kind: kind}, true
}

// ChaseConfig parameterizes a pointer-chasing generator (mcf-like:
// dependent loads to effectively random lines across a huge footprint;
// hostile to every prefetcher and insensitive to MLP).
type ChaseConfig struct {
	Seed      uint64
	Footprint uint64
	// MemRatio is the fraction of instructions that are chase loads.
	MemRatio float64
	// LocalRatio is the fraction of chase loads that stay within the
	// current page (modeling node-field accesses that hit).
	LocalRatio float64
	Length     uint64
}

// Chase is a pointer-chasing trace generator.
type Chase struct {
	cfg   ChaseConfig
	label string
	r     xrand.RNG
	cur   uint64
	count uint64
}

// NewChase constructs a pointer-chasing generator.
func NewChase(label string, cfg ChaseConfig) *Chase {
	if cfg.Footprint == 0 {
		cfg.Footprint = 128 << 20
	}
	c := &Chase{cfg: cfg, label: label, r: xrand.New(cfg.Seed)}
	c.Reset()
	return c
}

// Reset implements Reader.
func (c *Chase) Reset() {
	c.r.Reset()
	c.cur = 0
	c.count = 0
}

// Name implements Reader.
func (c *Chase) Name() string { return c.label }

// Next implements Reader.
func (c *Chase) Next() (Instr, bool) {
	if c.count >= c.cfg.Length {
		return Instr{}, false
	}
	c.count++
	if c.r.Float64() >= c.cfg.MemRatio {
		return Instr{PC: IdlePC, Kind: Other}, true
	}
	if c.r.Float64() < c.cfg.LocalRatio {
		// Field access near the current node: same page, likely a hit.
		off := uint64(c.r.Intn(pageBytes))
		addr := 0x80000000 + (c.cur/pageBytes)*pageBytes + off
		return Instr{PC: 0x4004, Addr: addr, Kind: Load}, true
	}
	// Follow the "pointer": jump to a pseudo-random line. The next
	// address depends on this load, so mark the dependency.
	c.cur = (c.r.Uint64() % c.cfg.Footprint) &^ (lineBytes - 1)
	return Instr{PC: 0x4000, Addr: 0x80000000 + c.cur, Kind: Load, Flags: DependsPrev}, true
}

// GraphConfig parameterizes a Ligra-like graph-processing generator:
// alternating phases of frontier scans (streaming, prefetch friendly)
// and neighbor gathers (irregular, bursty). The phase structure yields
// the high L2-MPKI variance the paper associates with µMama-friendly
// workloads (§6.3).
type GraphConfig struct {
	Seed uint64
	// Vertices determines the irregular footprint (16 bytes/vertex of
	// property data).
	Vertices uint64
	// EdgeFootprint is the bytes of edge arrays scanned per phase.
	EdgeFootprint uint64
	// ScanPhase / GatherPhase are instruction counts per phase.
	ScanPhase   uint64
	GatherPhase uint64
	// MemRatio applies to scan phases; GatherMemRatio (defaulting to
	// MemRatio) applies to gather phases, whose random accesses are far
	// more expensive per access.
	MemRatio       float64
	GatherMemRatio float64
	Length         uint64
}

// Graph is a Ligra-like trace generator.
type Graph struct {
	cfg      GraphConfig
	label    string
	r        xrand.RNG
	inGather bool
	phasePos uint64
	scanPos  uint64
	count    uint64
}

// NewGraph constructs a graph-processing generator.
func NewGraph(label string, cfg GraphConfig) *Graph {
	if cfg.Vertices == 0 {
		cfg.Vertices = 4 << 20
	}
	if cfg.EdgeFootprint == 0 {
		cfg.EdgeFootprint = 64 << 20
	}
	if cfg.ScanPhase == 0 {
		cfg.ScanPhase = 200_000
	}
	if cfg.GatherPhase == 0 {
		cfg.GatherPhase = 200_000
	}
	if cfg.GatherMemRatio == 0 {
		cfg.GatherMemRatio = cfg.MemRatio
	}
	g := &Graph{cfg: cfg, label: label, r: xrand.New(cfg.Seed)}
	g.Reset()
	return g
}

// Reset implements Reader.
func (g *Graph) Reset() {
	g.r.Reset()
	g.inGather = false
	g.phasePos = 0
	g.scanPos = 0
	g.count = 0
}

// Name implements Reader.
func (g *Graph) Name() string { return g.label }

// Next implements Reader.
func (g *Graph) Next() (Instr, bool) {
	if g.count >= g.cfg.Length {
		return Instr{}, false
	}
	g.count++
	g.phasePos++
	if g.inGather {
		if g.phasePos >= g.cfg.GatherPhase {
			g.inGather, g.phasePos = false, 0
		}
	} else if g.phasePos >= g.cfg.ScanPhase {
		g.inGather, g.phasePos = true, 0
	}
	ratio := g.cfg.MemRatio
	if g.inGather {
		ratio = g.cfg.GatherMemRatio
	}
	if g.r.Float64() >= ratio {
		return Instr{PC: IdlePC, Kind: Other}, true
	}
	if g.inGather {
		// Neighbor gather: random vertex property access.
		v := g.r.Uint64() % g.cfg.Vertices
		addr := 0xC0000000 + v*16
		return Instr{PC: 0x5004, Addr: addr, Kind: Load}, true
	}
	// Frontier/edge scan: sequential.
	addr := 0xA0000000 + g.scanPos
	g.scanPos = (g.scanPos + 8) % g.cfg.EdgeFootprint
	return Instr{PC: 0x5000, Addr: addr, Kind: Load}, true
}

// ComputeConfig parameterizes a compute-bound generator (low MPKI; all
// memory accesses land in a small, cache-resident working set).
type ComputeConfig struct {
	Seed uint64
	// WorkingSet is the bytes of the resident footprint (should fit L2).
	WorkingSet uint64
	MemRatio   float64
	Length     uint64
}

// Compute is a compute-bound trace generator.
type Compute struct {
	cfg   ComputeConfig
	label string
	r     xrand.RNG
	count uint64
}

// NewCompute constructs a compute-bound generator.
func NewCompute(label string, cfg ComputeConfig) *Compute {
	if cfg.WorkingSet == 0 {
		cfg.WorkingSet = 256 << 10
	}
	c := &Compute{cfg: cfg, label: label, r: xrand.New(cfg.Seed)}
	c.Reset()
	return c
}

// Reset implements Reader.
func (c *Compute) Reset() { c.r.Reset(); c.count = 0 }

// Name implements Reader.
func (c *Compute) Name() string { return c.label }

// Next implements Reader.
func (c *Compute) Next() (Instr, bool) {
	if c.count >= c.cfg.Length {
		return Instr{}, false
	}
	c.count++
	if c.r.Float64() >= c.cfg.MemRatio {
		return Instr{PC: IdlePC, Kind: Other}, true
	}
	addr := 0xE0000000 + c.r.Uint64()%c.cfg.WorkingSet
	return Instr{PC: 0x6000, Addr: addr, Kind: Load}, true
}

// Mixed interleaves phases from several sub-generators (PARSEC-like
// programs with distinct program phases). Each phase runs PhaseLen
// instructions from one sub-generator before rotating.
type Mixed struct {
	label    string
	subs     []Reader
	phaseLen uint64
	length   uint64
	cur      int
	phasePos uint64
	count    uint64
}

// NewMixed constructs a phase-rotating generator over subs. Sub-readers
// should be effectively endless relative to phaseLen (they are looped).
func NewMixed(label string, phaseLen, length uint64, subs ...Reader) *Mixed {
	wrapped := make([]Reader, len(subs))
	for i, s := range subs {
		wrapped[i] = NewLooping(s)
	}
	return &Mixed{label: label, subs: wrapped, phaseLen: phaseLen, length: length}
}

// Reset implements Reader.
func (m *Mixed) Reset() {
	for _, s := range m.subs {
		s.Reset()
	}
	m.cur, m.phasePos, m.count = 0, 0, 0
}

// Name implements Reader.
func (m *Mixed) Name() string { return m.label }

// Next implements Reader.
func (m *Mixed) Next() (Instr, bool) {
	if m.count >= m.length {
		return Instr{}, false
	}
	m.count++
	if m.phasePos >= m.phaseLen {
		m.phasePos = 0
		m.cur = (m.cur + 1) % len(m.subs)
	}
	m.phasePos++
	ins, _ := m.subs[m.cur].Next()
	return ins, true
}
