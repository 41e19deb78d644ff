package prefetch

import "micromama/internal/xrand"

// Pythia (Bera et al., MICRO'21) reimplemented as a tabular RL offset
// prefetcher. The original learns, per program-context state, which
// prefetch offset (including "don't prefetch") maximizes a reward that
// prizes accurate-and-timely prefetches and penalizes inaccurate ones —
// more harshly when memory bandwidth is loaded. We keep that structure:
//
//   - State: two feature-hashed "vaults" (PC⊕last-delta, and the packed
//     sequence of recent deltas); Q(s,a) is the sum of both vaults.
//   - Actions: a set of line offsets plus no-prefetch.
//   - Rewards: +20 accurate&timely, +12 accurate-late, -14/-8 inaccurate
//     (high/low bandwidth utilization), -2/-4 for no-prefetch.
//   - Credit assignment through an evaluation queue (EQ): issued
//     prefetches wait there until a demand hit proves them accurate or
//     eviction/overflow proves them useless.
//
// The point of Pythia as a baseline in the paper is its *system-level
// shape*: bandwidth-aware moderation that does not blow up with core
// count (Figure 3). The bandwidth-scaled penalties reproduce that.

// pythiaActions are prefetch offsets in lines (0 = no prefetch).
var pythiaActions = []int64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, -1, -2, -4}

const (
	pythiaVaultBits = 12
	pythiaVaultSize = 1 << pythiaVaultBits
	pythiaEQDepth   = 128
	pythiaAlpha     = 0.0065 * 8 // scaled up: tabular vaults see fewer updates than Pythia's
	pythiaGamma     = 0.55
	pythiaEpsilon   = 0.005

	rewardAccurateTimely = 20.0
	rewardAccurateLate   = 12.0
	rewardInaccurateHiBW = -14.0
	rewardInaccurateLoBW = -8.0
	rewardNoPrefetchHiBW = -2.0
	rewardNoPrefetchLoBW = -4.0
)

type pythiaEQEntry struct {
	line     uint64 // 0 for no-prefetch entries
	h1, h2   uint32
	action   int
	hasNext  bool
	nh1, nh2 uint32
	done     bool
}

// Pythia is the RL offset prefetcher.
type Pythia struct {
	q1, q2 []float32 // vaults: Q of (state hash h, action a) at h*len(pythiaActions)+a
	eq     []pythiaEQEntry
	eqHead int
	eqLen  int
	rng    xrand.RNG

	lastAddr  uint64
	deltaHist uint64 // packed recent line deltas
	bwUtil    float64
	haveLast  bool

	// Stats
	Issued  uint64
	Useful  uint64
	Useless uint64
}

// NewPythia constructs a Pythia prefetcher. seed drives its ε-greedy
// exploration deterministically.
func NewPythia(seed uint64) *Pythia {
	return &Pythia{
		rng: xrand.New(seed),
		q1:  make([]float32, pythiaVaultSize*len(pythiaActions)),
		q2:  make([]float32, pythiaVaultSize*len(pythiaActions)),
		eq:  make([]pythiaEQEntry, pythiaEQDepth),
	}
}

// qIdx is the vault index of (state hash h, action a).
func qIdx(h uint32, a int) int { return int(h)*len(pythiaActions) + a }

// Name implements Prefetcher.
func (p *Pythia) Name() string { return "pythia" }

// SetBandwidthUtil updates Pythia's view of memory-bus utilization in
// [0,1]; the simulator calls this periodically so the reward scheme can
// scale its penalties, as in the original design.
func (p *Pythia) SetBandwidthUtil(u float64) { p.bwUtil = u }

// clampDelta bounds a line delta to a small signed range, as Pythia's
// program features do; without clamping, irregular traffic would spread
// over so many states that the Q-vaults could never accumulate evidence.
func clampDelta(d int64) int64 {
	if d > 31 {
		return 31
	}
	if d < -32 {
		return -32
	}
	return d
}

func (p *Pythia) features(pc, addr uint64) (uint32, uint32) {
	line := addr / LineBytes
	var delta int64
	if p.haveLast {
		delta = clampDelta(int64(line) - int64(p.lastAddr/LineBytes))
	}
	h1 := uint32(mix64(pc^uint64(delta)<<17)) & (pythiaVaultSize - 1)
	h2 := uint32(mix64(p.deltaHist^(addr%PageBytes)/LineBytes<<40)) & (pythiaVaultSize - 1)
	return h1, h2
}

func (p *Pythia) qVal(h1, h2 uint32, a int) float64 {
	return float64(p.q1[qIdx(h1, a)]) + float64(p.q2[qIdx(h2, a)])
}

func (p *Pythia) maxQ(h1, h2 uint32) float64 {
	best := p.qVal(h1, h2, 0)
	for a := 1; a < len(pythiaActions); a++ {
		if v := p.qVal(h1, h2, a); v > best {
			best = v
		}
	}
	return best
}

func (p *Pythia) update(e *pythiaEQEntry, reward float64) {
	if e.done {
		return
	}
	e.done = true
	target := reward
	if e.hasNext {
		target += pythiaGamma * p.maxQ(e.nh1, e.nh2)
	}
	td := target - p.qVal(e.h1, e.h2, e.action)
	p.q1[qIdx(e.h1, e.action)] += float32(pythiaAlpha * td / 2)
	p.q2[qIdx(e.h2, e.action)] += float32(pythiaAlpha * td / 2)
}

func (p *Pythia) inaccurateReward() float64 {
	if p.bwUtil > 0.5 {
		return rewardInaccurateHiBW
	}
	return rewardInaccurateLoBW
}

func (p *Pythia) noPrefetchReward() float64 {
	if p.bwUtil > 0.5 {
		return rewardNoPrefetchHiBW
	}
	return rewardNoPrefetchLoBW
}

// OnAccess implements Prefetcher.
func (p *Pythia) OnAccess(pc, addr uint64, hit bool, dst []uint64) []uint64 {
	h1, h2 := p.features(pc, addr)

	// Give the previous EQ entry its successor state (for bootstrapping)
	// and settle any pending no-prefetch entry.
	if p.eqLen > 0 {
		lastIdx := (p.eqHead + p.eqLen - 1) % pythiaEQDepth
		last := &p.eq[lastIdx]
		if !last.hasNext {
			last.hasNext, last.nh1, last.nh2 = true, h1, h2
			if last.action == 0 {
				p.update(last, p.noPrefetchReward())
			}
		}
	}

	// ε-greedy action selection.
	var action int
	if p.rng.Float64() < pythiaEpsilon {
		action = p.rng.Intn(len(pythiaActions))
	} else {
		best := p.qVal(h1, h2, 0)
		for a := 1; a < len(pythiaActions); a++ {
			if v := p.qVal(h1, h2, a); v > best {
				best, action = v, a
			}
		}
	}

	// Track (clamped) delta history.
	line := addr / LineBytes
	if p.haveLast {
		delta := clampDelta(int64(line) - int64(p.lastAddr/LineBytes))
		p.deltaHist = (p.deltaHist<<6 | uint64(delta&0x3F)) & 0xFFFFFF
	}
	p.lastAddr = addr
	p.haveLast = true

	// Enqueue, evicting (and penalizing) the oldest if full.
	if p.eqLen == pythiaEQDepth {
		old := &p.eq[p.eqHead]
		if !old.done && old.action != 0 {
			p.update(old, p.inaccurateReward())
		}
		p.eqHead = (p.eqHead + 1) % pythiaEQDepth
		p.eqLen--
	}
	idx := (p.eqHead + p.eqLen) % pythiaEQDepth
	entry := pythiaEQEntry{h1: h1, h2: h2, action: action}
	off := pythiaActions[action]
	if off != 0 {
		target := int64(lineAlign(addr)) + off*LineBytes
		if target > 0 {
			entry.line = uint64(target)
			dst = append(dst, uint64(target))
			p.Issued++
		}
	}
	p.eq[idx] = entry
	p.eqLen++
	return dst
}

// OnUseful implements Feedback: a demand hit on one of our prefetched
// lines.
func (p *Pythia) OnUseful(addr uint64, late bool) {
	la := lineAlign(addr)
	for i := 0; i < p.eqLen; i++ {
		e := &p.eq[(p.eqHead+i)%pythiaEQDepth]
		if e.line == la && !e.done {
			p.Useful++
			if late {
				p.update(e, rewardAccurateLate)
			} else {
				p.update(e, rewardAccurateTimely)
			}
			return
		}
	}
}

// OnUseless implements Feedback: one of our prefetched lines was
// evicted untouched.
func (p *Pythia) OnUseless(addr uint64) {
	la := lineAlign(addr)
	for i := 0; i < p.eqLen; i++ {
		e := &p.eq[(p.eqHead+i)%pythiaEQDepth]
		if e.line == la && !e.done {
			p.Useless++
			p.update(e, p.inaccurateReward())
			return
		}
	}
}
