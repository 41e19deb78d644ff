package prefetch

// Selector multiplexes one L2 slot across a family of heterogeneous
// engines (off / stream / stride / Bingo / Pythia / SPP) so a
// controller can switch the *kind* of prefetcher per program phase, not
// just its aggressiveness. It is the engine side of the PhaseSelect
// controller (Alcorta et al., arXiv 2307.08635): every sub-engine keeps
// training on every demand access — exactly like the Ensemble's tables,
// which train even at degree 0 — but only the active engine's
// candidates are issued, so switching engines takes effect instantly
// with warm tables.
//
// The selector also serves as the controller's feature tap: it
// accumulates per-interval phase features (miss rate, stride
// regularity, page locality, issue/accuracy counts of the active
// engine) that the classifier reads and resets at each decision point.

// Selector engine indices, in the order NewSelector constructs them.
const (
	SelOff = iota
	SelStream
	SelStride
	SelBingo
	SelPythia
	SelSPP
	NumSelectorEngines
)

// SelectorEngineNames maps selector engine indices to short names.
var SelectorEngineNames = [NumSelectorEngines]string{
	"off", "stream", "stride", "bingo", "pythia", "spp",
}

// SelectorFeatures is one interval's accumulated phase features.
type SelectorFeatures struct {
	Accesses uint64 // L2 demand accesses observed
	Misses   uint64 // of which missed the L2
	// StrideHits counts accesses whose delta from the previous access
	// repeats the previous delta (global, not per-PC — a cheap
	// regularity signal, not a predictor).
	StrideHits uint64
	// SamePage counts accesses to the same 4 KiB page as the previous
	// access (spatial locality → Bingo's footprint regime).
	SamePage uint64
	// SmallDelta counts stride-repeat accesses whose delta is within
	// one page (dense streams → streamer regime; larger repeating
	// deltas favor the PC-local stride engine).
	SmallDelta uint64
	// Issued / Useful / Useless are the active engine's prefetch fate
	// counters for the interval.
	Issued  uint64
	Useful  uint64
	Useless uint64
}

// MissRate returns misses/accesses for the interval (0 if idle).
func (f SelectorFeatures) MissRate() float64 {
	if f.Accesses == 0 {
		return 0
	}
	return float64(f.Misses) / float64(f.Accesses)
}

// StrideRegularity returns the fraction of accesses continuing a
// repeated global delta.
func (f SelectorFeatures) StrideRegularity() float64 {
	if f.Accesses == 0 {
		return 0
	}
	return float64(f.StrideHits) / float64(f.Accesses)
}

// PageLocality returns the fraction of accesses staying on the previous
// access's page.
func (f SelectorFeatures) PageLocality() float64 {
	if f.Accesses == 0 {
		return 0
	}
	return float64(f.SamePage) / float64(f.Accesses)
}

// Accuracy returns useful/(useful+useless) for the active engine's
// resolved prefetches this interval, or -1 when nothing resolved (so
// callers can distinguish "no evidence" from "inaccurate").
func (f SelectorFeatures) Accuracy() float64 {
	resolved := f.Useful + f.Useless
	if resolved == 0 {
		return -1
	}
	return float64(f.Useful) / float64(resolved)
}

// Selector is the multiplexing engine. It is not safe for concurrent
// use; like every other engine it is owned by a single core.
type Selector struct {
	engines [NumSelectorEngines]Prefetcher
	active  int

	feat      SelectorFeatures
	lastAddr  uint64
	lastDelta int64
	havePrev  bool

	scratch []uint64
}

// NewSelector builds the engine family. seed feeds Pythia's RNG so runs
// stay deterministic per (controller seed, core).
func NewSelector(seed uint64) *Selector {
	s := &Selector{scratch: make([]uint64, 0, 64)}
	s.engines[SelOff] = None{}
	s.engines[SelStream] = NewStreamer("sel_stream", 64, 4)
	s.engines[SelStride] = NewStride("sel_stride", 256, 4)
	s.engines[SelBingo] = NewBingo()
	s.engines[SelPythia] = NewPythia(seed)
	s.engines[SelSPP] = NewSPP()
	return s
}

// Name implements Prefetcher.
func (s *Selector) Name() string { return "selector:" + SelectorEngineNames[s.active] }

// Active returns the index of the engine currently issuing prefetches.
func (s *Selector) Active() int { return s.active }

// SetActive switches which engine's candidates are issued. Tables of
// the other engines keep training, so this is cheap and instant.
func (s *Selector) SetActive(i int) {
	if i < 0 || i >= NumSelectorEngines {
		panic("prefetch: selector engine index out of range")
	}
	s.active = i
}

// OnAccess implements Prefetcher: trains every engine, issues only the
// active engine's candidates, and folds the access into the interval's
// phase features.
func (s *Selector) OnAccess(pc, addr uint64, hit bool, dst []uint64) []uint64 {
	s.feat.Accesses++
	if !hit {
		s.feat.Misses++
	}
	if s.havePrev {
		delta := int64(addr) - int64(s.lastAddr)
		if delta != 0 && delta == s.lastDelta {
			s.feat.StrideHits++
			if delta < PageBytes && delta > -PageBytes {
				s.feat.SmallDelta++
			}
		}
		if delta != 0 {
			s.lastDelta = delta
		}
		if addr/PageBytes == s.lastAddr/PageBytes {
			s.feat.SamePage++
		}
	}
	s.lastAddr, s.havePrev = addr, true

	n := len(dst)
	for i, e := range s.engines {
		if i == s.active {
			dst = e.OnAccess(pc, addr, hit, dst)
		} else {
			s.scratch = e.OnAccess(pc, addr, hit, s.scratch[:0])
		}
	}
	s.feat.Issued += uint64(len(dst) - n)
	return dst
}

// OnUseful implements Feedback: counts the outcome for the feature tap
// and forwards it to the active engine if it learns from feedback
// (Pythia). Outcomes of prefetches issued by a previously active engine
// are attributed to the current one — an acceptable smear given the
// classifier's hysteresis keeps switches rare relative to prefetch
// lifetimes.
func (s *Selector) OnUseful(addr uint64, late bool) {
	s.feat.Useful++
	if fb, ok := s.engines[s.active].(Feedback); ok {
		fb.OnUseful(addr, late)
	}
}

// OnUseless implements Feedback.
func (s *Selector) OnUseless(addr uint64) {
	s.feat.Useless++
	if fb, ok := s.engines[s.active].(Feedback); ok {
		fb.OnUseless(addr)
	}
}

// SetBandwidthUtil forwards the bus-utilization sample to every
// sub-engine that throttles on it (Pythia), active or not, so a
// newly-activated engine starts with a current view.
func (s *Selector) SetBandwidthUtil(u float64) {
	for _, e := range s.engines {
		if ba, ok := e.(interface{ SetBandwidthUtil(float64) }); ok {
			ba.SetBandwidthUtil(u)
		}
	}
}

// TakeFeatures returns the features accumulated since the last call and
// resets the interval counters (the global delta/page trackers persist
// across intervals).
func (s *Selector) TakeFeatures() SelectorFeatures {
	f := s.feat
	s.feat = SelectorFeatures{}
	return f
}
