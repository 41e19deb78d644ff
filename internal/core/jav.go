package core

import (
	"fmt"
	"math"
)

// JointAction is the vector of local arm ids, one per core.
type JointAction []uint8

// Clone returns a copy.
func (j JointAction) Clone() JointAction {
	out := make(JointAction, len(j))
	copy(out, j)
	return out
}

// Equal reports element-wise equality.
func (j JointAction) Equal(o JointAction) bool {
	if len(j) != len(o) {
		return false
	}
	for i := range j {
		if j[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the joint action compactly, e.g. "[3 0 16 10]".
func (j JointAction) String() string {
	s := "["
	for i, a := range j {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d", a)
	}
	return s + "]"
}

// javEntry is one JAV cache entry: the joint action (aField), its
// discounted play count (nField), and discounted reward sum (whose
// ratio is the rField of the paper's Figure 7).
type javEntry struct {
	action JointAction
	n      float64
	s      float64
	valid  bool
}

func (e *javEntry) mean() float64 {
	if e.n <= 0 {
		return 0
	}
	return e.s / e.n
}

// JAV is the Joint Action-Value cache (§4.2.2): a small fully
// associative structure mapping previously-played joint actions to
// discounted average system rewards. It supports the two operations of
// Figure 7 — select the highest-reward action and evict the lowest —
// plus discounted updates (γ = 0.999 in the paper's Table 1).
//
// Selection uses a lower-confidence bound, mean − lcb/√n, instead of
// the paper's raw argmax: at this repo's scaled-down timestep (fewer
// L2 accesses per interval than the paper's step = 800) single-sample
// reward estimates are noisy enough that a lucky measurement would
// otherwise capture the "best" slot. lcb = 0 recovers the paper's
// behaviour.
type JAV struct {
	entries []javEntry
	gamma   float64
	lcb     float64

	// Best-entry cache (§4.2.3's "maintain a copy of the best").
	bestIdx int

	Inserts   uint64
	Evictions uint64
	Rejects   uint64 // incoming actions worse than every resident entry
}

// NewJAV constructs a JAV cache with the given capacity and discount,
// selecting by raw rField (lcb = 0).
func NewJAV(size int, gamma float64) *JAV {
	return NewJAVLCB(size, gamma, 0)
}

// NewJAVLCB constructs a JAV cache whose selection penalizes
// low-confidence entries by lcb/√nField.
func NewJAVLCB(size int, gamma, lcb float64) *JAV {
	if size < 1 {
		panic(fmt.Sprintf("core: JAV size must be >= 1, got %d", size))
	}
	if gamma <= 0 || gamma > 1 {
		panic(fmt.Sprintf("core: JAV gamma must be in (0,1], got %g", gamma))
	}
	if lcb < 0 {
		panic(fmt.Sprintf("core: JAV lcb must be >= 0, got %g", lcb))
	}
	return &JAV{entries: make([]javEntry, size), gamma: gamma, lcb: lcb, bestIdx: -1}
}

// score is the selection value of an entry: its discounted mean minus
// the confidence penalty.
func (j *JAV) score(e *javEntry) float64 {
	if e.n <= 0 {
		return 0
	}
	return e.mean() - j.lcb/math.Sqrt(e.n)
}

// Len returns the number of resident entries.
func (j *JAV) Len() int {
	n := 0
	for i := range j.entries {
		if j.entries[i].valid {
			n++
		}
	}
	return n
}

// Cap returns the capacity.
func (j *JAV) Cap() int { return len(j.entries) }

// Best returns the joint action with the highest rField, or nil when
// the cache is empty. The slice is the entry's own: a later Update may
// overwrite it.
func (j *JAV) Best() JointAction {
	if j.bestIdx < 0 || !j.entries[j.bestIdx].valid {
		return nil
	}
	return j.entries[j.bestIdx].action
}

// BestReward returns the rField of the best entry (0 when empty).
func (j *JAV) BestReward() float64 {
	if j.bestIdx < 0 || !j.entries[j.bestIdx].valid {
		return 0
	}
	return j.entries[j.bestIdx].mean()
}

// Lookup returns the rField for action, if resident.
func (j *JAV) Lookup(action JointAction) (reward float64, ok bool) {
	for i := range j.entries {
		if j.entries[i].valid && j.entries[i].action.Equal(action) {
			return j.entries[i].mean(), true
		}
	}
	return 0, false
}

// Update records that action was played for one timestep and received
// the given system reward. All entries decay by gamma (time-varying
// environments); the played action's entry is inserted or refreshed.
// Insertion evicts the worst-performing entry, but only if the incoming
// reward beats it (§4.2.2: "does not evict any entry if the incoming
// action appears less rewarding than every currently-tracked action").
func (j *JAV) Update(action JointAction, reward float64) {
	for i := range j.entries {
		if j.entries[i].valid {
			j.entries[i].n *= j.gamma
			j.entries[i].s *= j.gamma
		}
	}

	idx := -1
	freeIdx, worstIdx := -1, -1
	worst := 0.0
	for i := range j.entries {
		e := &j.entries[i]
		if !e.valid {
			if freeIdx < 0 {
				freeIdx = i
			}
			continue
		}
		if e.action.Equal(action) {
			idx = i
		}
		if worstIdx < 0 || e.mean() < worst {
			worstIdx, worst = i, e.mean()
		}
	}

	switch {
	case idx >= 0:
		j.entries[idx].n++
		j.entries[idx].s += reward
	case freeIdx >= 0:
		j.insert(freeIdx, action, reward)
	case reward > worst:
		j.insert(worstIdx, action, reward)
		j.Evictions++
	default:
		j.Rejects++
	}

	j.refreshBest()
}

// insert makes entry i hold action with one observation of reward. It
// copies action into the entry's own buffer, which a slot keeps from
// one occupant to the next, so once every slot has held an action an
// insert allocates nothing.
func (j *JAV) insert(i int, action JointAction, reward float64) {
	e := &j.entries[i]
	*e = javEntry{action: append(e.action[:0], action...), n: 1, s: reward, valid: true}
	j.Inserts++
}

func (j *JAV) refreshBest() {
	j.bestIdx = -1
	best := 0.0
	for i := range j.entries {
		if !j.entries[i].valid {
			continue
		}
		if m := j.score(&j.entries[i]); j.bestIdx < 0 || m > best {
			j.bestIdx, best = i, m
		}
	}
}

// StorageBits returns the hardware cost of the cache in bits for a
// system with the given core count and local arm count: per entry, an
// aField of cores·ceil(log2(arms)) bits plus double-precision nField
// and rField (paper §4.4.1; 2 entries, 8 cores, 17 arms → 336 bits).
func (j *JAV) StorageBits(cores, arms int) int {
	armBits := 0
	for v := arms - 1; v > 0; v >>= 1 {
		armBits++
	}
	perEntry := cores*armBits + 64 + 64
	return len(j.entries) * perEntry
}

// Entries returns a snapshot of resident entries (action, discounted
// mean reward, discounted weight), for introspection and debugging.
func (j *JAV) Entries() []struct {
	Action JointAction
	Mean   float64
	Weight float64
} {
	var out []struct {
		Action JointAction
		Mean   float64
		Weight float64
	}
	for i := range j.entries {
		if !j.entries[i].valid {
			continue
		}
		out = append(out, struct {
			Action JointAction
			Mean   float64
			Weight float64
		}{j.entries[i].action.Clone(), j.entries[i].mean(), j.entries[i].n})
	}
	return out
}
