// Package sweep is the server-side experiment-sweep orchestration
// subsystem behind mamaserved's /v1/sweeps API. A sweep spec — a grid
// and/or an explicit cell list over mix × controller × scale × seed ×
// DRAM — is expanded deterministically into content-addressed job
// cells, deduplicated against the server's result cache before
// anything is scheduled, and executed through the server's worker pool
// under a weighted-fair scheduler: interactive POST /v1/jobs traffic
// always runs first, and pending cells of concurrent sweeps are
// dispatched round-robin in proportion to their priorities, so one
// giant sweep can neither starve single jobs nor monopolize the pool
// against other sweeps.
//
// Completed cells append to a per-sweep event log that clients stream
// incrementally (NDJSON or SSE) with cursor-based resume. Sweep state
// persists through the same crash-safe layer as the result cache:
// a restarted server reloads incomplete sweeps, re-admits only the
// cells whose results are not already in the restored cache, and
// resumes — finished cells are never recomputed.
//
// The package is deliberately independent of internal/server: the
// execution backend is abstracted behind the Exec interface, which the
// server implements (cell resolution via its canonical job hash, cache
// lookups against its content-addressed result store).
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// DRAM selects a memory system for a grid axis: a DDR4 speed grade and
// channel count. The zero value means "the server's default DRAM".
type DRAM struct {
	MTps     int `json:"mtps,omitempty"`
	Channels int `json:"channels,omitempty"`
}

// Cell is one fully specified simulation: the unit of sweep expansion,
// content addressing, scheduling and result streaming, the body of the
// server's interactive job spec (which adds only a timeout), and what
// experiment.Resolve turns into a plan. The zero values of optional
// fields mean "use the scale's default".
type Cell struct {
	// Mix lists catalog trace names, one per core.
	Mix []string `json:"mix"`
	// Controller is a controller key: a registry name, optionally
	// followed by parameters, name[@param=value[@param=value…]]
	// ("mumama@jav=4@theta=0.5"). experiment.Resolve rewrites it to its
	// one canonical spelling, which is what the cell is hashed under.
	Controller string `json:"controller"`
	// Scale names the simulation budget (tiny|small|default|full);
	// empty means "default".
	Scale string `json:"scale,omitempty"`
	// Seed labels the mix and namespaces the cache key.
	Seed uint64 `json:"seed,omitempty"`
	// Target and Step override the scale's instruction goal / agent
	// timestep; 0 keeps the scale default.
	Target uint64 `json:"target,omitempty"`
	Step   uint64 `json:"step,omitempty"`
	// DRAMMTps and DRAMChannels override the memory system.
	DRAMMTps     int `json:"dram_mtps,omitempty"`
	DRAMChannels int `json:"dram_channels,omitempty"`
}

// Normalize canonicalizes the fields that admit aliases, so equivalent
// spellings are identical cells (and therefore identical content
// addresses). A cell already in canonical form is left as it is, at no
// allocation; a mix that needs trimming is rewritten into a fresh
// slice, never through the caller's.
func (c *Cell) Normalize() {
	for i, name := range c.Mix {
		if strings.TrimSpace(name) == name {
			continue
		}
		mix := make([]string, len(c.Mix))
		copy(mix, c.Mix[:i])
		for j := i; j < len(mix); j++ {
			mix[j] = strings.TrimSpace(c.Mix[j])
		}
		c.Mix = mix
		break
	}
	c.Controller = strings.TrimSpace(c.Controller)
	c.Scale = strings.ToLower(strings.TrimSpace(c.Scale))
	if c.Scale == "" {
		c.Scale = "default"
	}
}

// Grid is the cartesian-product form of a sweep: every combination of
// one entry per non-empty axis becomes a cell. Empty axes default to a
// single neutral entry (default scale, seed 0, server-default DRAM).
type Grid struct {
	// Mixes is the workload axis: each entry is one mix (a list of
	// catalog trace names, one per core). Mixes of different core
	// counts may coexist in one sweep.
	Mixes [][]string `json:"mixes,omitempty"`
	// Controllers is the controller-key axis.
	Controllers []string `json:"controllers,omitempty"`
	// Scales is the simulation-budget axis.
	Scales []string `json:"scales,omitempty"`
	// Seeds is the mix-label / cache-namespace axis.
	Seeds []uint64 `json:"seeds,omitempty"`
	// DRAM is the memory-system axis.
	DRAM []DRAM `json:"dram,omitempty"`
	// Target and Step apply to every expanded cell.
	Target uint64 `json:"target,omitempty"`
	Step   uint64 `json:"step,omitempty"`
}

// Spec is a sweep request: a grid and/or an explicit cell list, plus
// scheduling knobs. At least one of Grid/Cells must produce a cell.
type Spec struct {
	// Name labels the sweep and namespaces its identity: two specs that
	// differ only in Name are distinct sweeps.
	Name string `json:"name,omitempty"`
	// Priority weights this sweep in the fair scheduler (1..MaxPriority,
	// default 1): a priority-3 sweep receives three cell dispatches per
	// round for every one a priority-1 sweep receives. Priority does not
	// contribute to the sweep's identity, so resubmitting a running
	// sweep with a different priority attaches to the existing one.
	Priority int `json:"priority,omitempty"`
	// Grid expands to the cartesian product of its axes.
	Grid *Grid `json:"grid,omitempty"`
	// Cells are appended after the grid expansion, in order.
	Cells []Cell `json:"cells,omitempty"`
	// TimeoutMs bounds each cell's execution; 0 uses the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// normalize canonicalizes the spec in place (trimmed names, defaulted
// axes are NOT materialized here — layout applies defaults — but all
// string fields are brought to canonical form so hashing is stable).
func (s *Spec) normalize() {
	s.Name = strings.TrimSpace(s.Name)
	if s.Grid != nil {
		for i := range s.Grid.Mixes {
			for j := range s.Grid.Mixes[i] {
				s.Grid.Mixes[i][j] = strings.TrimSpace(s.Grid.Mixes[i][j])
			}
		}
		for i := range s.Grid.Controllers {
			s.Grid.Controllers[i] = strings.TrimSpace(s.Grid.Controllers[i])
		}
		for i := range s.Grid.Scales {
			s.Grid.Scales[i] = strings.ToLower(strings.TrimSpace(s.Grid.Scales[i]))
		}
	}
	for i := range s.Cells {
		s.Cells[i].Normalize()
	}
}

// layout is a spec's ordered cell list, unmaterialized: the grid's
// cartesian product first (nesting order mix → controller → scale →
// seed → DRAM, so the workload axis varies slowest), then the explicit
// cells. It holds the spec's own grid and slices — the optional axes
// after defaulting — and computes cell i from them, so a sweep of any
// size costs what its request body cost. The same spec always lays out
// the same cells in the same order.
type layout struct {
	g      *Grid // nil, or empty, when grid is 0
	scales []string
	seeds  []uint64
	drams  []DRAM
	grid   int    // cells the axes produce
	cells  []Cell // the explicit cells, normalized, after them
}

// An empty axis is one neutral entry. Read-only.
var (
	defaultScales = []string{"default"}
	defaultSeeds  = []uint64{0}
	defaultDRAMs  = []DRAM{{}}
)

// layout normalizes the spec and lays its cells out. maxCells bounds the
// count (0 means unlimited); exceeding it is an error, not a truncation.
func (s *Spec) layout(maxCells int) (layout, error) {
	s.normalize()
	l := layout{cells: s.Cells}
	if g := s.Grid; g != nil {
		if len(g.Mixes) == 0 && (len(g.Controllers) > 0 || len(g.Scales) > 0 ||
			len(g.Seeds) > 0 || len(g.DRAM) > 0) {
			return layout{}, fmt.Errorf("sweep grid has axes but no mixes")
		}
		if len(g.Controllers) == 0 && len(g.Mixes) > 0 {
			return layout{}, fmt.Errorf("sweep grid has mixes but no controllers")
		}
		l.g = g
		if l.scales = g.Scales; len(l.scales) == 0 {
			l.scales = defaultScales
		}
		if l.seeds = g.Seeds; len(l.seeds) == 0 {
			l.seeds = defaultSeeds
		}
		if l.drams = g.DRAM; len(l.drams) == 0 {
			l.drams = defaultDRAMs
		}
		// The product is taken axis by axis against the budget: an axis is
		// bounded by the request body and the running product by the
		// budget, so a hostile grid cannot wrap it into a count that passes.
		// "Unlimited" still has to fit a slice.
		budget := maxCells
		if budget <= 0 {
			budget = math.MaxInt32
		}
		axes := [...]int{len(g.Mixes), len(g.Controllers), len(l.scales), len(l.seeds), len(l.drams)}
		n := 1
		for i, axis := range axes {
			if n *= axis; n > budget && i < len(axes)-1 {
				return layout{}, fmt.Errorf("sweep expands to at least %d cells; server accepts at most %d", n, budget)
			}
		}
		if n+len(s.Cells) > budget {
			return layout{}, fmt.Errorf("sweep expands to %d cells; server accepts at most %d",
				n+len(s.Cells), budget)
		}
		l.grid = n
	}
	if l.len() == 0 {
		return layout{}, fmt.Errorf("sweep expands to zero cells (empty grid and no explicit cells)")
	}
	if maxCells > 0 && l.len() > maxCells {
		return layout{}, fmt.Errorf("sweep expands to %d cells; server accepts at most %d",
			l.len(), maxCells)
	}
	return l, nil
}

func (l *layout) len() int { return l.grid + len(l.cells) }

// at returns cell i, 0 <= i < len(). A grid cell shares its mix's slice
// with every other cell of that mix; normalize canonicalized the axes
// in place, so all that is left of Cell.Normalize is the empty scale.
func (l *layout) at(i int) Cell {
	if i >= l.grid {
		return l.cells[i-l.grid]
	}
	d := l.drams[i%len(l.drams)]
	i /= len(l.drams)
	seed := l.seeds[i%len(l.seeds)]
	i /= len(l.seeds)
	sc := l.scales[i%len(l.scales)]
	i /= len(l.scales)
	if sc == "" {
		sc = "default"
	}
	g := l.g
	return Cell{
		Mix: g.Mixes[i/len(g.Controllers)], Controller: g.Controllers[i%len(g.Controllers)],
		Scale: sc, Seed: seed, Target: g.Target, Step: g.Step,
		DRAMMTps: d.MTps, DRAMChannels: d.Channels,
	}
}

// Expand materializes the spec's ordered cell list (see layout).
func (s *Spec) Expand(maxCells int) ([]Cell, error) {
	l, err := s.layout(maxCells)
	if err != nil {
		return nil, err
	}
	out := make([]Cell, l.len())
	for i := range out {
		out[i] = l.at(i)
	}
	return out, nil
}

// ID derives the sweep's content address: the SHA-256 of the canonical
// JSON of everything that determines the cell set (name, grid, cells,
// per-cell timeout). Priority is excluded — it tunes scheduling, not
// content — so resubmitting the same sweep at a different priority
// attaches to the running sweep instead of forking a duplicate.
func (s *Spec) ID() (string, error) {
	s.normalize()
	canonical := struct {
		Name      string
		Grid      *Grid
		Cells     []Cell
		TimeoutMs int64
	}{s.Name, s.Grid, s.Cells, s.TimeoutMs}
	b, err := json.Marshal(canonical)
	if err != nil {
		return "", fmt.Errorf("canonical sweep encoding: %w", err)
	}
	h := sha256.Sum256(b)
	return "s" + hex.EncodeToString(h[:8]), nil
}

// CellStatus is a cell's lifecycle state.
type CellStatus string

const (
	// CellPending: admitted, waiting in the sweep's fair-share queue.
	CellPending CellStatus = "pending"
	// CellRunning: dispatched — simulating, or waiting on an identical job
	// that already is.
	CellRunning CellStatus = "running"
	// CellDone: simulation finished and the result is attached.
	CellDone CellStatus = "done"
	// CellFailed: simulation finished with a non-transient error.
	CellFailed CellStatus = "failed"
	// CellDeduped: completed without running — the result came from the
	// content-addressed cache, an identical cell in this or another
	// sweep, or an identical interactive job.
	CellDeduped CellStatus = "deduped"
)

// The manager keeps a cell's status as a one-byte code; statusNames is
// the CellStatus each stands for wherever a status leaves the manager:
// an Event, the persisted record.
const (
	codePending uint8 = iota
	codeRunning
	codeDone
	codeFailed
	codeDeduped
)

var statusNames = [...]CellStatus{
	codePending: CellPending, codeRunning: CellRunning,
	codeDone: CellDone, codeFailed: CellFailed, codeDeduped: CellDeduped,
}

// Event is one entry of a sweep's append-only result log: a cell
// reaching a terminal state. Seq is the event's position in the log
// (the stream cursor); Cell is the cell's index in the expansion, so
// clients can correlate events with the spec they submitted even when
// delivery order differs from expansion order. Delivery is
// at-least-once across server restarts: the log is rebuilt on resume,
// so a resumed cursor may re-deliver an event — dedupe by Cell.
type Event struct {
	Seq    int             `json:"seq"`
	Cell   int             `json:"cell"`
	Status CellStatus      `json:"status"`
	Key    string          `json:"key"`
	Spec   Cell            `json:"spec"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// View is the API representation of a sweep.
type View struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Status   string `json:"status"` // running | done
	Priority int    `json:"priority"`
	Cells    int    `json:"cells"`
	Pending  int    `json:"pending"` // this sweep's queue depth
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Deduped  int    `json:"deduped"`
	// Events is the current length of the result log (the cursor a
	// fresh stream would end at).
	Events     int        `json:"events"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}
