package sweep

import (
	"time"

	"micromama/internal/faultinject"
)

// Fault-injection sites on the sweep store (see persist.Options): a
// lost write means a crash before the next successful one replays more
// cells; a failed read quarantines that sweep's file.
var (
	faultSweepPersistWrite = faultinject.New("server/sweep/persist-write")
	faultSweepPersistRead  = faultinject.New("server/sweep/persist-read")
)

// record is the on-disk form of one sweep: the normalized spec (whose
// deterministic expansion reproduces the cell list on load), per-cell
// terminal statuses, and per-cell error messages. Cell results are NOT
// stored here — they live in the content-addressed result cache, which
// has its own mirror in the same kind of store; on resume the manager
// rehydrates events by looking finished cells up by key.
type record struct {
	ID        string         `json:"id"`
	Spec      Spec           `json:"spec"`
	Status    []CellStatus   `json:"status"`
	Errors    map[int]string `json:"errors,omitempty"`
	CreatedAt time.Time      `json:"created_at"`
}
