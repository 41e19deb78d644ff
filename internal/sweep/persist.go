package sweep

import (
	"time"

	"micromama/internal/faultinject"
)

// Fault-injection sites on the sweep store (see persist.Options): a lost
// header loses that sweep on restart, as a lost result write loses that
// result; a lost cell line resumes a deduped cell as done, or a failed
// one as pending; a failed read quarantines the line, and a header's
// cell lines with it.
var (
	faultSweepPersistWrite = faultinject.New("server/sweep/persist-write")
	faultSweepPersistRead  = faultinject.New("server/sweep/persist-read")
)

// record is one line of the sweep log, of one of three kinds. Cell
// results are NOT stored here — they live in the content-addressed
// result cache, which has its own log of the same kind; on resume a
// cell whose result the cache holds is finished, and read from there.
//
// A header, under the sweep's ID, is written when the sweep is admitted
// and again only when its priority changes: the normalized spec (whose
// deterministic expansion reproduces the cell list on load), the cells
// deduped so far and the cells failed so far, with their errors.
//
// A cell line, under "<id>/<cell>", is written once, when that cell is
// deduped at dispatch or fails. A cell that runs to its result writes
// nothing: the result cache says it is done.
//
// The log opens with the store's stamp, so only lines of this form and
// of this build's model epoch are ever decoded (persist.Store.Load).
type record struct {
	ID string `json:"id"`

	Spec      *Spec      `json:"spec,omitempty"`
	CreatedAt *time.Time `json:"created_at,omitempty"`
	Deduped   []byte     `json:"deduped,omitempty"` // bit i set: cell i deduped
	// Errors holds a failed cell's error under its index, "" if it had
	// none.
	Errors map[int]string `json:"errors,omitempty"`

	Cell  CellStatus `json:"cell,omitempty"` // CellDeduped or CellFailed
	Error string     `json:"error,omitempty"`
}
