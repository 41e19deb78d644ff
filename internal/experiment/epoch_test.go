package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"micromama/internal/sweep"
)

// modelDigests pins, per ModelEpoch, the digest of the canary cells'
// results. A change that moves the digest is a model change: it bumps
// ModelEpoch and adds the new digest under the new epoch, keeping the
// old entries.
var modelDigests = map[int]string{
	0: "8c40e72e7745b859586ebd2064427e2e360a7a0fc6e93bc311f19ee030a1417d",
}

// canaryDigest runs four tiny cells at 50 000 instructions per core —
// one-core no and bandit, four-core mumama and pythia — and hashes
// their results with SimMs, the wall clock, zeroed. The cells read the
// catalog's traces, so a generator parameter that moves a result moves
// the digest too.
func canaryDigest(t *testing.T) string {
	t.Helper()
	one, four := ScaleTiny.MixesFor(1)[0], ScaleTiny.MixesFor(4)[0]
	res, err := NewRunner(ScaleTiny).RunCells(context.Background(), []sweep.Cell{
		CellFor(one, "no", "tiny", 50_000, 0),
		CellFor(one, "bandit", "tiny", 50_000, 0),
		CellFor(four, "mumama", "tiny", 50_000, 0),
		CellFor(four, "pythia", "tiny", 50_000, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		res[i].SimMs = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestModelEpochCanary: results move only with the model epoch, and the
// epoch moves only with results. A digest other than the one pinned for
// ModelEpoch means the model changed under unchanged job keys, and a
// cache would serve the old model's results as the new one's; a digest
// pinned for another epoch means the epoch was bumped, retiring every
// cached result, for a change that moves none.
func TestModelEpochCanary(t *testing.T) {
	got := canaryDigest(t)
	want, ok := modelDigests[ModelEpoch]
	if !ok {
		t.Fatalf("ModelEpoch %d pins no digest; its canary cells digest to %s", ModelEpoch, got)
	}
	if got != want {
		t.Errorf("canary cells digest to %s, ModelEpoch %d pins %s: a change that moves results bumps ModelEpoch", got, ModelEpoch, want)
	}
	for epoch, d := range modelDigests {
		if epoch != ModelEpoch && d == got {
			t.Errorf("ModelEpoch %d gives epoch %d's results (%s): bump the epoch only for a change that moves them", ModelEpoch, epoch, got)
		}
	}
}
