package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSweepSpec feeds POST /v1/sweeps bodies — the one untrusted shape
// this package parses — through what admission does with them: Expand
// and ID never panic, give the same answer on a second decode of the
// same bytes and on a second call (normalization is idempotent), and
// never return more cells than the budget.
func FuzzSweepSpec(f *testing.F) {
	f.Add([]byte(`{"name":"a","grid":{"mixes":[["x","y"],["z"]],"controllers":["no","mumama"],"scales":["tiny",""],"seeds":[1,2],"dram":[{},{"mtps":2400,"channels":2}],"target":5}}`))
	f.Add([]byte(`{"cells":[{"mix":[" a "],"controller":" x","scale":"TINY","seed":18446744073709551615}],"timeout_ms":-1,"priority":99}`))
	f.Add([]byte(`{"grid":{"controllers":["x"]}}`))
	f.Add([]byte(`{"grid":{"mixes":[[]],"controllers":[""],"seeds":[0,0,0]},"cells":[{}]}`))
	f.Add([]byte(`{}`))
	// TestExpandErrors' two grids whose cell count wraps an int.
	for _, spec := range []Spec{axesSpec(13, 13, 13, 12, 12, 0), axesSpec(13, 13, 13, 13, 12, 1)} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	const budget = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		var a, b Spec
		if json.Unmarshal(body, &a) != nil || json.Unmarshal(body, &b) != nil {
			t.Skip("not a spec")
		}
		cellsA, errA := a.Expand(budget)
		cellsB, errB := b.Expand(budget)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(cellsA, cellsB) {
			t.Fatalf("two decodes of %s expand differently: %v / %v", body, errA, errB)
		}
		if errA == nil && (len(cellsA) == 0 || len(cellsA) > budget) {
			t.Fatalf("expanded %d cells under a budget of %d", len(cellsA), budget)
		}
		again, errAgain := a.Expand(budget)
		if (errAgain == nil) != (errA == nil) || !reflect.DeepEqual(again, cellsA) {
			t.Fatalf("second Expand of %s differs: %v / %v", body, errA, errAgain)
		}
		idA, errA := a.ID()
		idB, errB := b.ID()
		if errA != nil || errB != nil || idA != idB || len(idA) != 17 {
			t.Fatalf("IDs %q (%v) and %q (%v) of %s", idA, errA, idB, errB, body)
		}
	})
}
