package sweep

import (
	"reflect"
	"testing"
)

func gridSpec() Spec {
	return Spec{
		Name: "t",
		Grid: &Grid{
			Mixes:       [][]string{{"a", "b"}, {"c", "d"}},
			Controllers: []string{"mumama", "bandit"},
			Scales:      []string{"tiny"},
			Seeds:       []uint64{0, 1},
			DRAM:        []DRAM{{}, {MTps: 2400, Channels: 2}},
		},
	}
}

// TestExpandDeterministic pins the expansion contract: the same spec
// always yields the same cells in the same order, which is what makes
// cell indices stable across resubmission and restart.
func TestExpandDeterministic(t *testing.T) {
	s1, s2 := gridSpec(), gridSpec()
	c1, err := s1.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("two expansions of the same spec differ")
	}
	if len(c1) != 2*2*1*2*2 {
		t.Fatalf("expanded %d cells, want 16", len(c1))
	}
}

// TestExpandOrder pins the nesting order (mix slowest, DRAM fastest)
// and the axis defaults.
func TestExpandOrder(t *testing.T) {
	s := Spec{Grid: &Grid{
		Mixes:       [][]string{{"a"}, {"b"}},
		Controllers: []string{"x", "y"},
	}}
	cells, err := s.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Cell{
		{Mix: []string{"a"}, Controller: "x", Scale: "default"},
		{Mix: []string{"a"}, Controller: "y", Scale: "default"},
		{Mix: []string{"b"}, Controller: "x", Scale: "default"},
		{Mix: []string{"b"}, Controller: "y", Scale: "default"},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("expansion order:\n got %+v\nwant %+v", cells, want)
	}
}

// TestExpandExplicitCellsAppend checks explicit cells follow the grid
// in submission order and are normalized.
func TestExpandExplicitCellsAppend(t *testing.T) {
	s := Spec{
		Grid:  &Grid{Mixes: [][]string{{"a"}}, Controllers: []string{"x"}},
		Cells: []Cell{{Mix: []string{" b "}, Controller: "y ", Scale: "TINY"}},
	}
	cells, err := s.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("expanded %d cells, want 2", len(cells))
	}
	last := cells[1]
	if last.Mix[0] != "b" || last.Controller != "y" || last.Scale != "tiny" {
		t.Fatalf("explicit cell not normalized: %+v", last)
	}
}

// axesSpec is a grid whose five axes hold 2^mixes, 2^controllers, …
// empty elements — a ~100 KB request body — plus cells explicit cells.
func axesSpec(mixes, controllers, scales, seeds, drams, cells int) Spec {
	return Spec{
		Grid: &Grid{
			Mixes:       make([][]string, 1<<mixes),
			Controllers: make([]string, 1<<controllers),
			Scales:      make([]string, 1<<scales),
			Seeds:       make([]uint64, 1<<seeds),
			DRAM:        make([]DRAM, 1<<drams),
		},
		Cells: make([]Cell, cells),
	}
}

// TestExpandErrors covers the rejection paths: empty specs, axes
// without mixes, mixes without controllers, and the cell budget —
// which must error, never truncate.
func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		max  int
	}{
		{"empty", Spec{}, 0},
		{"axes without mixes", Spec{Grid: &Grid{Controllers: []string{"x"}}}, 0},
		{"mixes without controllers", Spec{Grid: &Grid{Mixes: [][]string{{"a"}}}}, 0},
		{"over budget", gridSpec(), 15},
		{"explicit cells over budget", Spec{Cells: []Cell{
			{Mix: []string{"a"}, Controller: "x"},
			{Mix: []string{"b"}, Controller: "x"},
		}}, 1},
		// Five axes whose product does not fit an int: 2^63 reads negative
		// (make would panic), 2^64 reads 0 and with one explicit cell 1,
		// inside any budget (the loops would append until memory ran out).
		{"product wraps negative", axesSpec(13, 13, 13, 12, 12, 0), 4096},
		{"product wraps negative, unlimited", axesSpec(13, 13, 13, 12, 12, 0), 0},
		{"product wraps to one", axesSpec(13, 13, 13, 13, 12, 1), 4096},
		{"product wraps to one, unlimited", axesSpec(13, 13, 13, 13, 12, 1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Expand(tc.max); err == nil {
				t.Errorf("Expand(%d) accepted the spec", tc.max)
			}
		})
	}
}

// TestSpecID pins identity semantics: stable across calls, sensitive
// to the cell set and name, and insensitive to priority (so a
// resubmission at a different priority attaches to the running sweep).
func TestSpecID(t *testing.T) {
	a, b := gridSpec(), gridSpec()
	ida, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	idb, _ := b.ID()
	if ida != idb {
		t.Fatalf("same spec hashed differently: %s vs %s", ida, idb)
	}

	b.Priority = 5
	if idb, _ = b.ID(); idb != ida {
		t.Errorf("priority changed the sweep ID: %s vs %s", idb, ida)
	}

	b.Name = "other"
	if idb, _ = b.ID(); idb == ida {
		t.Error("different name did not change the sweep ID")
	}

	c := gridSpec()
	c.Grid.Seeds = []uint64{0}
	if idc, _ := c.ID(); idc == ida {
		t.Error("different cell set did not change the sweep ID")
	}

	// Normalization folds into identity: spacing and case differences
	// that expand to the same cells hash the same.
	d := gridSpec()
	d.Grid.Controllers = []string{" mumama ", "bandit"}
	d.Grid.Scales = []string{"TINY"}
	if idd, _ := d.ID(); idd != ida {
		t.Errorf("equivalent spelling hashed differently: %s vs %s", idd, ida)
	}
}

// paddedSpec spells a spec the way a hand-written request might:
// stray whitespace, mixed case, empty scales.
func paddedSpec() Spec {
	return Spec{
		Name: "  pad ",
		Grid: &Grid{
			Mixes:       [][]string{{" a", "b "}, {"\tc"}},
			Controllers: []string{" MuMama ", "bandit"},
			Scales:      []string{" TINY", "", "  "},
			Seeds:       []uint64{0, 1},
			DRAM:        []DRAM{{}, {MTps: 2400, Channels: 2}},
			Target:      5,
			Step:        6,
		},
		Cells: []Cell{
			{Mix: []string{" d "}, Controller: " x", Scale: " Small "},
			{Mix: []string{"e"}, Controller: "y"},
		},
	}
}

// TestExpandNormalizesWithoutCopying: grid cells share the grid's
// (already normalized) mix slices instead of copying one per cell, and
// that changes nothing a client can see — the padded spec expands to
// the cells of its clean spelling and keeps the ID it had when every
// cell was normalized on its own (the literal was computed there).
func TestExpandNormalizesWithoutCopying(t *testing.T) {
	padded := paddedSpec()
	got, err := padded.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	clean := Spec{
		Name: "pad",
		Grid: &Grid{
			Mixes:       [][]string{{"a", "b"}, {"c"}},
			Controllers: []string{"MuMama", "bandit"},
			Scales:      []string{"tiny", "default", "default"},
			Seeds:       []uint64{0, 1},
			DRAM:        []DRAM{{}, {MTps: 2400, Channels: 2}},
			Target:      5,
			Step:        6,
		},
		Cells: []Cell{
			{Mix: []string{"d"}, Controller: "x", Scale: "small"},
			{Mix: []string{"e"}, Controller: "y", Scale: "default"},
		},
	}
	want, err := clean.Expand(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*2*3*2*2+2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("padded spec expands to\n%+v\nwant the clean spelling's\n%+v", got, want)
	}
	id, err := padded.ID()
	if err != nil {
		t.Fatal(err)
	}
	const wantID = "sbd5c5249f048cf6d"
	if id != wantID {
		t.Errorf("padded spec ID = %s, want %s (persisted sweeps would be orphaned)", id, wantID)
	}

	// The point of sharing: a grid's expansion allocates the cell slice,
	// not a mix per cell.
	big := Spec{Grid: &Grid{Mixes: [][]string{{"a"}, {"b"}}, Controllers: []string{"x", "y"}, Seeds: make([]uint64, 128)}}
	if allocs := testing.AllocsPerRun(10, func() {
		if cells, err := big.Expand(0); err != nil || len(cells) != 512 {
			t.Fatalf("expanded %d cells, err %v", len(cells), err)
		}
	}); allocs > 8 {
		t.Errorf("expanding a 512-cell grid allocates %v times, want a handful", allocs)
	}
}
