package sweep

import (
	"encoding/json"
	"fmt"
	"math"
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

// referenceExpand is the expansion Expand performed before cells were
// read off a layout: the five nested loops, kept as the referee for
// layout.at. It assumes a normalized spec (Expand normalizes in place,
// and normalizing is idempotent).
func referenceExpand(s *Spec, maxCells int) ([]Cell, error) {
	var out []Cell
	if s.Grid != nil {
		g := s.Grid
		if len(g.Mixes) == 0 && (len(g.Controllers) > 0 || len(g.Scales) > 0 ||
			len(g.Seeds) > 0 || len(g.DRAM) > 0) {
			return nil, fmt.Errorf("sweep grid has axes but no mixes")
		}
		controllers := g.Controllers
		if len(controllers) == 0 && len(g.Mixes) > 0 {
			return nil, fmt.Errorf("sweep grid has mixes but no controllers")
		}
		scales := g.Scales
		if len(scales) == 0 {
			scales = []string{"default"}
		}
		seeds := g.Seeds
		if len(seeds) == 0 {
			seeds = []uint64{0}
		}
		drams := g.DRAM
		if len(drams) == 0 {
			drams = []DRAM{{}}
		}
		budget := maxCells
		if budget <= 0 {
			budget = math.MaxInt32
		}
		axes := [...]int{len(g.Mixes), len(controllers), len(scales), len(seeds), len(drams)}
		n := 1
		for i, axis := range axes {
			if n *= axis; n > budget && i < len(axes)-1 {
				return nil, fmt.Errorf("sweep expands to at least %d cells; server accepts at most %d", n, budget)
			}
		}
		if n+len(s.Cells) > budget {
			return nil, fmt.Errorf("sweep expands to %d cells; server accepts at most %d",
				n+len(s.Cells), budget)
		}
		for _, mix := range g.Mixes {
			for _, ctrl := range controllers {
				for _, sc := range scales {
					if sc == "" {
						sc = "default"
					}
					for _, seed := range seeds {
						for _, d := range drams {
							out = append(out, Cell{
								Mix: mix, Controller: ctrl, Scale: sc, Seed: seed,
								Target: g.Target, Step: g.Step,
								DRAMMTps: d.MTps, DRAMChannels: d.Channels,
							})
						}
					}
				}
			}
		}
	}
	out = append(out, s.Cells...)
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep expands to zero cells (empty grid and no explicit cells)")
	}
	if maxCells > 0 && len(out) > maxCells {
		return nil, fmt.Errorf("sweep expands to %d cells; server accepts at most %d",
			len(out), maxCells)
	}
	return out, nil
}

// checkLayout holds one spec's layout to the referee under one budget:
// the same cells in the same order, or the same error text.
func checkLayout(t *testing.T, s *Spec, maxCells int) {
	t.Helper()
	l, err := s.layout(maxCells)
	want, wantErr := referenceExpand(s, maxCells)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("layout(%d) of %+v: error %v, referee %v", maxCells, s, err, wantErr)
	}
	if err != nil {
		return
	}
	if l.len() != len(want) {
		t.Fatalf("layout(%d) of %+v has %d cells, referee %d", maxCells, s, l.len(), len(want))
	}
	for i := range want {
		if got := l.at(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("layout(%d) of %+v: cell %d is %+v, referee %+v", maxCells, s, i, got, want[i])
		}
	}
}

// TestLayoutMatchesReference: cell i read off the axes is cell i of the
// nested loops, and every refusal reads the same, over the fuzz corpus
// and the shapes that exercise each branch.
func TestLayoutMatchesReference(t *testing.T) {
	specs := []Spec{
		{},
		{Grid: &Grid{}},
		{Grid: &Grid{}, Cells: []Cell{{Mix: []string{"a"}, Controller: "x"}}},
		{Grid: &Grid{Controllers: []string{"x"}}},
		{Grid: &Grid{Scales: []string{""}}},
		{Grid: &Grid{Mixes: [][]string{{"a"}}}},
		{Grid: &Grid{Mixes: [][]string{{"a"}, {"b", "c"}}, Controllers: []string{"x", "y", "z"}}},
		{Grid: &Grid{Mixes: [][]string{{"a"}}, Controllers: []string{"x"}, Scales: []string{"", "Tiny ", ""}, Target: 9, Step: 3}},
		{Cells: []Cell{{Mix: []string{" a "}, Controller: "x ", Scale: "TINY"}, {}}},
		gridSpec(),
		paddedSpec(),
		axesSpec(13, 13, 13, 12, 12, 0),
		axesSpec(13, 13, 13, 13, 12, 1),
		axesSpec(2, 2, 2, 2, 2, 3),
	}
	for _, body := range fuzzSpecCorpus {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for i := range specs {
		// 0 is unlimited; 15, 16 and 35 sit on either side of gridSpec's 16
		// cells and axesSpec(2,…)'s 32 + 3.
		for _, maxCells := range []int{0, 1, 2, 15, 16, 34, 35, 4096} {
			checkLayout(t, &specs[i], maxCells)
		}
	}
}

// TestNormalizeAllocatesOnlyOnChange: a cell in canonical form is left
// alone, slice and all; one that is not gets a fresh mix and the
// caller's slice keeps its spelling.
func TestNormalizeAllocatesOnlyOnChange(t *testing.T) {
	clean := Cell{Mix: []string{"a", "b"}, Controller: "x", Scale: "tiny"}
	mix := clean.Mix
	if allocs := testing.AllocsPerRun(100, clean.Normalize); allocs != 0 {
		t.Errorf("normalizing a clean cell allocates %v times", allocs)
	}
	if &clean.Mix[0] != &mix[0] || !reflect.DeepEqual(clean, Cell{Mix: []string{"a", "b"}, Controller: "x", Scale: "tiny"}) {
		t.Errorf("a clean cell came back as %+v", clean)
	}

	written := []string{"a", " b", "c\t"}
	c := Cell{Mix: written, Controller: " x ", Scale: " TINY"}
	c.Normalize()
	if want := (Cell{Mix: []string{"a", "b", "c"}, Controller: "x", Scale: "tiny"}); !reflect.DeepEqual(c, want) {
		t.Errorf("normalized to %+v, want %+v", c, want)
	}
	if &c.Mix[0] == &written[0] || !reflect.DeepEqual(written, []string{"a", " b", "c\t"}) {
		t.Errorf("normalized through the caller's slice: it now reads %q", written)
	}
}
