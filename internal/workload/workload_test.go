package workload

import (
	"math"
	"strings"
	"testing"

	"micromama/internal/trace"
)

// TestCatalogClassMatchesName: a trace is listed under the suite its
// name is prefixed with (mamasim -list and /v1/catalog print the class).
func TestCatalogClassMatchesName(t *testing.T) {
	for _, s := range Catalog() {
		if !strings.HasPrefix(s.Name, string(s.Class)+".") {
			t.Errorf("trace %q has class %q", s.Name, s.Class)
		}
	}
}

func TestCatalogIntegrity(t *testing.T) {
	cat := Catalog()
	if len(cat) < 20 {
		t.Fatalf("catalog has only %d entries", len(cat))
	}
	seen := map[string]bool{}
	classes := map[Class]int{}
	for _, s := range cat {
		if seen[s.Name] {
			t.Errorf("duplicate trace name %q", s.Name)
		}
		seen[s.Name] = true
		classes[s.Class]++
		r := s.New()
		if r.Name() != s.Name {
			t.Errorf("spec %q produces reader named %q", s.Name, r.Name())
		}
		if _, ok := r.Next(); !ok {
			t.Errorf("trace %q is empty", s.Name)
		}
	}
	for _, c := range []Class{ClassLigra, ClassSPEC06, ClassSPEC17, ClassPARSEC} {
		if classes[c] == 0 {
			t.Errorf("no traces of class %s", c)
		}
	}
	// Ligra should dominate the sensitive set, mirroring the paper's 50%.
	var ligra, sensitive int
	for _, s := range Sensitive() {
		sensitive++
		if s.Class == ClassLigra {
			ligra++
		}
	}
	if ligra*100/sensitive < 30 {
		t.Errorf("ligra share = %d/%d, want the dominant class", ligra, sensitive)
	}
}

// Every non-memory instruction a catalog trace emits is the idle
// instruction, the one a packed record's run repeats: an Other at any
// other PC, address or flags takes a record of its own, and a generator
// that emitted one would silently double the trace pool.
func TestCatalogOthersAreIdle(t *testing.T) {
	for _, s := range Catalog() {
		r := s.New()
		for i := 0; i < 200_000; i++ {
			ins, ok := r.Next()
			if !ok {
				break
			}
			if ins.Kind == trace.Other && ins != (trace.Instr{PC: trace.IdlePC, Kind: trace.Other}) {
				t.Errorf("%s: instruction %d is %+v, a non-memory instruction that is not idle", s.Name, i, ins)
				break
			}
		}
	}
}

// Every instruction a catalog trace emits fits a packed record and
// comes back from one unchanged: the simulator reads every trace as
// trace.Rec records, and packing an instruction that does not fit
// panics. A PC fits by its type; an address must be below 2^32. The
// catalog holds the sensitive, the insensitive and the Mixed traces.
func TestCatalogFitsRec(t *testing.T) {
	const n = 200_000
	for _, s := range Catalog() {
		r := s.New()
		want := make([]trace.Instr, 0, n)
		for len(want) < n {
			ins, ok := r.Next()
			if !ok {
				break
			}
			if ins.Addr > math.MaxUint32 {
				t.Fatalf("%s: instruction %d is %+v, whose address a record cannot hold", s.Name, len(want), ins)
			}
			want = append(want, ins)
		}
		// Packed packs what it cannot read packed; hiding the Slice's own
		// one-record-per-instruction NextPacked makes it run-length pack.
		replay := trace.Packed(struct{ trace.Reader }{trace.NewSlice(s.Name, want)})
		for i, ins := range want {
			if got, _ := replay.Next(); got != ins {
				t.Errorf("%s: instruction %d is %+v, packed and read back as %+v", s.Name, i, ins, got)
				break
			}
		}
	}
}

func TestSensitiveInsensitivePartition(t *testing.T) {
	total := len(Catalog())
	if len(Sensitive())+len(Insensitive()) != total {
		t.Error("sensitive/insensitive do not partition the catalog")
	}
	for _, s := range Insensitive() {
		if s.Sensitive {
			t.Errorf("%q in Insensitive but marked sensitive", s.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("spec06.libquantum"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope.nothing"); err == nil {
		t.Error("unknown name resolved")
	}
}

func TestSpecNewIsFresh(t *testing.T) {
	sp, _ := ByName("spec06.libquantum")
	a, b := sp.New(), sp.New()
	ia, _ := a.Next()
	// advance a; b must be unaffected
	for i := 0; i < 100; i++ {
		a.Next()
	}
	ib, _ := b.Next()
	if ia != ib {
		t.Error("two instances of the same spec diverge from the start")
	}
}

func TestMixesDeterministicAndSized(t *testing.T) {
	a := Mixes(4, 10, 42)
	b := Mixes(4, 10, 42)
	if len(a) != 10 {
		t.Fatalf("got %d mixes", len(a))
	}
	for i := range a {
		if len(a[i].Specs) != 4 {
			t.Fatalf("mix %d has %d cores", i, len(a[i].Specs))
		}
		if a[i].Name() != b[i].Name() {
			t.Fatal("mix sampling nondeterministic")
		}
		for _, sp := range a[i].Specs {
			if !sp.Sensitive {
				t.Errorf("mix %d contains insensitive trace %q", i, sp.Name)
			}
		}
	}
	c := Mixes(4, 10, 43)
	diff := false
	for i := range a {
		if a[i].Name() != c[i].Name() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical mixes")
	}
}

func TestMixTraces(t *testing.T) {
	m := Mixes(2, 1, 7)[0]
	tr := m.Traces()
	if len(tr) != 2 {
		t.Fatalf("Traces() len %d", len(tr))
	}
	var _ trace.Reader = tr[0]
	if tr[0].Name() != m.Specs[0].Name {
		t.Error("trace order does not match specs")
	}
}
