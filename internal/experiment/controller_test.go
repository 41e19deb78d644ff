package experiment

import (
	"maps"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"micromama/internal/core"
)

// TestControllerKeys: one key, one spelling; and every refusal names
// what would have been accepted.
func TestControllerKeys(t *testing.T) {
	for key, want := range map[string]string{
		" mumama\t":                       "mumama",
		"mumama@jav=04":                   "mumama@jav=4",
		"mumama@jav=2":                    "mumama",
		"mumama@tarbit=5@kstep=5@lcb=.20": "mumama",
		"mumama@lcb=.5@jav=4":             "mumama@jav=4@lcb=0.5",
		"mumama@jav=04@lcb=0.50":          "mumama@jav=4@lcb=0.5",
		"mumama@lcb=-0":                   "mumama@lcb=0",
		"mumama@theta=0.650":              "mumama@theta=0.65",
		"mumama-fair@theta=1e-1@kstep=20": "mumama-fair@kstep=20@theta=0.1",
	} {
		if got, err := parseController(key); err != nil || got.canonical != want {
			t.Errorf("%q: canonical %q, %v; want %q", key, got.canonical, err, want)
		}
	}
	for key, want := range map[string]string{
		"mumamma@jav=4":      `unknown controller "mumamma" (known: no, ip_stride,`,
		"mumama@jav=0":       `"0" is not a value for jav: an integer in 1..64, default 2`,
		"mumama@jav=4.5":     `"4.5" is not a value for jav`,
		"mumama@lcb=NaN":     `lcb: a number in 0..10, default 0.2`,
		"mumama@theta=0":     `theta: a number in 0.01..1, default 1-1.4/cores`,
		"mumama@javv=4":      `unknown parameter "javv" (mumama accepts: jav, kstep, lcb, tarbit, theta)`,
		"mumama@jav=4@jav=8": `parameter "jav" given twice`,
		"mumama@":            `unknown parameter ""`,
		"mumama@jav":         `"" is not a value for jav`,
		"mumama @jav=4":      `unknown controller "mumama "`,
		"bandit@jav=4":       `bandit takes no parameters`,
		"mumama-l1l2@jav=4":  `mumama-l1l2 takes no parameters`,
		"mumama@jav=" + strings.Repeat("0", MaxControllerKey) + "4": `at most 128`,
	} {
		if err := CheckController(key); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: %v; want an error holding %q", key, err, want)
		}
	}
	// sweep_warm resolves 512 plain keys per operation.
	if n := testing.AllocsPerRun(100, func() { _, _ = parseController("mumama-grw-only") }); n != 0 {
		t.Errorf("parsing a key without parameters allocates %v times", n)
	}
}

// TestParamDefaultsAreTable1: a canonical key drops a value equal to
// its Default, so each Default must be core.DefaultMuMamaConfig's value
// in canonical spelling (theta's is a formula there too: zero), and the
// canonical order is the table's.
func TestParamDefaultsAreTable1(t *testing.T) {
	if !sort.SliceIsSorted(muMamaParams, func(i, j int) bool { return muMamaParams[i].Name < muMamaParams[j].Name }) {
		t.Error("muMamaParams is not in name order")
	}
	for _, p := range muMamaParams {
		cfg := core.DefaultMuMamaConfig()
		v, err := strconv.ParseFloat(p.Default, 64)
		if err != nil {
			if p.Name != "theta" || cfg.ThetaGlobal != 0 {
				t.Errorf("%s: default %q is no number, and the parameter is not the formula-defaulted ThetaGlobal", p.Name, p.Default)
			}
			continue
		}
		if p.set(&cfg, v); strconv.FormatFloat(v, 'g', -1, 64) != p.Default || !reflect.DeepEqual(cfg, core.DefaultMuMamaConfig()) {
			t.Errorf("%s=%s is not Table 1 in canonical form: %+v", p.Name, p.Default, cfg)
		}
		// lcb=0 is the raw argmax, which MuMamaConfig spells as a negative
		// JAVLCB; its 0 would silently mean the default.
		if p.set(&cfg, p.Min); reflect.DeepEqual(cfg, core.DefaultMuMamaConfig()) || cfg.JAVLCB == 0 {
			t.Errorf("%s=%g sets %+v", p.Name, p.Min, cfg)
		}
	}
}

func FuzzControllerKey(f *testing.F) {
	for _, seed := range []string{
		"mumama", "no", "mumama@jav=04@lcb=0.50", "mumama@lcb=.5@jav=4", "mumama@jav=2", "mumama@theta=0.65",
		"mumama-fair@kstep=20@tarbit=2", "bandit@jav=4", "mumama@", "mumama@jav", "mumama@jav=4@jav=4",
		"mumama@lcb=1e-300", "mumama@lcb=-0", "mumama@theta=NaN", "mumama@lcb=0x1p-2", " mumama@jav=1_0 ", "@", "=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, key string) {
		k, err := parseController(key)
		if err != nil {
			return
		}
		if len(k.canonical) > MaxControllerKey {
			t.Fatalf("%q: canonical %q is %d bytes", key, k.canonical, len(k.canonical))
		}
		again, err := parseController(k.canonical)
		if err != nil || again.canonical != k.canonical || again.row != k.row || !maps.Equal(again.settings, k.settings) {
			t.Fatalf("%q → %q → %q (%v): not a fixed point", key, k.canonical, again.canonical, err)
		}
		if _, err := k.row.build(Options{Profiles: []float64{1, 1}}, k.settings); err != nil {
			t.Fatalf("%q parses and does not build: %v", key, err)
		}
	})
}
