package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"micromama/internal/core"
	"micromama/internal/prefetch"
	"micromama/internal/sim"
)

// Options carries what a controller's key cannot say.
type Options struct {
	// Profiles supplies per-core S^MP values (µMama-Profiled).
	Profiles []float64
	// Timeline enables policy-timeline recording.
	Timeline bool
	// Step overrides the timestep threshold in L2 demand accesses
	// (0 = paper default of 800). Scaled-down simulations scale the
	// step so agents complete a paper-like number of timesteps.
	Step uint64
}

// MaxControllerKey bounds a controller key's length in bytes.
const MaxControllerKey = 128

// Param is one value a controller key may set: name@param=value.
type Param struct {
	Name    string  `json:"name"`
	Integer bool    `json:"integer"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	// Default is what the controller uses when the key is silent: a
	// number in canonical form — a key that spells it out is the key
	// without it — or, for theta, a formula of the core count, which no
	// value equals, so theta always stays in the key.
	Default string `json:"default"`

	set func(*core.MuMamaConfig, float64)
}

func (p Param) String() string {
	kind := "a number"
	if p.Integer {
		kind = "an integer"
	}
	return fmt.Sprintf("%s: %s in %g..%g, default %s", p.Name, kind, p.Min, p.Max, p.Default)
}

// muMamaParams are the Table 1 values a µMama-family key may set, in
// name order — the order a canonical key lists them in.
var muMamaParams = []Param{
	{"jav", true, 1, 64, "2", func(c *core.MuMamaConfig, v float64) { c.JAVSize = int(v) }},
	{"kstep", true, 1, 100, "5", func(c *core.MuMamaConfig, v float64) { c.KStep = int(v) }},
	// lcb=0 is the paper's raw argmax, which MuMamaConfig spells as a
	// negative JAVLCB (its 0 means "the default").
	{"lcb", false, 0, 10, "0.2", func(c *core.MuMamaConfig, v float64) {
		if v == 0 {
			v = -1
		}
		c.JAVLCB = v
	}},
	{"tarbit", true, 1, 1000, "5", func(c *core.MuMamaConfig, v float64) { c.TArbit = int(v) }},
	{"theta", false, 0.01, 1, "1-1.4/cores", func(c *core.MuMamaConfig, v float64) { c.ThetaGlobal = v }},
}

// controllerRow is one controller the harness can build: its name, the
// parameters its key may set, and its constructor, which is handed the
// values a key sets away from their defaults, by parameter name.
type controllerRow struct {
	name   string
	params []Param
	build  func(opt Options, settings map[string]float64) (sim.Controller, error)
}

func fixedRow(name string, mk func(core int) prefetch.Prefetcher) controllerRow {
	return controllerRow{name: name, build: func(Options, map[string]float64) (sim.Controller, error) {
		return sim.NewFixedController(name, mk), nil
	}}
}

func banditRow(name string, shared bool) controllerRow {
	return controllerRow{name: name, build: func(opt Options, _ map[string]float64) (sim.Controller, error) {
		cfg := core.DefaultBanditConfig()
		cfg.SharedReward = shared
		if opt.Step > 0 {
			cfg.Step = opt.Step
		}
		cfg.RecordTimeline = opt.Timeline
		return core.NewBandit(cfg), nil
	}}
}

// muMamaRow is a µMama variant: the Table 1 configuration optimising
// metric, then the key's settings, then the variant's own change.
func muMamaRow(name string, metric core.Metric, variant func(*core.MuMamaConfig, Options) error) controllerRow {
	return controllerRow{name, muMamaParams, func(opt Options, settings map[string]float64) (sim.Controller, error) {
		cfg := core.DefaultMuMamaConfig()
		cfg.Metric = metric
		if opt.Step > 0 {
			cfg.Step = opt.Step
		}
		cfg.RecordTimeline = opt.Timeline
		for _, p := range muMamaParams {
			if v, ok := settings[p.Name]; ok {
				p.set(&cfg, v)
			}
		}
		if variant != nil {
			if err := variant(&cfg, opt); err != nil {
				return nil, err
			}
		}
		return core.NewMuMama(cfg), nil
	}}
}

// controllers is the registry: ControllerKeys is its name column and
// MakeController its build column.
var controllers = []controllerRow{
	{name: "no", build: func(Options, map[string]float64) (sim.Controller, error) { return sim.NoPrefetchController(), nil }},
	fixedRow("ip_stride", func(int) prefetch.Prefetcher { return prefetch.NewStride("l2_stride", 64, 2) }),
	fixedRow("bingo", func(int) prefetch.Prefetcher { return prefetch.NewBingo() }),
	fixedRow("pythia", func(c int) prefetch.Prefetcher { return prefetch.NewPythia(uint64(c) + 12345) }),
	fixedRow("spp", func(int) prefetch.Prefetcher { return prefetch.NewSPP() }),
	banditRow("bandit", false),
	banditRow("bandit-shared", true),
	muMamaRow("mumama", core.MetricWS(), nil),
	muMamaRow("mumama-fair", core.MetricHS(), nil),
	muMamaRow("mumama-25", core.MetricBlend(0.25), nil),
	muMamaRow("mumama-50", core.MetricBlend(0.50), nil),
	muMamaRow("mumama-75", core.MetricBlend(0.75), nil),
	muMamaRow("mumama-gm", core.MetricGM(), nil),
	muMamaRow("mumama-profiled", core.MetricWS(), func(c *core.MuMamaConfig, opt Options) error {
		if opt.Profiles == nil {
			return fmt.Errorf("experiment: mumama-profiled requires Options.Profiles")
		}
		c.Profiles = opt.Profiles
		return nil
	}),
	muMamaRow("mumama-jav-only", core.MetricWS(), func(c *core.MuMamaConfig, _ Options) error { c.DisableGRW = true; return nil }),
	muMamaRow("mumama-grw-only", core.MetricWS(), func(c *core.MuMamaConfig, _ Options) error { c.DisableJAV = true; return nil }),
	{name: "phase-select", build: func(opt Options, _ map[string]float64) (sim.Controller, error) {
		cfg := core.DefaultPhaseSelectConfig()
		if opt.Step > 0 {
			cfg.Step = opt.Step
		}
		cfg.Seed = 12345
		return core.NewPhaseSelect(cfg), nil
	}},
	{name: "coord-rl", build: func(opt Options, _ map[string]float64) (sim.Controller, error) {
		cfg := core.DefaultCoordRLConfig()
		if opt.Step > 0 {
			cfg.Step = opt.Step
		}
		return core.NewCoordRL(cfg), nil
	}},
}

// ControllerKeys lists every controller the harness can build, and
// ControllerParams what the keys of those that take parameters may set.
var ControllerKeys, ControllerParams = func() ([]string, map[string][]Param) {
	keys, params := make([]string, len(controllers)), map[string][]Param{}
	for i, row := range controllers {
		keys[i] = row.name
		if row.params != nil {
			params[row.name] = row.params
		}
	}
	return keys, params
}()

// controllerKey is a parsed controller key.
type controllerKey struct {
	// canonical is the key's one spelling — what a cell is hashed,
	// cached and reported under: parameters in name order, numbers
	// re-formatted, a value equal to its default dropped.
	canonical string
	row       *controllerRow
	settings  map[string]float64
}

// parseController is the one reader of controller keys:
//
//	name[@param=value[@param=value…]]
//
// "@" both introduces and separates parameters, because "," already
// splits every -controllers flag. A key without parameters is its own
// canonical form and costs a registry scan, no allocation. A refusal
// names what would have been accepted.
func parseController(key string) (controllerKey, error) {
	key = strings.TrimSpace(key)
	if len(key) > MaxControllerKey {
		return controllerKey{}, fmt.Errorf("controller key is %d bytes; at most %d", len(key), MaxControllerKey)
	}
	name, rest, parametrised := strings.Cut(key, "@")
	k := controllerKey{canonical: key}
	for i := range controllers {
		if controllers[i].name == name {
			k.row = &controllers[i]
			break
		}
	}
	if k.row == nil {
		return k, fmt.Errorf("unknown controller %q (known: %s)", name, strings.Join(ControllerKeys, ", "))
	}
	if !parametrised {
		return k, nil
	}
	k.settings = map[string]float64{}
	for _, piece := range strings.Split(rest, "@") {
		pname, text, _ := strings.Cut(piece, "=")
		v, err := k.row.setting(pname, text)
		if _, twice := k.settings[pname]; twice {
			err = fmt.Errorf("parameter %q given twice", pname)
		}
		if err != nil {
			return k, fmt.Errorf("controller %q: %w", key, err)
		}
		k.settings[pname] = v
	}
	k.canonical = name
	for _, p := range k.row.params {
		if v, given := k.settings[p.Name]; !given {
			continue
		} else if text := strconv.FormatFloat(v, 'g', -1, 64); text == p.Default {
			delete(k.settings, p.Name)
		} else {
			k.canonical += "@" + p.Name + "=" + text
		}
	}
	return k, nil
}

// setting reads and range-checks the value text gives the row's
// parameter pname.
func (row *controllerRow) setting(pname, text string) (float64, error) {
	if row.params == nil {
		return 0, fmt.Errorf("%s takes no parameters", row.name)
	}
	var accepted []string
	for _, p := range row.params {
		accepted = append(accepted, p.Name)
		if p.Name == pname {
			// NaN fails both comparisons.
			v, err := strconv.ParseFloat(text, 64)
			if err != nil || !(v >= p.Min && v <= p.Max) || p.Integer && v != math.Trunc(v) {
				return 0, fmt.Errorf("%q is not a value for %s", text, p)
			}
			return v + 0, nil // "-0" is 0
		}
	}
	return 0, fmt.Errorf("unknown parameter %q (%s accepts: %s)", pname, row.name, strings.Join(accepted, ", "))
}

// CheckController reports whether key is one the harness can build; the
// error names what is accepted so a caller can correct itself.
func CheckController(key string) error {
	_, err := parseController(key)
	return err
}

// MakeController builds a prefetch controller by key.
func MakeController(key string, opt Options) (sim.Controller, error) {
	k, err := parseController(key)
	if err != nil {
		return nil, err
	}
	return k.row.build(opt, k.settings)
}
