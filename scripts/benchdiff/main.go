// Command benchdiff compares `go test -bench` output against a checked-in
// JSON baseline, printing a benchstat-style table of deltas per metric.
// It uses only the standard library, so it runs anywhere the repo builds.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem ./... | go run ./scripts/benchdiff
//	go run ./scripts/benchdiff bench.out               # compare a saved run
//	go run ./scripts/benchdiff -update bench.out       # rewrite the baseline
//	go run ./scripts/benchdiff -tol 4 bench.out        # fail when allocs/op grows more than 5x
//
// The baseline (BENCH_baseline.json by default) maps fully-qualified
// benchmark names to their metrics. With -tol > 0, the command exits
// non-zero when allocs/op regresses by more than the given fraction, or
// is non-zero where the baseline has none, and when B/instr (a trace
// slab's bytes per instruction) grows at all — the `make bench-smoke`
// gate. Those two are the gated metrics: both are deterministic even at
// -benchtime=1x on noisy runners. Timings are report-only; `mamaload
// -compare` (bench/) is the tool that judges them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark's metrics, e.g. {"ns/op": 5.4, "allocs/op": 0}.
type sample map[string]float64

// baselineFile is the on-disk schema of BENCH_baseline.json.
type baselineFile struct {
	Comment    string            `json:"comment,omitempty"`
	Benchmarks map[string]sample `json:"benchmarks"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
	update := flag.Bool("update", false, "write the parsed run to the baseline instead of comparing")
	tol := flag.Float64("tol", 0, "fail when allocs/op regresses by more than this fraction (0 = report only)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	run, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(run) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	if *update {
		out := baselineFile{
			Comment:    "go test -bench baseline; regenerate with `make bench-baseline`",
			Benchmarks: run,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(run), *baselinePath)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("%w (generate it with -update)", err))
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}

	regressed := compare(os.Stdout, base.Benchmarks, run, *tol)
	if *tol > 0 && regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression (allocs/op beyond %.0f%% tolerance, or B/instr grew): see the ! rows\n", *tol*100)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// Names are qualified with the preceding "pkg:" line so identical
// benchmark names in different packages stay distinct; repeated runs
// (-count > 1) of one benchmark are averaged.
func parseBench(r io.Reader) (map[string]sample, error) {
	out := map[string]sample{}
	counts := map[string]map[string]int{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if after, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(after)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name N val unit [val unit]... — anything shorter is a header.
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not an iteration count; some other Benchmark... line
		}
		s := out[name]
		if s == nil {
			s = sample{}
			out[name] = s
			counts[name] = map[string]int{}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			// Incremental mean across -count repetitions.
			counts[name][unit]++
			n := float64(counts[name][unit])
			s[unit] += (v - s[unit]) / n
		}
	}
	return out, sc.Err()
}

// compare prints old vs new per benchmark metric and reports whether
// allocs/op regressed beyond tol or B/instr grew (checked when tol > 0).
func compare(w io.Writer, base, run map[string]sample, tol float64) (regressed bool) {
	names := make([]string, 0, len(run))
	for name := range run {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-64s %-12s %14s %14s %9s\n", "benchmark", "metric", "old", "new", "delta")
	for _, name := range names {
		b, inBase := base[name]
		units := make([]string, 0, len(run[name]))
		for u := range run[name] {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			nv := run[name][unit]
			if !inBase {
				fmt.Fprintf(w, "%-64s %-12s %14s %14s %9s\n", name, unit, "-", format(nv), "new")
				continue
			}
			ov, ok := b[unit]
			if !ok {
				fmt.Fprintf(w, "%-64s %-12s %14s %14s %9s\n", name, unit, "-", format(nv), "new")
				continue
			}
			delta := "~"
			gated := tol > 0 && (unit == "allocs/op" || unit == "B/instr")
			slack := tol
			if unit == "B/instr" {
				slack = 0 // a slab's density repeats exactly: any growth is a regression
			}
			if ov != 0 {
				d := (nv - ov) / ov
				delta = fmt.Sprintf("%+.1f%%", d*100)
				if gated && d > slack {
					delta += " !"
					regressed = true
				}
			} else if nv != 0 {
				delta = "+inf"
				if gated {
					// Any allocation where the baseline had none is a
					// regression of the allocation-free invariant.
					delta += " !"
					regressed = true
				}
			}
			fmt.Fprintf(w, "%-64s %-12s %14s %14s %9s\n", name, unit, format(ov), format(nv), delta)
		}
	}
	missing := make([]string, 0, len(base))
	for name := range base {
		if _, ok := run[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "%-64s %-12s %14s %14s %9s\n", name, "", "(in baseline)", "-", "missing")
	}
	return regressed
}

func format(v float64) string {
	switch {
	case v == float64(int64(v)) && v < 1e15:
		return strconv.FormatInt(int64(v), 10)
	case v >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
