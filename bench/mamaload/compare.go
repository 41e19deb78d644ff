package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a
// spread computed here is the spread an outside checker computes.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	m := len(xs)
	if m < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least two values, have %d", m)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4 // after the clamp, as Python computes it
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spreadOf is the distance between the first and third quartile as a
// share of the median.
func spreadOf(xs []float64) float64 {
	q1, _, q3, err := quartiles(xs)
	med := median(xs)
	if err != nil || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// series collects, per workload and metric, the values of every untraced
// run in a report, in run order.
func series(rep report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rep.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict is the outcome for one workload and metric.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	ratio            float64 // b ÷ a
	spread           float64 // the wider of the two sets' spreads
	bound            float64
	status           string // ok, REGRESSED, unresolved
}

// judge compares set b against set a for one metric. Where the
// run-to-run spread is wider than the bound the metric is unresolved,
// not unchanged — unless every run of b reads better than every run of
// a.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{metric: d.Name, a: median(a), b: median(b), bound: d.Bound,
		spread: max(spreadOf(a), spreadOf(b))}
	if v.a != 0 {
		v.ratio = v.b / v.a
	}
	worse := v.ratio - 1
	allBetter := slices.Min(a) > slices.Max(b)
	if d.Better == "higher" {
		worse = 1 - v.ratio
		allBetter = slices.Max(a) < slices.Min(b)
	}
	switch {
	case v.spread > d.Bound && !allBetter:
		v.status = "unresolved"
	case worse > d.Bound:
		v.status = "REGRESSED"
	default:
		v.status = "ok"
	}
	return v
}

func readReport(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareMain prints one row per workload and end-to-end metric, checks
// that results and simulated counts are identical, and fails on any
// regression or mismatch.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files: mamaload -compare a.json b.json")
	}
	ra, err := readReport(args[0])
	if err != nil {
		return err
	}
	rb, err := readReport(args[1])
	if err != nil {
		return err
	}
	problems := compareReports(os.Stdout, ra, rb)
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s): %s", len(problems), strings.Join(problems, "; "))
	}
	return nil
}

func compareReports(w io.Writer, ra, rb report) (problems []string) {
	sa, sb := series(ra), series(rb)
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "a(median)", "b(median)", "b/a", "spread", "bound", "status")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := sa[name][d.Name], sb[name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(d, a, b)
			fmt.Fprintf(w, "%-14s %-16s %12.5g %12.5g %8.3f %8.3f %6.2f  %s\n",
				name, d.Name, v.a, v.b, v.ratio, v.spread, v.bound, v.status)
			if v.status == "REGRESSED" {
				problems = append(problems, fmt.Sprintf("%s %s regressed: %.5g -> %.5g (x%.3f of %.5g, bound %.2f)",
					name, d.Name, v.a, v.b, v.ratio, v.a, v.bound))
			}
		}
	}

	// Results: one digest per seed, the same on every simulating path and
	// in both files. Simulated counts: they depend on neither seed nor
	// workload, so every traced run of both files must read the same. A
	// file without a traced run leaves them unchecked, which is a problem
	// of its own: a speed-only change has to show that it left them alone.
	digests := map[uint64]map[string]bool{}
	counts := map[string]map[float64]bool{}
	for i, rep := range []report{ra, rb} {
		file := []string{"a", "b"}[i]
		hasCounts := false
		for _, r := range rep.Runs {
			if !r.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d: a correctness check failed: %v", r.Workload, r.Seed, r.Errors))
			}
			if r.ResultDigest != "" {
				if digests[r.Seed] == nil {
					digests[r.Seed] = map[string]bool{}
				}
				digests[r.Seed][r.ResultDigest] = true
			}
			for name, m := range r.Metrics {
				if r.Traced && strings.HasPrefix(name, "model.") {
					if counts[name] == nil {
						counts[name] = map[float64]bool{}
					}
					counts[name][m.Value] = true
					hasCounts = true
				}
			}
		}
		if !hasCounts {
			problems = append(problems, fmt.Sprintf("file %s holds no traced run, so its model.* counts are unchecked: add one with -trace 1 -out", file))
		}
	}
	for seed, ds := range digests {
		if len(ds) > 1 {
			problems = append(problems, fmt.Sprintf("seed %d has %d different result_digests across paths and files", seed, len(ds)))
		}
	}
	for key, vs := range counts {
		if len(vs) > 1 {
			problems = append(problems, fmt.Sprintf("%s reads %d different values over the traced runs; simulated counts must repeat exactly", key, len(vs)))
		}
	}
	sort.Strings(problems)
	fmt.Fprintf(w, "result_digest: %d seed(s) checked; model.* counts: %d checked\n", len(digests), len(counts))
	return problems
}
