package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// seq returns 1..n as floats, in descending order so that a helper that
// forgets to sort is caught.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.50, 50}, // rank ceil(0.5·100) = 50
		{100, 0.90, 90}, // rank 90, ten samples beyond
		{101, 0.50, 51}, // rank ceil(50.5) = 51
		{200, 0.90, 180},
		{1000, 0.90, 900},
		{20, 0.50, 10}, // ten beyond: the smallest N a p50 is printed for
	} {
		got, n, err := percentile(seq(tc.n), tc.p, minBeyond)
		if err != nil || got != tc.want || n != tc.n {
			t.Errorf("percentile(1..%d, %v) = %v, N=%d, err=%v; want %v, N=%d", tc.n, tc.p, got, n, err, tc.want, tc.n)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// 99 samples put rank 90 at p90 with only nine beyond it.
	if _, n, err := percentile(seq(99), 0.90, minBeyond); err == nil || n != 99 || !strings.Contains(err.Error(), "9 beyond") {
		t.Errorf("p90 of 99 samples: N=%d err=%v; want a refusal naming 9 samples beyond", n, err)
	}
	if _, _, err := percentile(seq(19), 0.50, minBeyond); err == nil {
		t.Error("p50 of 19 samples was printed; nine lie beyond it")
	}
	if _, _, err := percentile(nil, 0.5, minBeyond); err == nil {
		t.Error("percentile of no samples was printed")
	}
	// A smoke run waives the rule explicitly and still gets nearest rank.
	if got, _, err := percentile(seq(16), 0.90, 0); err != nil || got != 15 {
		t.Errorf("percentile(1..16, 0.9, 0) = %v, %v; want 15", got, err)
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := seq(100)
	if _, _, err := percentile(xs, 0.9, minBeyond); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 100 || xs[99] != 1 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestEpochRates(t *testing.T) {
	// Three marks, two epochs of 16 ops: 2 s then 4 s of wall, 1 s then
	// 3 s of CPU.
	marks := []mark{
		{at: 0, cpu: 0},
		{at: 2 * time.Second, cpu: 1 * time.Second},
		{at: 6 * time.Second, cpu: 4 * time.Second},
	}
	rates, cpus := epochRates(marks, 16)
	if len(rates) != 2 || rates[0] != 8 || rates[1] != 4 {
		t.Errorf("rates = %v, want [8 4]", rates)
	}
	if len(cpus) != 2 || cpus[0] != 62.5 || cpus[1] != 187.5 {
		t.Errorf("cpu ms/op = %v, want [62.5 187.5]", cpus)
	}
	if r, c := epochRates(marks[:1], 16); r != nil || c != nil {
		t.Errorf("one mark gave %v %v; an epoch needs two", r, c)
	}
}

// A burst of interference in one epoch moves the mean rate, not the
// median: the reason the rate is reported per epoch.
func TestSummarizeUsesEpochMedian(t *testing.T) {
	ph := phase{attempted: 100, wall: 14 * time.Second, cpu: 14 * time.Second}
	for i := 0; i < 100; i++ {
		ph.latencyMs = append(ph.latencyMs, float64(i+1))
	}
	at := time.Duration(0)
	ph.marks = append(ph.marks, mark{})
	for _, secs := range []time.Duration{2, 2, 8, 2} {
		at += secs * time.Second
		ph.marks = append(ph.marks, mark{at: at, cpu: at})
	}
	s, err := summarize(ph, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.OpsPerS != 5 || s.Epochs != 4 {
		t.Errorf("ops/s = %v over %d epochs, want the median 5 over 4", s.OpsPerS, s.Epochs)
	}
	if s.P50Ms != 50 || s.P90Ms != 90 || s.N != 100 {
		t.Errorf("p50 = %v p90 = %v N = %d, want 50, 90 and 100", s.P50Ms, s.P90Ms, s.N)
	}
	// p90 of 30 samples has three beyond it: a strict summary refuses.
	ph.latencyMs = ph.latencyMs[:30]
	// ... and still holds the rates, so that the run is reported as failed
	// instead of not at all.
	if s, err := summarize(ph, 10, true); err == nil || s.P90Ms != 0 || s.OpsPerS != 5 {
		t.Errorf("a strict summary of 30 samples: p90 = %v, ops/s = %v, err = %v; want a refusal with the rates kept", s.P90Ms, s.OpsPerS, err)
	}
	if _, err := summarize(ph, 10, false); err != nil {
		t.Errorf("a smoke summary refused: %v", err)
	}
}

// The closed loop's clock starts before the request is sent and stops
// after the reply is decoded; both ends are inside the timed interval.
func TestOpTimerCoversSendToDecode(t *testing.T) {
	timer := beginOp()
	sent := time.Now()
	time.Sleep(2 * time.Millisecond) // the request in flight and the decode
	decoded := time.Now()
	d := timer.end()
	if d < decoded.Sub(sent) {
		t.Errorf("op timed %v, shorter than the %v between send and decode", d, decoded.Sub(sent))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles(seq(10))
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v %v, want 2.75 5.5 8.25", q1, q2, q3, err)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3, _ = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v %v %v, want 10 20 40", q1, q2, q3)
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value were printed")
	}
	if got, want := spreadOf(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadOf(1..10) = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, tight(100), tight(101), "ok"},
		{"slower latency", lower, tight(100), tight(115), "REGRESSED"},
		{"faster latency", lower, tight(100), tight(80), "ok"},
		{"lower throughput", higher, tight(100), tight(85), "REGRESSED"},
		{"higher throughput", higher, tight(100), tight(130), "ok"},
		{"noisy", lower, []float64{80, 100, 120, 90, 130}, tight(100), "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 130}, tight(50), "ok"},
	} {
		if got := judge(tc.d, tc.a, tc.b).status; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// -compare must not pass over simulated counts it never saw: a file
// without a traced run is a problem, as are two traced runs that differ.
func TestCompareChecksModelCounts(t *testing.T) {
	plain := runReport{Workload: "sim_direct", Seed: 100, Correct: true, ResultDigest: "d",
		Metrics: map[string]metric{"ops_per_s": {Value: 20, Unit: "1/s"}}}
	traced := func(cycles float64) runReport {
		return runReport{Workload: "sim_direct", Seed: 100, Traced: true, Correct: true, ResultDigest: "d",
			Metrics: map[string]metric{"model.cycles": {Value: cycles, Unit: "count"}}}
	}
	for _, tc := range []struct {
		name     string
		a, b     []runReport
		problems int
	}{
		{"no traced run on either side", []runReport{plain}, []runReport{plain}, 2},
		{"traced run on one side only", []runReport{plain, traced(7)}, []runReport{plain}, 1},
		{"equal counts", []runReport{plain, traced(7)}, []runReport{plain, traced(7)}, 0},
		{"different counts", []runReport{plain, traced(7)}, []runReport{plain, traced(8)}, 1},
	} {
		if got := compareReports(io.Discard, report{Runs: tc.a}, report{Runs: tc.b}); len(got) != tc.problems {
			t.Errorf("%s: %d problem(s) %v, want %d", tc.name, len(got), got, tc.problems)
		}
	}
}
