package main

import (
	"strconv"
	"strings"
	"testing"

	"micromama/internal/sim"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

// TestRunSignature runs a tiny two-core mix to its target and again
// under a cycle guard it cannot meet, and reads runSignature's columns
// back against the sim.Result they were formatted from.
func TestRunSignature(t *testing.T) {
	run := func(target, maxCycles uint64) sim.Result {
		var readers []trace.Reader
		for _, name := range []string{"spec06.libquantum", "spec06.mcf"} {
			sp, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			readers = append(readers, sp.New())
		}
		sys, err := sim.New(sim.DefaultConfig(2), readers, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		return sys.Run(target, maxCycles)
	}
	for _, tc := range []struct {
		name              string
		target, maxCycles uint64
		guard             string
	}{
		{"to target", 20_000, 0, "no"},
		{"guarded", 1_000_000, 50_000, "hit"},
	} {
		res := run(tc.target, tc.maxCycles)
		f := strings.Fields(runSignature(res, tc.target, 1))
		if len(f) != len(strings.Fields(signatureHeader)) {
			t.Fatalf("%s: signature %q has %d columns, want 4", tc.name, f, len(f))
		}
		cycles := max(res.Cores[0].Cycles, res.Cores[1].Cycles)
		if f[0] != strconv.FormatUint(cycles, 10) {
			t.Errorf("%s: cycles %s, want the longest core's %d", tc.name, f[0], cycles)
		}
		if f[1] != tc.guard {
			t.Errorf("%s: guard %s, want %s", tc.name, f[1], tc.guard)
		}
		d := res.DRAM
		if d.Reads == 0 || d.BusBusyCycles == 0 {
			t.Fatalf("%s: the mix never reached DRAM: %+v", tc.name, d)
		}
		util, _ := strconv.ParseFloat(f[2], 64)
		if want := float64(d.BusBusyCycles) / float64(cycles); !near(util, want, 0.0005) {
			t.Errorf("%s: bus %s, want %.4f", tc.name, f[2], want)
		}
		delay, _ := strconv.ParseFloat(f[3], 64)
		if want := float64(d.QueueDelay) / float64(d.Reads+d.Writes); !near(delay, want, 0.05) {
			t.Errorf("%s: queue delay %s, want %.2f", tc.name, f[3], want)
		}
	}
}

func near(a, b, tol float64) bool { return a-b <= tol && b-a <= tol }
