// Fairness demonstrates §6.4: the same µMama hardware optimizes for
// throughput (Weighted Speedup) or fairness (Harmonic-mean Speedup) by
// changing only the reward calculation.
package main

import (
	"context"
	"fmt"

	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

func main() {
	scale := experiment.Scale{Target: 2_000_000, MaxCyclesFactor: 14, MixCount: 1, Seed: 7, Step: 250}
	runner := experiment.NewRunner(scale)

	names := []string{"spec06.libquantum", "spec17.wrf", "spec06.mcf", "ligra.KCore"}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		specs[i] = sp
	}
	mix := workload.Mix{Specs: specs}
	cfg := sim.DefaultConfig(len(specs))

	fmt.Printf("%-14s %8s %8s %12s\n", "config", "WS", "HS", "unfairness")
	for _, key := range []string{"bandit", "mumama", "mumama-50", "mumama-fair"} {
		res, err := runner.RunMixContext(context.Background(), mix, cfg, key, experiment.Options{})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s %8.3f %8.3f %12.2f\n", key, res.WS, res.HS, res.Unfairness)
	}
	fmt.Println("\nmumama-fair uses the Harmonic-mean Speedup reward: same hardware,")
	fmt.Println("different reward, a different point on the throughput/fairness frontier.")
}
