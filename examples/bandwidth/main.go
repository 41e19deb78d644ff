// Bandwidth demonstrates §6.2: µMama's advantage over uncoordinated
// Bandit agents grows as memory bandwidth shrinks, because contention
// between greedy prefetchers is exactly what the supervisor fixes.
package main

import (
	"context"
	"fmt"

	"micromama/internal/dram"
	"micromama/internal/experiment"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

func main() {
	scale := experiment.Scale{Target: 1_500_000, MaxCyclesFactor: 14, MixCount: 3, Seed: 7, Step: 250}
	runner := experiment.NewRunner(scale)
	ctx := context.Background()
	mixes := workload.Mixes(4, scale.MixCount, scale.Seed)

	fmt.Printf("%-20s %10s %12s %12s %10s\n", "memory", "GB/s", "bandit WS", "µmama WS", "delta")
	for _, d := range []dram.Config{dram.DDR4(1866, 1), dram.DDR4(2400, 1), dram.DDR4(1866, 2), dram.DDR4(2400, 2)} {
		cfg := sim.DefaultConfig(4)
		cfg.DRAM = d
		bandit, err := runner.RunMixesContext(ctx, mixes, cfg, "bandit", experiment.Options{})
		if err != nil {
			panic(err)
		}
		mama, err := runner.RunMixesContext(ctx, mixes, cfg, "mumama", experiment.Options{})
		if err != nil {
			panic(err)
		}
		bws, mws := experiment.MeanWS(bandit), experiment.MeanWS(mama)
		fmt.Printf("%-20s %10.1f %12.3f %12.3f %+9.2f%%\n",
			d.Name, d.PeakGBps(), bws, mws, (mws/bws-1)*100)
	}
}
