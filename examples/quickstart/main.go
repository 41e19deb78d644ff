// Quickstart: build a 4-core system with µMama coordinating the per-L2
// Bandit prefetchers, run a workload mix, and compare against
// uncoordinated Bandit agents.
package main

import (
	"fmt"

	"micromama/internal/core"
	"micromama/internal/sim"
	"micromama/internal/workload"
)

func main() {
	// Pick a 4-core mix from the catalog: one stream, one strided code,
	// one graph workload, one pointer chaser.
	names := []string{"spec06.libquantum", "spec17.cactuBSSN", "ligra.PageRank", "spec06.mcf"}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.ByName(n)
		if err != nil {
			panic(err)
		}
		specs[i] = sp
	}
	mix := workload.Mix{Specs: specs}

	const target = 1_500_000 // instructions per core

	run := func(ctrl sim.Controller) sim.Result {
		sys, err := sim.New(sim.DefaultConfig(len(specs)), mix.Traces(), ctrl)
		if err != nil {
			panic(err)
		}
		defer sys.Close()
		return sys.Run(target, target*16)
	}

	// Uncoordinated Micro-Armed Bandit agents (the paper's baseline).
	bcfg := core.DefaultBanditConfig()
	bcfg.Step = 250 // scaled-down timestep for a scaled-down run
	banditRes := run(core.NewBandit(bcfg))

	// µMama: the same local agents under a JAV cache + arbiter supervisor.
	mcfg := core.DefaultMuMamaConfig()
	mcfg.Step = 250
	mm := core.NewMuMama(mcfg)
	mamaRes := run(mm)

	fmt.Println("trace                     bandit IPC    µmama IPC")
	for i := range banditRes.Cores {
		fmt.Printf("%-24s %10.3f %12.3f\n",
			banditRes.Cores[i].Trace, banditRes.Cores[i].IPC, mamaRes.Cores[i].IPC)
	}
	fmt.Printf("\nµMama ran %d global timesteps; %.0f%% were dictated from the JAV cache.\n",
		mm.GlobalSteps(), mm.JointFraction()*100)
	if best := mm.JAVCache().Best(); best != nil {
		fmt.Printf("Best joint action learned: %v (arm per core, 0=off .. 16=max)\n", best)
	}
}
