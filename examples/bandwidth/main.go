// Bandwidth demonstrates §6.2: µMama's advantage over uncoordinated
// Bandit agents grows as memory bandwidth shrinks, because contention
// between greedy prefetchers is exactly what the supervisor fixes.
package main

import (
	"context"
	"fmt"

	"micromama/internal/dram"
	"micromama/internal/experiment"
	"micromama/internal/sweep"
	"micromama/internal/workload"
)

func main() {
	runner := experiment.NewRunner(experiment.ScaleSmall)
	mixes := workload.Mixes(4, 3, experiment.ScaleSmall.Seed)

	fmt.Printf("%-20s %10s %12s %12s %10s\n", "memory", "GB/s", "bandit WS", "µmama WS", "delta")
	for _, sys := range [][2]int{{1866, 1}, {2400, 1}, {1866, 2}, {2400, 2}} { // MT/s, channels
		var cells []sweep.Cell
		for _, key := range []string{"bandit", "mumama"} {
			for _, mix := range mixes {
				c := experiment.CellFor(mix, key, "small", 0, 0)
				c.DRAMMTps, c.DRAMChannels = sys[0], sys[1]
				cells = append(cells, c)
			}
		}
		results, err := runner.RunCells(context.Background(), cells)
		if err != nil {
			panic(err)
		}
		var bws, mws float64
		for i := range mixes {
			bws += results[i].WS
			mws += results[len(mixes)+i].WS
		}
		n := float64(len(mixes))
		d := dram.DDR4(sys[0], sys[1])
		fmt.Printf("%-20s %10.1f %12.3f %12.3f %+9.2f%%\n",
			d.Name, d.PeakGBps(), bws/n, mws/n, (mws/bws-1)*100)
	}
}
