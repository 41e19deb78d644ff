package experiment

import (
	"fmt"
	"math"
	"strings"
)

// CharacteristicsReport reproduces §6.3's workload-characteristics
// analysis: workloads that benefit most from µMama tend to have a low
// mean no-prefetch L2-MPKI (µ), a high variance (σ²), or both. The
// paper restricts to mixes with µ − σ < 2.5 MPKI and finds larger
// µMama speedups there (2.7%/3.4% at 4/8 cores vs 1.9%/2.1% overall).
type CharacteristicsReport struct {
	Cores     int
	Threshold float64 // the µ−σ filter threshold in MPKI

	// Per-mix data, index-aligned.
	MixNames  []string
	MeanMPKI  []float64 // µ of per-core no-prefetch L2 MPKI
	SigmaMPKI []float64 // σ across cores
	Ratio     []float64 // WS(µMama)/WS(Bandit)

	// Aggregates.
	AvgAll      float64 // mean µMama gain over all mixes
	AvgFiltered float64 // mean gain over mixes with µ−σ < Threshold
	FilteredN   int
}

// sec63 measures per-mix no-prefetch MPKI statistics at 4 cores and
// correlates them with µMama's speedup over Bandit, filtering at the
// paper's µ − σ < 2.5 MPKI.
func sec63() Figure {
	const cores, threshold = 4, 2.5
	return armFigure("sec63", defaultArms([]int{cores}, "bandit", "mumama", "no"),
		func(byArm map[arm][]CellResult) fmt.Stringer {
			bandit := byArm[arm{cores: cores, controller: "bandit"}]
			mama := byArm[arm{cores: cores, controller: "mumama"}]
			rep := &CharacteristicsReport{Cores: cores, Threshold: threshold}
			var sumAll, sumFiltered float64
			// The no-prefetch multicore run characterizes each mix's MPKI.
			for i, noPref := range byArm[arm{cores: cores, controller: "no"}] {
				var mu, sigma float64
				for _, mpki := range noPref.L2MPKI {
					mu += mpki
				}
				mu /= float64(len(noPref.L2MPKI))
				for _, mpki := range noPref.L2MPKI {
					d := mpki - mu
					sigma += d * d
				}
				sigma = math.Sqrt(sigma / float64(len(noPref.L2MPKI)))

				ratio := 0.0
				if bandit[i].WS > 0 {
					ratio = mama[i].WS / bandit[i].WS
				}
				rep.MixNames = append(rep.MixNames, noPref.Mix)
				rep.MeanMPKI = append(rep.MeanMPKI, mu)
				rep.SigmaMPKI = append(rep.SigmaMPKI, sigma)
				rep.Ratio = append(rep.Ratio, ratio)

				sumAll += ratio
				if mu-sigma < threshold {
					sumFiltered += ratio
					rep.FilteredN++
				}
			}
			rep.AvgAll = sumAll/float64(len(rep.Ratio)) - 1
			if rep.FilteredN > 0 {
				rep.AvgFiltered = sumFiltered/float64(rep.FilteredN) - 1
			}
			return rep
		})
}

// String renders the report.
func (c *CharacteristicsReport) String() string {
	var rows [][]string
	for i := range c.MixNames {
		mark := ""
		if c.MeanMPKI[i]-c.SigmaMPKI[i] < c.Threshold {
			mark = "*"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d%s", i, mark),
			fmt.Sprintf("%.1f", c.MeanMPKI[i]),
			fmt.Sprintf("%.1f", c.SigmaMPKI[i]),
			num(c.Ratio[i]),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "§6.3: workload characteristics (%d cores); * marks µ−σ < %.1f MPKI\n", c.Cores, c.Threshold)
	b.WriteString(table([]string{"mix", "µ MPKI", "σ MPKI", "WS µmama/bandit"}, rows))
	fmt.Fprintf(&b, "average µMama gain: all mixes %s; filtered (%d mixes) %s\n",
		pct(c.AvgAll), c.FilteredN, pct(c.AvgFiltered))
	return b.String()
}
