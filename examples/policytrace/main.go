// Policytrace regenerates the paper's policy-timeline figures (2, 4,
// and 12) on the motivating 4-core mix: the arms each agent plays over
// time under uncoordinated Bandits, the naïve shared reward, and µMama
// (whose JAV-dictated steps are marked). It writes each timeline as an
// SVG next to the text summary.
package main

import (
	"context"
	"fmt"
	"os"

	"micromama/internal/experiment"
)

func main() {
	scale := experiment.Scale{Target: 2_000_000, MaxCyclesFactor: 14, MixCount: 1, Seed: 7, Step: 250}
	runner := experiment.NewRunner(scale)

	for _, cfg := range []struct {
		key, fig, file string
	}{
		{"bandit", "Figure 2 (uncoordinated Bandits)", "fig2_bandit.svg"},
		{"bandit-shared", "Figure 4 (shared reward)", "fig4_shared.svg"},
		{"mumama", "Figure 12 (µMama; * = JAV-dictated)", "fig12_mumama.svg"},
	} {
		rep, err := runner.FigTimeline(context.Background(), cfg.key)
		if err != nil {
			fmt.Fprintln(os.Stderr, "policytrace:", err)
			os.Exit(1)
		}
		fmt.Printf("--- %s ---\n%s\n", cfg.fig, rep)
		if err := os.WriteFile(cfg.file, []byte(rep.SVG()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "policytrace:", err)
			os.Exit(1)
		}
		fmt.Printf("(wrote %s)\n\n", cfg.file)
	}
}
