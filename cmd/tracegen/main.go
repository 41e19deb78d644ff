// Command tracegen materializes catalog traces into binary MMT1 files
// that tracestat (and external tools) can read.
//
// Usage:
//
//	tracegen -out traces/ -n 5000000 spec06.libquantum ligra.BFS
//	tracegen -out traces/ -n 1000000 all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"micromama/internal/trace"
	"micromama/internal/workload"
)

func main() {
	out := flag.String("out", ".", "output directory")
	n := flag.Uint64("n", 1_000_000, "instructions per trace")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "tracegen: name traces to generate, or 'all'")
		os.Exit(2)
	}
	var specs []workload.Spec
	if len(names) == 1 && names[0] == "all" {
		specs = workload.Catalog()
	} else {
		for _, name := range names {
			sp, err := workload.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracegen:", err)
				os.Exit(2)
			}
			specs = append(specs, sp)
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	for _, sp := range specs {
		file := filepath.Join(*out, strings.ReplaceAll(sp.Name, "/", "_")+".mmt")
		wrote, err := trace.WriteFile(file, sp.New(), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		fmt.Printf("%-24s -> %s (%d records)\n", sp.Name, file, wrote)
	}
}
