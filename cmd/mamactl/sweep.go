package main

// The sweep subcommand family: server-side experiment sweeps.
//
//	mamactl sweep submit -spec sweep.json [-priority N] [-watch]
//	mamactl sweep submit -mixes a,b;c,d -controllers mumama,bandit
//	        [-scales tiny] [-seeds 0,1] [-name fig13] [-priority N] [-watch]
//	mamactl sweep status <sweep-id>
//	mamactl sweep list
//	mamactl sweep watch <sweep-id>
//	mamactl sweep results <sweep-id>
//
// submit accepts either a full JSON spec (-spec file, "-" for stdin) or
// grid axes as flags; -mixes separates mixes with ';' and traces within
// a mix with ','. watch streams events as they complete and survives
// server restarts: the client reconnects from cursor 0 and skips cells
// it already printed, because a restarted server rebuilds the event log
// in another order. results dumps the events recorded so far without
// following.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"micromama/internal/client"
	"micromama/internal/sweep"
)

func cmdSweep(ctx context.Context, c *client.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("sweep: expected submit|status|list|watch|results")
	}
	switch args[0] {
	case "submit":
		return cmdSweepSubmit(ctx, c, args[1:])
	case "status":
		if len(args) != 2 {
			return fmt.Errorf("sweep status: expected exactly one sweep id")
		}
		return getJSON(ctx, c, "/v1/sweeps/"+args[1])
	case "list":
		return getJSON(ctx, c, "/v1/sweeps")
	case "watch":
		if len(args) != 2 {
			return fmt.Errorf("sweep watch: expected exactly one sweep id")
		}
		return watchSweep(ctx, c, args[1])
	case "results":
		if len(args) != 2 {
			return fmt.Errorf("sweep results: expected exactly one sweep id")
		}
		return getJSON(ctx, c, "/v1/sweeps/"+args[1]+"/results?follow=0")
	}
	return fmt.Errorf("sweep: unknown subcommand %q", args[0])
}

func cmdSweepSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("sweep submit", flag.ExitOnError)
	var (
		specFile    = fs.String("spec", "", "sweep spec JSON file (\"-\" for stdin); overrides the grid flags")
		name        = fs.String("name", "", "sweep name (part of its identity)")
		mixes       = fs.String("mixes", "", "grid mixes: ';' between mixes, ',' between traces of one mix")
		controllers = fs.String("controllers", "", "comma-separated controller keys")
		scales      = fs.String("scales", "", "comma-separated scales (tiny|small|default|full)")
		seeds       = fs.String("seeds", "", "comma-separated seeds")
		priority    = fs.Int("priority", 0, "fair-share weight against other sweeps (1..max, default 1)")
		jobTimeout  = fs.Duration("cell-timeout", 0, "per-cell timeout enforced by the server")
		watch       = fs.Bool("watch", false, "stream results until the sweep completes")
	)
	fs.Parse(args)

	var spec sweep.Spec
	if *specFile != "" {
		raw, err := readSpecFile(*specFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("sweep submit: bad spec: %w", err)
		}
	} else {
		if *mixes == "" || *controllers == "" {
			return fmt.Errorf("sweep submit: need -spec, or -mixes and -controllers")
		}
		grid := &sweep.Grid{Controllers: splitList(*controllers)}
		for _, m := range strings.Split(*mixes, ";") {
			if mix := splitList(m); len(mix) > 0 {
				grid.Mixes = append(grid.Mixes, mix)
			}
		}
		if *scales != "" {
			grid.Scales = splitList(*scales)
		}
		for _, s := range splitList(*seeds) {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return fmt.Errorf("sweep submit: bad seed %q", s)
			}
			grid.Seeds = append(grid.Seeds, v)
		}
		spec.Grid = grid
	}
	if *name != "" {
		spec.Name = *name
	}
	if *priority != 0 {
		spec.Priority = *priority
	}
	if *jobTimeout != 0 {
		spec.TimeoutMs = jobTimeout.Milliseconds()
	}

	view, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep %s: %d cells (%d already deduped)\n",
		view.ID, view.Cells, view.Deduped)
	if !*watch {
		b, _ := json.Marshal(view)
		printJSON(b)
		return nil
	}
	return watchSweep(ctx, c, view.ID)
}

// watchSweep streams one event per line until the sweep finishes, then
// prints the final view. Failed cells flip the exit status.
func watchSweep(ctx context.Context, c *client.Client, id string) error {
	view, err := c.StreamSweepResults(ctx, id, func(ev sweep.Event) error {
		b, merr := json.Marshal(ev)
		if merr != nil {
			return merr
		}
		fmt.Println(string(b))
		return nil
	})
	if err != nil {
		return err
	}
	b, _ := json.Marshal(view)
	fmt.Fprintf(os.Stderr, "sweep %s finished: %d done, %d deduped, %d failed\n",
		view.ID, view.Done, view.Deduped, view.Failed)
	printJSON(b)
	if view.Failed > 0 {
		return fmt.Errorf("sweep %s: %d cells failed", view.ID, view.Failed)
	}
	return nil
}

func readSpecFile(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
