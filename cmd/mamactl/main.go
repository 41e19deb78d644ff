// Command mamactl is the mamaserved client.
//
// Usage:
//
//	mamactl [-addr host:port] [-timeout 30s] [-retries 4] [-deadline 1h]
//	        submit -mix t1,t2 -controller mumama [-scale tiny]
//	        [-seed N] [-target N] [-step N] [-job-timeout 30s] [-wait]
//	mamactl status <job-id>
//	mamactl result <job-id>
//	mamactl wait <job-id>
//	mamactl sweep submit|status|list|watch|results ...  (see sweep.go)
//	mamactl stats
//	mamactl catalog
//
// Every request runs on one shared http.Client with an explicit
// timeout, retries transient failures (connection errors, 429, 5xx)
// with exponential backoff honoring Retry-After, and is cancellable
// with SIGINT/SIGTERM (waits exit promptly). Retrying a submit is
// safe: jobs are content-addressed, so a resubmission lands on the
// same job instead of running a second simulation.
//
// submit -wait and wait do not poll: they hold one
// GET /v1/jobs/{id}/result?wait= open until the server reports the job
// finished, asking for ¾ of -timeout at a time (at most the server's
// 30s cap), so a job slower than that is re-asked for rather than
// timed out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"micromama/internal/client"
)

var (
	addr     = flag.String("addr", "http://localhost:8077", "mamaserved base URL")
	timeout  = flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	retries  = flag.Int("retries", 4, "max retries on transient failures (429/5xx/connection errors)")
	deadline = flag.Duration("deadline", time.Hour, "overall deadline for the whole invocation (0 = none); bounds waits")
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// One signal-cancelled context threads through every subcommand, so
	// ^C interrupts an in-flight request or a held wait immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	c := client.New(*addr, client.Options{Timeout: *timeout, MaxRetries: *retries})

	var err error
	switch args[0] {
	case "submit":
		err = cmdSubmit(ctx, c, args[1:])
	case "status":
		err = cmdGet(ctx, c, args[1:], "/v1/jobs/%s")
	case "result":
		err = cmdGet(ctx, c, args[1:], "/v1/jobs/%s/result")
	case "wait":
		err = cmdWait(ctx, c, args[1:])
	case "sweep":
		err = cmdSweep(ctx, c, args[1:])
	case "stats":
		err = getJSON(ctx, c, "/v1/stats")
	case "catalog":
		err = getJSON(ctx, c, "/v1/catalog")
	default:
		usage()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "mamactl: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "mamactl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mamactl [-addr url] [-timeout d] [-retries n] [-deadline d] submit|status|result|wait|sweep|stats|catalog ...")
	os.Exit(2)
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		mix        = fs.String("mix", "", "comma-separated trace names, one per core")
		controller = fs.String("controller", "mumama", "prefetch controller key")
		scale      = fs.String("scale", "", "tiny|small|default|full")
		seed       = fs.Uint64("seed", 0, "mix label / cache namespace")
		target     = fs.Uint64("target", 0, "instruction target override")
		step       = fs.Uint64("step", 0, "agent timestep override")
		jobTimeout = fs.Duration("job-timeout", 0, "per-job timeout enforced by the server")
		wait       = fs.Bool("wait", false, "wait until the job finishes and print the result")
	)
	fs.Parse(args)
	if *mix == "" {
		return fmt.Errorf("submit: -mix is required")
	}
	spec := map[string]any{
		"mix":        strings.Split(*mix, ","),
		"controller": *controller,
	}
	if *scale != "" {
		spec["scale"] = *scale
	}
	if *seed != 0 {
		spec["seed"] = *seed
	}
	if *target != 0 {
		spec["target"] = *target
	}
	if *step != 0 {
		spec["step"] = *step
	}
	if *jobTimeout != 0 {
		spec["timeout_ms"] = jobTimeout.Milliseconds()
	}
	body, _ := json.Marshal(spec)
	resp, err := c.Post(ctx, "/v1/jobs", body)
	if err != nil {
		return err
	}
	if resp.Status >= 400 {
		return fmt.Errorf("submit: HTTP %d: %s", resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	var view struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(resp.Body, &view); err != nil {
		return err
	}
	if !*wait {
		fmt.Printf("%s\t%s\n", view.ID, view.Status)
		return nil
	}
	return waitFor(ctx, c, view.ID)
}

func cmdGet(ctx context.Context, c *client.Client, args []string, pathFmt string) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job id")
	}
	return getJSON(ctx, c, fmt.Sprintf(pathFmt, args[0]))
}

func cmdWait(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("wait: expected exactly one job id")
	}
	return waitFor(ctx, c, args[0])
}

// waitFor blocks on the result endpoint until the job leaves
// queued/running, then prints the final body; a failed job exits 1.
func waitFor(ctx context.Context, c *client.Client, id string) error {
	resp, err := c.WaitJob(ctx, id, 0)
	if resp != nil {
		printJSON(resp.Body)
	}
	return err
}

func getJSON(ctx context.Context, c *client.Client, path string) error {
	resp, err := c.Get(ctx, path)
	if err != nil {
		return err
	}
	if resp.Status >= 400 {
		return fmt.Errorf("HTTP %d: %s", resp.Status, strings.TrimSpace(string(resp.Body)))
	}
	printJSON(resp.Body)
	return nil
}

func printJSON(raw []byte) {
	var out bytes.Buffer
	if err := json.Indent(&out, raw, "", "  "); err != nil {
		out.Write(raw)
	}
	fmt.Println(out.String())
}
