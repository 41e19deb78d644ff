// Command mamaserved serves simulation jobs over HTTP: a bounded job
// queue, a worker pool running experiment.Runner simulations, and a
// content-addressed result cache (see docs/ARCHITECTURE.md).
//
// Usage:
//
//	mamaserved -addr :8077 -workers 8 -queue 64
//
// Endpoints:
//
//	POST /v1/jobs                submit a job (JSON spec)
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/result    metrics (202 until finished)
//	POST /v1/sweeps              submit an experiment sweep (grid and/or cells)
//	GET  /v1/sweeps              list sweeps
//	GET  /v1/sweeps/{id}         sweep status
//	GET  /v1/sweeps/{id}/results stream cell results (NDJSON or SSE, cursor resume)
//	GET  /v1/stats               service counters
//	GET  /v1/catalog             traces, controllers, scales
//	GET  /metrics                Prometheus text-format telemetry
//	GET  /healthz                liveness (200 while the process is up, even draining)
//	GET  /readyz                 readiness (503 while draining or queue-saturated)
//	GET  /debug/pprof/           live profiling (net/http/pprof)
//
// On SIGTERM/SIGINT the server drains gracefully: new submissions are
// refused with 503 + Retry-After, in-flight and queued jobs finish (up
// to -drain-timeout, then they are cancelled), and with -cache-dir the
// result cache is flushed so a restarted process serves previously
// completed specs as cache hits. Incomplete sweeps persist alongside
// the cache and resume after restart without recomputing finished
// cells.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/server"
	"micromama/internal/telemetry"
	"micromama/internal/trace"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 0, "job queue depth (0 = 4x workers)")
		jobTimeout = flag.Duration("job-timeout", 5*time.Minute, "default per-job timeout")
		maxTimeout = flag.Duration("max-timeout", 30*time.Minute, "upper bound on client-requested timeouts")
		maxCores   = flag.Int("max-cores", 16, "largest mix a job may request")
		maxCells   = flag.Int("max-sweep-cells", 0, "largest expansion a single sweep may request (0 = 4096)")
		traceCache = flag.String("trace-cache", "", "directory of MMT1 trace files (from tracegen) preloaded into the shared trace pool; cached traces loop at their recorded length")
		cacheDir   = flag.String("cache-dir", "", "directory for crash-safe result-cache persistence (restored on startup; corrupt entries quarantined)")
		drainT     = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight jobs before cancelling them")
		logLevel   = flag.String("log-level", "info", "structured-log level: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "structured-log format: text|json")

		// Cluster membership (see docs/ARCHITECTURE.md, "Cluster &
		// sharding"). A node is clustered iff -advertise is set; -peers
		// and -join only say where membership starts. The live member set
		// is maintained by the SWIM failure detector, so a node can die,
		// rejoin, or be added without restarting the rest.
		advertise   = flag.String("advertise", "", "this node's URL as peers reach it (e.g. http://10.0.0.5:8077); setting it makes the node one member of a sharded cluster")
		peers       = flag.String("peers", "", "comma-separated peer URLs assumed alive at boot (include or omit this node; it is added automatically); the live set evolves from there by gossip")
		join        = flag.String("join", "", "comma-separated URLs of existing cluster nodes to join via gossip; unlike -peers they are contacted, not assumed — membership comes from what they answer")
		gossipEvery = flag.Duration("gossip-interval", time.Second, "SWIM probe interval (must be positive)")
		suspectT    = flag.Duration("suspect-timeout", 0, "how long a suspected peer has to refute before it is confirmed dead (0 = 5x gossip-interval)")
	)
	flag.Parse()

	logger := telemetry.NewLogger(*logLevel, *logFormat)

	var cl *cluster.Cluster
	if *advertise != "" {
		if *gossipEvery <= 0 {
			fmt.Fprintln(os.Stderr, "mamaserved: -gossip-interval must be positive: every clustered node runs the failure detector")
			os.Exit(2)
		}
		list, joinSeeds := splitList(*peers), splitList(*join)
		var err error
		cl, err = cluster.New(*advertise, list, cluster.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mamaserved:", err)
			os.Exit(1)
		}
		// Every bootstrap source doubles as a gossip seed: a restarted
		// node re-syncs with whoever it knew, learns its own tombstone,
		// and rejoins with a bumped incarnation — no flag changes needed.
		cl.EnableGossip(cluster.GossipOptions{
			Interval:       *gossipEvery,
			SuspectTimeout: *suspectT,
			Seeds:          append(list, joinSeeds...),
		})
		logger.Info("cluster configured", "self", cl.Self(),
			"peers", len(cl.Peers()), "ring_size", cl.Size(), "seeds", len(list)+len(joinSeeds))
	} else if *peers != "" || *join != "" {
		fmt.Fprintln(os.Stderr, "mamaserved: -advertise is required with -peers/-join")
		os.Exit(2)
	}

	if *traceCache != "" {
		n, errs := trace.DefaultPool().PreloadDir(*traceCache)
		for _, err := range errs {
			logger.Warn("trace-cache preload", "err", err)
		}
		logger.Info("trace cache preloaded", "traces", n, "dir", *traceCache)
	}

	svc, err := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
		MaxCores:       *maxCores,
		MaxSweepCells:  *maxCells,
		CacheDir:       *cacheDir,
		Logger:         logger,
		Cluster:        cl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mamaserved:", err)
		os.Exit(1)
	}
	defer svc.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Graceful drain: the service stops intake first (submits get
		// 503 + Retry-After while /healthz stays 200 and results remain
		// readable), finishes admitted jobs up to -drain-timeout, and
		// flushes the persistent cache; only then does the HTTP listener
		// shut down.
		logger.Info("signal received; draining", "timeout", *drainT)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainT)
		if err := svc.Shutdown(drainCtx); err != nil {
			logger.Warn("drain ended early", "err", err)
		}
		cancel()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	st := svc.Stats()
	logger.Info("mamaserved listening", "addr", *addr,
		"workers", st.Workers, "queue_cap", st.QueueCap)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mamaserved:", err)
		os.Exit(1)
	}
	logger.Info("mamaserved shut down")
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
