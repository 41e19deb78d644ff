package server

import (
	"micromama/internal/persist"
	"micromama/internal/telemetry"
)

// serverMetrics is every instrument mamaserved exports under
// mama_server_*. Each Server owns a private registry (so tests and
// embedders get isolated counters); the /metrics endpoint serves it
// together with the process-wide default registry (sim, trace pool,
// experiment caches).
type serverMetrics struct {
	// Admission.
	jobsSubmitted *telemetry.Counter // accepted POSTs (incl. cache/dedup hits)
	jobsRejected  *telemetry.Counter // 429s from queue overflow
	cacheHits     *telemetry.Counter // submissions served by the result cache
	cacheMisses   *telemetry.Counter // submissions that enqueued a new simulation
	dedupHits     *telemetry.Counter // submissions coalesced onto an in-flight job

	// Execution.
	jobsCompleted *telemetry.Counter
	jobsFailed    *telemetry.Counter // all failures, incl. timeouts/cancels
	jobsTimeout   *telemetry.Counter // failures from the per-job deadline
	jobsCancelled *telemetry.Counter // failures from server shutdown
	jobPanics     *telemetry.Counter // recovered panics inside job runs
	simulations   *telemetry.Counter // RunMix executions actually performed
	workersBusy   *telemetry.Gauge

	// Drain. Submissions refused with 503 while the server drains.
	rejectedDraining *telemetry.Counter

	// Persistence (the -cache-dir write-behind mirror).
	persist persist.Metrics

	// Latency. Wait = enqueue → worker pickup; run = pickup → finish.
	waitSeconds *telemetry.Histogram
	runSeconds  *telemetry.Histogram

	// Held GET …/result?wait= requests, by what released them, and how
	// long each was held. The server-side view of what a waiter
	// experiences as notify lag.
	resultWaitDone     *telemetry.Counter // the job finished
	resultWaitTimeout  *telemetry.Counter // the wait elapsed first (202, waiter re-issues)
	resultWaitGone     *telemetry.Counter // the waiter disconnected
	resultWaitShutdown *telemetry.Counter // this server began shutting down
	resultWaitSeconds  *telemetry.Histogram
}

// newServerMetrics registers the instrument set on r and wires the
// sampled gauges to live server state.
func newServerMetrics(r *telemetry.Registry, s *Server) *serverMetrics {
	resultWaits := func(outcome string) *telemetry.Counter {
		return r.Counter("mama_result_waits_total",
			"Held GET /v1/jobs/{id}/result?wait= requests, by what released them.",
			telemetry.L("outcome", outcome))
	}
	m := &serverMetrics{
		jobsSubmitted: r.Counter("mama_server_jobs_submitted_total",
			"Job submissions accepted (including cache and dedup hits)."),
		jobsRejected: r.Counter("mama_server_jobs_rejected_total",
			"Job submissions rejected with 429 because the queue was full."),
		cacheHits: r.Counter("mama_server_result_cache_hits_total",
			"Submissions served directly from the content-addressed result cache."),
		cacheMisses: r.Counter("mama_server_result_cache_misses_total",
			"Submissions that missed the result cache and enqueued a simulation."),
		dedupHits: r.Counter("mama_server_dedup_hits_total",
			"Submissions coalesced onto an identical queued or running job."),
		jobsCompleted: r.Counter("mama_server_jobs_completed_total",
			"Jobs that finished successfully."),
		jobsFailed: r.Counter("mama_server_jobs_failed_total",
			"Jobs that finished with an error (including timeouts and cancellations)."),
		jobsTimeout: r.Counter("mama_server_jobs_timeout_total",
			"Jobs that failed by exceeding their per-job deadline."),
		jobsCancelled: r.Counter("mama_server_jobs_cancelled_total",
			"Jobs aborted by server shutdown."),
		jobPanics: r.Counter("mama_server_job_panics_total",
			"Panics recovered inside job runs (the worker survived)."),
		rejectedDraining: r.Counter("mama_server_jobs_rejected_draining_total",
			"Job submissions refused with 503 because the server was draining."),
		persist: persist.NewMetrics(r, "mama_server_cache_persist", "result-cache entries"),
		simulations: r.Counter("mama_server_simulations_total",
			"RunMix simulations actually executed (cache misses that ran)."),
		workersBusy: r.Gauge("mama_server_workers_busy",
			"Workers currently executing a job."),
		waitSeconds: r.Histogram("mama_server_job_wait_seconds",
			"Queue wait per job: enqueue to worker pickup.", telemetry.DurationBuckets),
		runSeconds: r.Histogram("mama_server_job_run_seconds",
			"Execution time per job: worker pickup to finish.", telemetry.DurationBuckets),
		resultWaitDone:     resultWaits("done"),
		resultWaitTimeout:  resultWaits("timeout"),
		resultWaitGone:     resultWaits("gone"),
		resultWaitShutdown: resultWaits("shutdown"),
		resultWaitSeconds: r.Histogram("mama_result_wait_seconds",
			"How long each held result request stayed open before it was released.",
			telemetry.DurationBuckets),
	}
	r.GaugeFunc("mama_server_queue_depth",
		"Jobs waiting in the admission queue.",
		func() float64 { return float64(s.q.depth()) })
	r.GaugeFunc("mama_server_queue_capacity",
		"Admission queue capacity (submissions beyond it get 429).",
		func() float64 { return float64(s.q.cap()) })
	r.GaugeFunc("mama_server_workers",
		"Size of the worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("mama_server_result_cache_entries",
		"Distinct results in the content-addressed cache.",
		func() float64 { return float64(s.cache.size()) })
	r.GaugeFunc("mama_server_jobs_tracked",
		"Jobs held in the registry (any status).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.jobs))
		})
	r.GaugeFunc("mama_server_draining",
		"1 while the server is draining (refusing new submissions), else 0.",
		func() float64 {
			if s.isDraining() {
				return 1
			}
			return 0
		})
	return m
}
