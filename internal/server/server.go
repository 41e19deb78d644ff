package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"micromama/internal/cluster"
	"micromama/internal/experiment"
	"micromama/internal/faultinject"
	"micromama/internal/persist"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
	"micromama/internal/trace"
	"micromama/internal/workload"
)

// faultSubmit500 injects a transient 500 into POST /v1/jobs before any
// state changes, exercising client retry paths (safe to retry: the
// submission is idempotent via content-addressed dedup).
var faultSubmit500 = faultinject.New("server/http/submit-500")

// errInternal marks failures that are the server's fault, not the
// client's; handlers map it to HTTP 500 instead of 400.
var errInternal = errors.New("internal error")

// Config tunes the service. Zero values select production defaults.
type Config struct {
	// Workers sizes the worker pool; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 429. 0 means 4×Workers.
	QueueDepth int
	// DefaultTimeout bounds jobs that do not set timeout_ms (default 5m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (default 30m).
	MaxTimeout time.Duration
	// MaxCores bounds the mix size a job may request (default 16).
	MaxCores int
	// CacheDir, when non-empty, mirrors the result cache to disk:
	// completed results are appended behind to CacheDir/records.log (and
	// sweep state to CacheDir/sweeps/records.log) and restored on
	// startup, so a restart serves previously simulated specs as cache
	// hits. Corrupt entries are quarantined, not fatal; a log of another
	// format or model epoch is set aside unread.
	CacheDir string
	// Logger receives structured job-lifecycle logs with per-job request
	// IDs (see internal/telemetry field conventions). nil discards them;
	// cmd/mamaserved always sets one.
	Logger *slog.Logger
	// MaxSweepCells bounds a single sweep's expansion (default 4096).
	MaxSweepCells int
	// Run overrides the execution function (tests only); nil runs real
	// simulations through the one shared experiment.Runner.
	Run runFunc

	// Cluster, when non-nil, makes this server one node of a sharded
	// cluster: requests route to key owners over the consistent-hash
	// ring, sweep admission prefetches remote-owned results, and a
	// sweep's cells are dispatched to every peer with a free slot, owner
	// first. See cluster.go.
	Cluster *cluster.Cluster
	// RemotePeerSlots bounds in-flight remote executions per peer
	// (default Workers). Keeping it near the peers' own pool width is
	// deliberate late binding: cells beyond it stay in this node's queue
	// where a local worker or the next free slot on any peer can still
	// claim them, instead of serializing in one busy peer's queue.
	RemotePeerSlots int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	if c.MaxCores <= 0 {
		c.MaxCores = 16
	}
	if c.Logger == nil {
		c.Logger = telemetry.DiscardLogger()
	}
	return c
}

// Server is the mamaserved service: admission (queue), execution
// (pool), and memoization (cache) behind an HTTP/JSON API.
type Server struct {
	cfg   Config
	q     *queue
	cache *resultCache
	pool  *pool
	log   *slog.Logger

	// reg is this server's private metric registry; metrics is the
	// instrument set registered on it. /metrics serves reg followed by
	// the process-wide default registry.
	reg     *telemetry.Registry
	metrics *serverMetrics

	// jobs is the registry and the one keyed in-flight table: job ID
	// (content-derived) → job. A key that is queued or running anywhere
	// on this node's behalf — a local worker, or the peer a cell was
	// dispatched to — has an entry here before its simulation starts, and
	// admitLocked is the only way in.
	mu   sync.Mutex
	jobs map[string]*job

	// runner simulates every job, whatever its budget: its memo of
	// single-core baselines and S^MP profiles is keyed by plan, budget
	// included, and shared by all workers.
	runner *experiment.Runner

	// configs memoises, per system shape, the sim.Config encoding
	// appendJobKey hashes (see jobhash.go).
	configs configMemo

	// persist mirrors the result cache to disk; nil without CacheDir.
	persist *persist.Store[persistEntry]

	// sweeps orchestrates multi-cell experiment sweeps over the same
	// worker pool (see internal/sweep); always non-nil.
	sweeps *sweep.Manager

	// cl is the cluster runtime (routing, distributed cache, dispatch);
	// nil when this server runs standalone. See cluster.go.
	cl *clusterState

	// draining is set (under mu) when shutdown begins: submissions are
	// refused with 503 and /readyz reports not-ready. drainOnce closes
	// the queue exactly once; the mu ordering guarantees no tryPush can
	// race the close.
	draining  atomic.Bool
	drainOnce sync.Once

	baseCtx context.Context
	cancel  context.CancelFunc
}

// New builds and starts a Server (its worker pool runs until Close or
// Shutdown). The only error path is an unusable CacheDir.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		q:       newQueue(cfg.QueueDepth),
		cache:   newResultCache(),
		log:     cfg.Logger,
		reg:     telemetry.NewRegistry(),
		jobs:    make(map[string]*job),
		runner:  experiment.NewRunner(experiment.ScaleDefault),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.metrics = newServerMetrics(s.reg, s)
	if cfg.CacheDir != "" {
		if err := s.openPersist(); err != nil {
			cancel()
			return nil, err
		}
	}
	// The sweep manager loads after the result cache (its resume pass
	// reconciles persisted cell statuses against restored results) and
	// before the pool starts (workers pull cells from it immediately).
	sweepDir := ""
	if cfg.CacheDir != "" {
		sweepDir = filepath.Join(cfg.CacheDir, "sweeps")
	}
	mgr, err := sweep.New(sweep.Config{
		Exec:     sweepExec{s},
		MaxCells: cfg.MaxSweepCells,
		Dir:      sweepDir,
		Epoch:    experiment.ModelEpoch,
		Registry: s.reg,
		Logger:   s.log,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.sweeps = mgr
	// Touch the shared trace pool so its mama_trace_pool_* series are
	// registered on the default registry (and thus visible on /metrics)
	// before the first job materializes a trace.
	trace.DefaultPool()
	run := cfg.Run
	if run == nil {
		run = s.simulate
	}
	if cfg.Cluster != nil {
		s.cl = newClusterState(s)
	}
	s.pool = &pool{
		run: run, baseCtx: ctx, m: s.metrics, log: s.log, mgr: mgr, runCell: s.runCell,
		onFinish: func(j *job, res JobResult, err error) error { return s.finishJob(j, res, err, true) },
	}
	s.pool.start(cfg.Workers, s.q)
	if s.cl != nil {
		s.cl.start()
	}
	return s, nil
}

// Registry exposes the server's private metric registry (tests and
// embedders; the HTTP surface is GET /metrics).
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// isDraining reports whether shutdown has begun.
func (s *Server) isDraining() bool { return s.draining.Load() }

// beginDrain flips the server into draining mode exactly once: new
// submissions get 503, /readyz reports not-ready, and the queue is
// closed so workers exit after finishing what is already admitted. The
// draining flag is set under mu — the same lock submit holds around
// tryPush — so no push can race the channel close.
func (s *Server) beginDrain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		s.mu.Unlock()
		s.q.close()
		// Sweep dispatch stops with the queue: workers finish what they
		// hold (cancelled cells revert to pending and re-run after
		// restart) and result streams hand clients their resume cursor.
		s.sweeps.Drain()
		s.log.Info("drain started", "queued", s.q.depth())
	})
}

// Shutdown gracefully drains the server: intake stops immediately
// (submissions are refused with 503 + Retry-After), admitted jobs run
// to completion, and the result cache is flushed to disk. If ctx
// expires first, in-flight jobs are cancelled (they fail with
// context.Canceled and are counted as cancelled) and Shutdown returns
// ctx.Err() after the workers exit. Safe to call concurrently with
// Close and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.pool.wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.log.Warn("drain deadline reached; cancelling in-flight jobs")
		s.cancel()
		<-done
	}
	s.cancel()
	if s.cl != nil {
		// Cluster background goroutines (repair, write-backs) exit on the
		// cancelled base context; remote cell executions already drained
		// with the pool.
		s.cl.wait()
	}
	s.persist.Close()
	// The sweep store closes only after the workers are gone, so the
	// final CellDone mutations (including cells handed back as pending)
	// reach disk and the next process resumes from exact state.
	s.sweeps.CloseStore()
	s.log.Info("drain complete", "err", err)
	return err
}

// Close stops admission, cancels in-flight jobs immediately, waits for
// workers, and flushes the persistent cache. It is Shutdown with a
// zero-length drain deadline.
func (s *Server) Close() {
	s.beginDrain()
	s.cancel()
	s.pool.wait()
	if s.cl != nil {
		s.cl.wait()
	}
	s.persist.Close()
	s.sweeps.CloseStore()
}

// plan is a fully resolved job: the normalized spec, the simulation it
// names, and the content address both derive from.
type plan struct {
	experiment.Plan
	spec JobSpec
	key  string
	id   string
}

// resolve validates a spec and computes its canonical plan: appendKey's
// checks and key, then the plan the checked cell names.
func (s *Server) resolve(spec JobSpec) (plan, error) {
	var buf [sweep.DigestLen]byte
	digest, scale, err := s.appendKey(buf[:0], &spec.Cell)
	if err != nil {
		return plan{}, err
	}
	if spec.TimeoutMs < 0 {
		return plan{}, fmt.Errorf("timeout_ms must be >= 0")
	}
	key := hex.EncodeToString(digest)
	return plan{Plan: experiment.PlanOf(&spec.Cell, scale), spec: spec, key: key, id: jobID(key)}, nil
}

// appendKey is the resolver at the depth a sweep needs — it keys every
// cell at admission and plans only the ones it dispatches: c checked
// inside this server's core limit (experiment.CheckCell: normalized in
// place, catalog, registry, scale and budget overrides) and its content
// address's digest appended to dst, with no trace looked up and no
// sim.Config copied. On an error dst comes back as it was given.
func (s *Server) appendKey(dst []byte, c *sweep.Cell) ([]byte, experiment.Scale, error) {
	if s.cfg.MaxCores > 0 && len(c.Mix) > s.cfg.MaxCores {
		return dst, experiment.Scale{}, fmt.Errorf("mix has %d traces; server accepts at most %d cores", len(c.Mix), s.cfg.MaxCores)
	}
	scale, err := experiment.CheckCell(c)
	if err != nil {
		return dst, scale, err
	}
	tail, err := s.configs.resolve(len(c.Mix), c.DRAMMTps, c.DRAMChannels)
	if err != nil {
		// The server's hashing contract is broken, not the request:
		// answer 500, never panic the process on a hostile spec.
		return dst, scale, fmt.Errorf("%w: %v", errInternal, err)
	}
	return appendJobKey(dst, c, tail, scale, experiment.ModelEpoch), scale, nil
}

// simulate is the production runFunc: the job's plan, simulated under
// the job's context on the shared runner.
func (s *Server) simulate(ctx context.Context, spec JobSpec) (JobResult, error) {
	p, err := s.resolve(spec)
	if err != nil {
		return JobResult{}, err
	}
	start := time.Now()
	s.log.Debug("simulation starting",
		"req", telemetry.RequestID(ctx), "job", p.id,
		"mix", p.Mix.Name(), "ctrl", p.Controller, "scale", p.spec.Scale)
	res, err := s.runner.Run(ctx, p.Plan)
	if err != nil {
		s.log.Warn("simulation failed",
			"req", telemetry.RequestID(ctx), "job", p.id,
			"ms", time.Since(start).Milliseconds(), "err", err)
		return JobResult{}, err
	}
	s.metrics.simulations.Inc()
	s.log.Debug("simulation finished",
		"req", telemetry.RequestID(ctx), "job", p.id,
		"ms", time.Since(start).Milliseconds(), "ws", res.WS)
	out := experiment.Summarize(res)
	out.SimMs = time.Since(start).Milliseconds()
	return out, nil
}

// finishJob is where every execution ends, wherever it ran: a local
// worker, or the peer a cell was dispatched to. A successful result
// enters the content-addressed cache before the job flips to done, so a
// cache miss followed by a registry hit can never observe a done job
// without a cached result; held ?wait= requests are released; then
// every sweep cell waiting on the job is settled. ranHere says this node
// simulated the result: only then is the run counted, once its outcome
// is final and before anyone can read it, and the result pushed to the
// key's owner (a result that came from a peer is the owner's own, or
// that peer has already written it back). It returns the job's final
// error: the run's, or that its result does not encode.
func (s *Server) finishJob(j *job, res JobResult, err error, ranHere bool) error {
	var raw json.RawMessage
	if err == nil {
		raw, err = s.storeResult(j.key, res) // a result that does not encode fails its job
		if err == nil && ranHere && s.cl != nil {
			s.cl.writeBack(j.key, raw)
		}
	}
	if m := s.metrics; ranHere {
		switch {
		case err == nil:
			m.jobsCompleted.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			m.jobsTimeout.Inc()
		case errors.Is(err, context.Canceled):
			m.jobsCancelled.Inc()
		}
		if err != nil {
			m.jobsFailed.Inc()
		}
	}
	s.settle(j.cell, j.finish(res, err), err)
	return err
}

// jobTimeout is the one rule for a job's execution deadline: the
// requested timeout_ms clamped to MaxTimeout, DefaultTimeout when unset.
// The clamp compares milliseconds, since ms×1e6 ns can overflow.
func (s *Server) jobTimeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	if ms >= s.cfg.MaxTimeout.Milliseconds() {
		return s.cfg.MaxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// admission is how admitLocked disposed of a key.
type admission int

const (
	admitHit      admission = iota // cached: the returned job is done
	admitAttached                  // queued or running: joined that job
	admitNew                       // registered a new job; someone owes it an execution
	admitRefused                   // enqueue only: the queue is full, nothing registered
)

// admitLocked is the one admit step (s.mu held), serving interactive
// submissions and every dequeued sweep ticket alike: a key that is
// queued or running takes the caller onto its job (t, when non-nil,
// rides on it); a cached key is answered with a done job; anything else
// registers a new job. The registry is checked before the cache because
// a job flips to done only after its result is cached — in this order
// no key can be seen as neither. With enqueue the new job goes onto the
// interactive queue (or is refused when that is full); without, the
// caller executes it.
//
// One exception to attaching, for a request fromPeer — a cell some
// other node dispatched here: unless this node owns the key, it does
// not ride on a job that is itself out on a peer, it runs here (the
// registry entry is replaced, as a failed job's is; the job that is out
// still settles its own tickets). So a wait that crosses nodes ends in
// a local run after at most two hops — requester → owner → the venue
// the owner spilled to — and two nodes that sent each other the same
// key in the same instant cannot wait on each other.
func (s *Server) admitLocked(key string, spec JobSpec, reqID string, t *sweep.Ticket, enqueue, fromPeer bool) (*job, admission) {
	id := jobID(key)
	j, known := s.jobs[id]
	var st JobStatus
	if known {
		mayRide := !(fromPeer && j.remote && !s.cl.c.IsSelf(s.cl.c.Owner(key)))
		if st = j.join(t); (st == StatusQueued || st == StatusRunning) && mayRide {
			return j, admitAttached
		}
	}
	if hit, ok := s.cache.get(key); ok {
		if st != StatusDone {
			j = doneJob(id, key, spec, hit.res)
			s.jobs[id] = j
		}
		return j, admitHit
	}
	// Never seen, or failed: a failed job is retried by resubmission.
	j = newJob(id, key, spec, s.jobTimeout(spec.TimeoutMs), reqID, t)
	if enqueue && !s.q.tryPush(j) {
		return nil, admitRefused
	}
	s.jobs[id] = j
	return j, admitNew
}

// submit admits one interactive job: cache hit → done immediately;
// identical job already queued or running → coalesce onto it; queue
// full or draining → reject. Returns the job and the HTTP status to
// answer with. fromPeer marks a submission another node forwarded.
func (s *Server) submit(spec JobSpec, fromPeer bool) (*job, int, error) {
	p, err := s.resolve(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errInternal) {
			status = http.StatusInternalServerError
		}
		return nil, status, err
	}
	reqID := telemetry.NewRequestID(p.id)

	s.mu.Lock()
	defer s.mu.Unlock()

	// Draining: refuse before touching any state. Clients retry against
	// the replacement process (the persisted cache makes that cheap).
	if s.draining.Load() {
		s.metrics.rejectedDraining.Inc()
		s.log.Warn("job refused: draining", "req", reqID, "job", p.id)
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("server is draining; retry against a healthy instance")
	}

	j, how := s.admitLocked(p.key, p.spec, reqID, nil, true, fromPeer)
	status, outcome := http.StatusAccepted, "queued"
	switch how {
	case admitRefused:
		s.metrics.jobsRejected.Inc()
		s.log.Warn("job rejected", "req", reqID, "job", p.id,
			"queue_depth", s.q.depth(), "queue_cap", s.q.cap())
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("queue full (%d jobs waiting); retry later", s.q.depth())
	case admitHit:
		s.metrics.cacheHits.Inc()
		status, outcome = http.StatusOK, "cache_hit"
	case admitAttached:
		s.metrics.dedupHits.Inc()
		outcome = "dedup"
	case admitNew:
		s.metrics.cacheMisses.Inc()
	}
	s.metrics.jobsSubmitted.Inc()
	s.log.Info("job submitted", "req", reqID, "job", j.id, "outcome", outcome,
		"mix", j.spec.Mix, "ctrl", j.spec.Controller, "queue_depth", s.q.depth())
	return j, status, nil
}

// jobByID returns the registry entry for a job ID.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats snapshots the service counters (the JSON sibling of /metrics;
// both read the same instruments).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	m := s.metrics
	var cl *ClusterStats
	if s.cl != nil {
		cl = s.cl.stats()
	}
	return Stats{
		Cluster:          cl,
		Submitted:        m.jobsSubmitted.Value(),
		Completed:        m.jobsCompleted.Value(),
		Failed:           m.jobsFailed.Value(),
		Panics:           m.jobPanics.Value(),
		Rejected:         m.jobsRejected.Value(),
		CacheHits:        m.cacheHits.Value(),
		DedupHits:        m.dedupHits.Value(),
		Simulations:      m.simulations.Value(),
		QueueDepth:       s.q.depth(),
		QueueCap:         s.q.cap(),
		Workers:          s.cfg.Workers,
		CachedKeys:       s.cache.size(),
		JobsTracked:      tracked,
		Draining:         s.isDraining(),
		CacheLoaded:      m.persist.Loaded.Value(),
		CacheQuarantined: m.persist.Quarantined.Value(),
		Sweeps:           s.sweeps.Counts(),
	}
}

// Handler returns the service's HTTP API, including the standard
// net/http/pprof endpoints under /debug/pprof/ for live profiling of
// the worker pool (CPU profile, heap, goroutines, execution trace).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// Prometheus text-format exposition: this server's registry followed
	// by the process-wide one (sim progress, trace pool, experiment
	// caches).
	if s.cl != nil {
		s.cl.registerHandlers(mux)
	}
	mux.Handle("GET /metrics", telemetry.Handler(s.reg, telemetry.Default()))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// retryAfterSeconds estimates how long a rejected client should back
// off before resubmitting, derived from live queue-wait telemetry: the
// mean observed wait (enqueue → worker pickup) scaled by how full the
// queue currently is. No samples yet → 1s. Clamped to [1, 60] so the
// header is always a sane integer.
func (s *Server) retryAfterSeconds() int {
	h := s.metrics.waitSeconds
	n := h.Count()
	if n == 0 {
		return 1
	}
	mean := h.Sum() / float64(n)
	est := mean
	if c := s.q.cap(); c > 0 {
		est = mean * float64(s.q.depth()) / float64(c)
	}
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if faultSubmit500.Fire() {
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: "injected fault: server/http/submit-500"})
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error()})
		return
	}
	// Clustered and not already routed once: hand the job to its owning
	// peer, whose cache and singleflight see every copy of this key.
	// Falls through to the local path when we own the key or the owner
	// is unreachable (degrade to local compute, never to an error).
	forwarded := r.Header.Get(cluster.HeaderForwarded) != ""
	if s.cl != nil && !forwarded && !s.isDraining() {
		if s.cl.proxySubmit(w, r, spec) {
			return
		}
	}
	j, status, err := s.submit(spec, forwarded)
	if err != nil {
		switch status {
		case http.StatusTooManyRequests:
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		case http.StatusServiceUnavailable:
			// Draining: this process will not take the job; the retry
			// interval only needs to outlive a restart or failover.
			w.Header().Set("Retry-After", "5")
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, status, j.view())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobByID(id)
	if !ok {
		// Unknown here but maybe tracked by its owner: the job ID embeds
		// the routing prefix, so any node can locate it.
		if s.cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" &&
			s.cl.proxyLookup(w, r, id, "/v1/jobs/"+id) {
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// resultBody is the /result payload: the job view plus, when done, the
// metrics. 202 while the job is queued/running; then either result
// (done, 200) or error (failed, 200).
type resultBody struct {
	JobView
	Result *JobResult `json:"result,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobByID(id)
	if !ok {
		if s.cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" &&
			s.cl.proxyLookup(w, r, id, "/v1/jobs/"+id+"/result") {
			return
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	// ?wait=<duration> long-polls: block until the job reaches a terminal
	// status or the wait elapses, then answer normally. Every in-repo
	// waiter (client.WaitJob, remote cell executors) uses this, so a
	// completion reaches them as an event rather than on a timer. The
	// wait is capped so a stuck job cannot pin handler goroutines
	// indefinitely. Without wait this is a plain status read.
	if ws := r.URL.Query().Get("wait"); ws != "" {
		wait, err := time.ParseDuration(ws)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad wait duration: " + ws})
			return
		}
		if wait > 0 {
			s.holdResult(r, j, min(wait, cluster.MaxResultWait))
		}
	}
	body := resultBody{JobView: j.view()}
	status := http.StatusOK
	switch body.Status {
	case StatusQueued, StatusRunning:
		status = http.StatusAccepted
	case StatusDone:
		if res, ok := j.resultSnapshot(); ok {
			body.Result = &res
		}
	}
	writeJSON(w, status, body)
}

// holdResult blocks one ?wait= request until the job finishes, the wait
// elapses, the client goes away, or the server shuts down, and records
// which of the four released it and after how long.
func (s *Server) holdResult(r *http.Request, j *job, wait time.Duration) {
	begin := time.Now()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	m := s.metrics
	var outcome *telemetry.Counter
	select {
	case <-j.done:
		outcome = m.resultWaitDone
	case <-timer.C:
		outcome = m.resultWaitTimeout
	case <-r.Context().Done():
		outcome = m.resultWaitGone
	case <-s.baseCtx.Done():
		outcome = m.resultWaitShutdown
	}
	// select picks at random when the job finished in the same instant as
	// another release; the waiter is answered with the result, so count
	// what it got.
	select {
	case <-j.done:
		outcome = m.resultWaitDone
	default:
	}
	outcome.Inc()
	m.resultWaitSeconds.Observe(time.Since(begin).Seconds())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// catalogEntry is one /v1/catalog row.
type catalogEntry struct {
	Name      string `json:"name"`
	Class     string `json:"class"`
	Sensitive bool   `json:"sensitive"`
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	specs := workload.Catalog()
	out := struct {
		Traces      []catalogEntry `json:"traces"`
		Controllers []string       `json:"controllers"`
		// ControllerParams lists, per controller whose key takes any, what
		// may follow the name as @param=value.
		ControllerParams map[string][]experiment.Param `json:"controller_params"`
		Scales           []string                      `json:"scales"`
	}{
		Controllers:      experiment.ControllerKeys,
		ControllerParams: experiment.ControllerParams,
		Scales:           experiment.ScaleNames(),
	}
	for _, sp := range specs {
		out.Traces = append(out.Traces, catalogEntry{
			Name: sp.Name, Class: string(sp.Class), Sensitive: sp.Sensitive,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It stays 200 even while draining, so orchestrators do not kill a
// process that is finishing its jobs.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether this instance should receive new
// traffic. Not ready while draining or while the admission queue is
// full — both states mean a new submission would be refused anyway.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	threshold := s.q.cap()
	depth := s.q.depth()
	switch {
	case s.isDraining():
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "draining"})
	case depth >= threshold:
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "saturated", "queue_depth": depth, "threshold": threshold})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
