package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"

	"micromama/internal/faultinject"
	"micromama/internal/sweep"
	"micromama/internal/telemetry"
)

// Fault-injection sites on the worker path (see internal/faultinject).
// faultWorkerPanic panics inside a job run to exercise panic isolation;
// faultWorkerSlow stretches a run by faultSlowDelay to exercise drain
// deadlines and queue backpressure under load.
var (
	faultWorkerPanic = faultinject.New("server/worker/panic")
	faultWorkerSlow  = faultinject.New("server/worker/slow")
)

// faultSlowDelay is how long an injected slow job stalls. A variable so
// chaos tests can tighten it.
var faultSlowDelay = 100 * time.Millisecond

// job is the server-side state of one submitted simulation. The
// lifecycle is queued → running → done|failed; transitions happen on
// exactly one worker goroutine, while any number of HTTP handlers read
// snapshots through the mutex.
type job struct {
	id      string
	key     string
	spec    JobSpec
	timeout time.Duration
	// reqID is the request ID of the submission that created the job;
	// coalesced submissions keep their own IDs in the access log but the
	// worker-side lifecycle is logged under the creator's.
	reqID string
	// cell is the sweep ticket this job was registered for — the cell
	// that runs. nil when an interactive submission created the job.
	cell *sweep.Ticket
	// remote says the cell was dispatched to a peer rather than run here.
	// Written at registration and read by admitLocked, under Server.mu.
	remote bool

	// done is closed when the job reaches a terminal status, letting
	// long-poll result reads block on completion instead of re-reading
	// the status on a timer.
	done chan struct{}

	mu     sync.Mutex
	status JobStatus
	// riders are sweep tickets dequeued while this job was already queued
	// or running: they wait on its outcome instead of simulating again.
	riders     []sweep.Ticket
	errMsg     string
	result     *JobResult
	cached     bool
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
}

func newJob(id, key string, spec JobSpec, timeout time.Duration, reqID string, cell *sweep.Ticket) *job {
	return &job{
		id: id, key: key, spec: spec, timeout: timeout, reqID: reqID, cell: cell,
		status: StatusQueued, enqueuedAt: time.Now(),
		done: make(chan struct{}),
	}
}

// doneJob builds an already-completed registry entry for a cache hit.
func doneJob(id, key string, spec JobSpec, res JobResult) *job {
	now := time.Now()
	done := make(chan struct{})
	close(done)
	return &job{
		id: id, key: key, spec: spec,
		status: StatusDone, result: &res, cached: true,
		enqueuedAt: now, startedAt: now, finishedAt: now,
		done: done,
	}
}

// join reports the job's status and, if it is still queued or running,
// adds t (when non-nil) to its riders. Status check and append share one
// critical section with finish, so a rider is never added to a job that
// has already handed its riders out.
func (j *job) join(t *sweep.Ticket) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	if t != nil && (j.status == StatusQueued || j.status == StatusRunning) {
		j.riders = append(j.riders, *t)
	}
	return j.status
}

// markRunning flips the job to running and returns how long it waited
// in the queue.
func (j *job) markRunning() time.Duration {
	j.mu.Lock()
	j.status = StatusRunning
	j.startedAt = time.Now()
	wait := j.startedAt.Sub(j.enqueuedAt)
	j.mu.Unlock()
	return wait
}

// finish moves the job to its terminal status, releases everything
// blocked on done, and returns the riders it collected.
func (j *job) finish(res JobResult, err error) []sweep.Ticket {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishedAt = time.Now()
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
	} else {
		j.status = StatusDone
		j.result = &res
	}
	close(j.done)
	riders := j.riders
	j.riders = nil
	return riders
}

// view snapshots the job for the API.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Status:     j.status,
		Spec:       j.spec,
		Cached:     j.cached,
		Error:      j.errMsg,
		EnqueuedAt: j.enqueuedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		v.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	return v
}

// resultSnapshot returns the result if the job completed.
func (j *job) resultSnapshot() (JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return JobResult{}, false
	}
	return *j.result, true
}

// runFunc executes one job spec under ctx. The production
// implementation is Server.simulate; tests inject fakes to make
// queueing and timeout behaviour deterministic.
type runFunc func(ctx context.Context, spec JobSpec) (JobResult, error)

// pool is the worker side of the service: n goroutines drawing work
// from two sources — the interactive job queue and the sweep manager —
// each executing one job at a time under a per-job timeout derived
// from the job spec. Cancellation reaches the simulator at epoch
// granularity through sim.System.RunContext.
//
// Scheduling between the sources is strict priority: a worker always
// takes an interactive job when one is queued, and only otherwise asks
// the sweep manager for a cell (which the manager hands out under
// weighted round-robin across sweeps). With W workers and an
// interactive arrival while all workers are busy, the job waits at
// most one cell execution — a giant sweep cannot starve POST /v1/jobs
// traffic beyond that bound.
type pool struct {
	run     runFunc
	baseCtx context.Context
	// onFinish receives every local run's outcome (Server.finishJob) and
	// returns the job's: a result that cannot be stored fails it.
	onFinish func(*job, JobResult, error) error
	m        *serverMetrics
	log      *slog.Logger
	wg       sync.WaitGroup

	// Sweep dispatch: mgr hands out tickets; runCell (Server.runCell)
	// admits one and sees it to an execution venue, which may be this
	// worker (it calls execute) or a peer (the worker moves on at once).
	mgr     *sweep.Manager
	runCell func(worker int, t sweep.Ticket)
}

// start launches n workers. Workers exit when q is closed and drained
// (beginDrain stops sweep dispatch at the same time); pending jobs
// observe the base context's cancellation and fail fast during
// shutdown.
func (p *pool) start(n int, q *queue) {
	for i := 0; i < n; i++ {
		worker := i
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.drainLoop(worker, q)
		}()
	}
}

// drainLoop is one worker's life: interactive jobs first (non-blocking
// check), then a sweep cell, then block until either source produces
// work. A closed-and-drained interactive queue ends the worker — drain
// closes the queue and the sweep manager together, so no sweep work
// remains dispatchable by then.
func (p *pool) drainLoop(worker int, q *queue) {
	for {
		select {
		case j, open := <-q.jobs():
			if !open {
				return
			}
			p.execute(worker, j)
			continue
		default:
		}
		if t, ok := p.mgr.TryDequeue(); ok {
			p.runCell(worker, t)
			continue
		}
		select {
		case j, open := <-q.jobs():
			if !open {
				return
			}
			p.execute(worker, j)
		case <-p.mgr.WakeCh():
		}
	}
}

// execute runs one registered job on this goroutine and hands the
// outcome to onFinish, which decides and counts the job's.
func (p *pool) execute(worker int, j *job) {
	wait := j.markRunning()
	p.m.waitSeconds.Observe(wait.Seconds())
	p.m.workersBusy.Add(1)
	defer p.m.workersBusy.Add(-1)
	p.log.Info("job started", "req", j.reqID, "job", j.id, "worker", worker,
		"wait_ms", wait.Milliseconds())

	ctx, cancel := context.WithTimeout(p.baseCtx, j.timeout)
	ctx = telemetry.WithRequestID(ctx, j.reqID)
	start := time.Now()
	res, err := p.runIsolated(ctx, j)
	cancel()
	run := time.Since(start)
	p.m.runSeconds.Observe(run.Seconds())
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("job exceeded its %v timeout: %w", j.timeout, err)
	}
	if err = p.onFinish(j, res, err); err != nil {
		p.log.Warn("job failed", "req", j.reqID, "job", j.id, "worker", worker,
			"ms", run.Milliseconds(), "err", err)
	} else {
		p.log.Info("job finished", "req", j.reqID, "job", j.id, "worker", worker,
			"ms", run.Milliseconds())
	}
}

// runIsolated executes one job with panic isolation: a panic anywhere
// in the run (simulator bug, hostile spec, injected fault) is recovered
// here, converted into a job failure carrying the panic value and
// captured stack, and counted — the worker goroutine survives and keeps
// draining the queue. Without this, one bad job kills the whole
// service.
func (p *pool) runIsolated(ctx context.Context, j *job) (res JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			p.m.jobPanics.Inc()
			p.log.Error("job panicked; worker recovered",
				"req", j.reqID, "job", j.id, "panic", fmt.Sprint(r),
				"stack", string(stack))
			res = JobResult{}
			err = fmt.Errorf("job panicked: %v\n%s", r, firstStackLines(stack, 6))
		}
	}()
	if faultWorkerPanic.Fire() {
		panic("faultinject: server/worker/panic")
	}
	if faultWorkerSlow.Fire() {
		select {
		case <-time.After(faultSlowDelay):
		case <-ctx.Done():
		}
	}
	return p.run(ctx, j.spec)
}

// firstStackLines trims a captured stack to its first n lines, enough
// for a job's error message to locate the panic without shipping the
// whole trace to API clients (the full stack goes to the log).
func firstStackLines(stack []byte, n int) string {
	rest := stack
	for i := 0; i < n; i++ {
		nl := -1
		for k, b := range rest {
			if b == '\n' {
				nl = k
				break
			}
		}
		if nl < 0 {
			return string(stack)
		}
		rest = rest[nl+1:]
	}
	return string(stack[:len(stack)-len(rest)])
}

// wait blocks until every worker has exited.
func (p *pool) wait() { p.wg.Wait() }
