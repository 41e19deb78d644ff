// Package server implements mamaserved: an HTTP/JSON service that runs
// (mix, config, controller) simulation jobs through experiment.Runner.
// It is built from three pieces — a bounded job queue with 429
// backpressure, a worker pool executing jobs with per-job timeout and
// cancellation, and a content-addressed result cache with singleflight
// deduplication so identical in-flight requests share one simulation.
package server

import (
	"time"

	"micromama/internal/cluster"
	"micromama/internal/experiment"
	"micromama/internal/sweep"
)

// JobSpec is the client-supplied description of one simulation job: a
// sweep cell — the same fields in the same order, so a job and a cell
// of the same parameters are one content address — plus the one
// execution-only knob.
type JobSpec struct {
	sweep.Cell
	// TimeoutMs bounds the job's wall-clock execution; 0 uses the
	// server default. Values above the server maximum are clamped.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// JobStatus is a job's lifecycle state: queued → running → done|failed.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	StatusDone    JobStatus = "done"
	StatusFailed  JobStatus = "failed"
)

// JobResult is the metrics payload of a finished job: the experiment
// package's one projection of a measurement, so a figure's reducer
// reads the same value whether its cells ran in-process or here. Its
// Sim pointer stays nil on this side of the wire (simulate never sets
// it), so the result cache retains the encoded fields and nothing else.
type JobResult = experiment.CellResult

// JobView is the API representation of a job.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Spec   JobSpec   `json:"spec"`
	// Cached reports that the submission was satisfied from the result
	// cache without queueing a simulation.
	Cached     bool       `json:"cached,omitempty"`
	Error      string     `json:"error,omitempty"`
	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Stats is the /v1/stats payload: monotonically increasing counters
// plus instantaneous gauges.
type Stats struct {
	Submitted   uint64 `json:"submitted"`    // accepted POSTs (incl. cache/dedup hits)
	Completed   uint64 `json:"completed"`    // jobs finished successfully
	Failed      uint64 `json:"failed"`       // jobs finished with an error (incl. timeouts)
	Panics      uint64 `json:"panics"`       // recovered panics inside job runs
	Rejected    uint64 `json:"rejected"`     // 429s from queue overflow
	CacheHits   uint64 `json:"cache_hits"`   // submissions satisfied by the result cache
	DedupHits   uint64 `json:"dedup_hits"`   // submissions coalesced onto an in-flight job
	Simulations uint64 `json:"simulations"`  // job simulations actually performed
	QueueDepth  int    `json:"queue_depth"`  // jobs currently waiting
	QueueCap    int    `json:"queue_cap"`    // queue capacity
	Workers     int    `json:"workers"`      // worker-pool size
	CachedKeys  int    `json:"cached_keys"`  // distinct results in the cache
	JobsTracked int    `json:"jobs_tracked"` // jobs in the registry
	// Resilience state.
	Draining         bool   `json:"draining"`          // shutdown in progress; submits get 503
	CacheLoaded      uint64 `json:"cache_loaded"`      // entries restored from -cache-dir at startup
	CacheQuarantined uint64 `json:"cache_quarantined"` // corrupt cache files quarantined at startup
	// Sweep orchestration (see internal/sweep).
	Sweeps sweep.Counts `json:"sweeps"`
	// Cluster is present only when this node is part of a sharded
	// cluster (see cluster.go).
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the cluster block of /v1/stats: this node's view of
// the ring plus its cross-shard traffic counters.
type ClusterStats struct {
	Self      string   `json:"self"`
	Peers     []string `json:"peers"`
	Unhealthy []string `json:"unhealthy,omitempty"` // ring peers routing avoids right now (cluster.Healthy false)

	// Gossip membership (see internal/cluster/gossip.go). RingHash is
	// identical on every converged node; MembershipVersion is node-local.
	Members           []cluster.MemberInfo `json:"members,omitempty"`
	MembershipVersion uint64               `json:"membership_version"`
	RingHash          uint64               `json:"ring_hash"`
	SelfIncarnation   uint64               `json:"self_incarnation"`
	Suspicions        uint64               `json:"suspicions"`
	Refutes           uint64               `json:"refutes"`
	ConfirmedDead     uint64               `json:"confirmed_dead"`
	RepairPulled      uint64               `json:"repair_pulled"`

	Proxied           uint64 `json:"proxied"`             // requests forwarded to owners
	ProxyErrors       uint64 `json:"proxy_errors"`        // forwards that failed in transport
	DegradedLocal     uint64 `json:"degraded_local"`      // owner down: computed locally
	RemoteCacheHits   uint64 `json:"remote_cache_hits"`   // results fetched from owners (cross-shard hits)
	RemoteCacheMisses uint64 `json:"remote_cache_misses"` // remote lookups that found nothing
	RemoteCells       uint64 `json:"remote_cells"`        // sweep cells executed on a peer
	CacheServed       uint64 `json:"cache_served"`        // cache entries served to peers
	Writebacks        uint64 `json:"writebacks"`          // off-owner results pushed to owners
	// StolenFromPeers is always 0: nothing sets it since work stealing
	// went. bench/mamaload still reads it for its cluster.stolen_cells
	// row; it goes when the [benchmark] PR of ROADMAP item 7 drops that row.
	StolenFromPeers uint64 `json:"stolen_from_peers"`
}
