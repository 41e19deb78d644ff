package experiment

import "micromama/internal/telemetry"

// cacheStats is the counter trio of one kind of memo lookup.
type cacheStats struct{ hits, misses, merges *telemetry.Counter }

func newCacheStats(cache string) cacheStats {
	l := telemetry.L("cache", cache)
	return cacheStats{
		hits: telemetry.Default().Counter("mama_experiment_cache_hits_total",
			"Runner cache lookups served without simulating, by cache.", l),
		misses: telemetry.Default().Counter("mama_experiment_cache_misses_total",
			"Runner cache computations actually executed, by cache.", l),
		merges: telemetry.Default().Counter("mama_experiment_singleflight_merges_total",
			"Concurrent callers coalesced onto an in-flight computation, by cache.", l),
	}
}

// A Runner has one memo; the cache label says what a lookup was for —
// a baseline IPC, an S^MP profile or a RunCells result — whichever kind
// of caller simulated the plan first. Shared by every Runner in the
// process.
var baselineStats, profileStats, cellStats = newCacheStats("baseline"), newCacheStats("profile"), newCacheStats("cell")
