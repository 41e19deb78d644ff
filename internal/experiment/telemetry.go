package experiment

import "micromama/internal/telemetry"

// cacheStats is one Runner cache's counter trio.
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

// Baseline-IPC, S^MP-profile and RunCells-result cache telemetry,
// shared by every Runner in the process (mamaserved keeps one Runner
// per scale; the cache counters aggregate across them).
var baselineStats, profileStats, cellStats = newCacheStats("baseline"), newCacheStats("profile"), newCacheStats("cell")
