package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// pullKey is the i-th synthetic cache key: 16 hex digits that neither
// sort nor hash in insertion order.
func pullKey(i int) string {
	return fmt.Sprintf("%016x", uint64(i+1)*0x9e3779b97f4a7c15)
}

// pullPage posts one /internal/cache/pull request straight at the
// handler.
func pullPage(tb testing.TB, h http.Handler, req cachePullRequest) cachePullResponse[JobResult] {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/internal/cache/pull", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("pull: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var out cachePullResponse[JobResult]
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		tb.Fatal(err)
	}
	return out
}

// BenchmarkCachePullPage is one boot-repair page served from a warm
// 10 000-entry cache: the middle page of a scan, 256 results. Every
// page copies and sorts all keys (resultCache.keysSorted), so the cost
// scales with cache size, not page size.
func BenchmarkCachePullPage(b *testing.B) {
	const n, page = 10000, 256
	nodes := startCluster(b, 2, nil)
	for i := 0; i < n; i++ {
		key := pullKey(i)
		nodes[0].srv.cache.put(key, JobResult{Mix: key, WS: float64(i)})
	}
	h := nodes[0].srv.Handler()
	// Keys are uniform hex, so "8" is the cursor of the scan's middle page.
	req := cachePullRequest{Owner: nodes[1].url, After: "8", Max: page}
	if got := len(pullPage(b, h, req).Results); got != page {
		b.Fatalf("page has %d results, want %d", got, page)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pullPage(b, h, req)
	}
}
