package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"micromama/internal/client"
	"micromama/internal/cluster"
	"micromama/internal/server"
)

// clientTimeout bounds one HTTP attempt of a bench client. It only has
// to outlast the slowest legitimate reply; a stuck server should fail
// the run, not hang it.
const clientTimeout = 60 * time.Second

// node is one in-process mamaserved behind a real loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

// startNode builds a server from cfg and serves its Handler on ln. The
// logger is left nil, which the server turns into a discarding one.
func startNode(cfg server.Config, ln net.Listener, mw *middleware) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &node{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.hs = &http.Server{Handler: mw.wrap(srv.Handler())}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return n, nil
}

// stop closes the listener and its connections, then the server, and
// waits for both.
func (n *node) stop() {
	_ = n.hs.Close()
	<-n.done
	n.srv.Close()
}

// drain is the graceful variant: admitted work finishes and the caches
// are flushed to disk before it returns.
func (n *node) drain(ctx context.Context) error {
	_ = n.hs.Close()
	<-n.done
	return n.srv.Shutdown(ctx)
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// clusterPorts are the fixed loopback ports of cluster3_cold's nodes.
// Ring positions are hashes of the peer URLs, so fixed ports make which
// node owns which cell — and with it the balance between nodes — the
// same on every run of a seed. They lie below the kernel's range of
// ephemeral ports (32768 and up), so no outgoing connection of this or
// any other process can be holding one.
var clusterPorts = [3]int{29411, 29412, 29413}

// listenCluster binds the fixed ports. A taken port refuses the run, as
// a MAMA_* knob does: on other ports the ring, and so the numbers, would
// be another benchmark's.
func listenCluster() ([]net.Listener, error) {
	var lns []net.Listener
	for _, p := range clusterPorts {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("cluster3_cold needs loopback ports %v free: %w", clusterPorts, err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// startCluster starts three gossiping nodes with one worker each and
// every other knob at its default, and waits until all three agree on
// the ring. It returns how long that took.
func startCluster(mw *middleware) ([]*node, time.Duration, error) {
	lns, err := listenCluster()
	if err != nil {
		return nil, 0, err
	}
	urls := make([]string, len(lns))
	for i, ln := range lns {
		urls[i] = "http://" + ln.Addr().String()
	}
	begin := time.Now()
	var nodes []*node
	fail := func(err error) ([]*node, time.Duration, error) {
		for _, n := range nodes {
			n.stop()
		}
		for _, ln := range lns[len(nodes):] {
			ln.Close()
		}
		return nil, 0, err
	}
	for i, ln := range lns {
		cl, err := cluster.New(urls[i], urls, cluster.Options{})
		if err != nil {
			return fail(err)
		}
		cl.EnableGossip(cluster.GossipOptions{Seeds: urls})
		n, err := startNode(server.Config{Workers: 1, Cluster: cl}, ln, mw)
		if err != nil {
			return fail(err)
		}
		nodes = append(nodes, n)
	}
	for deadline := begin.Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		agreed := true
		first := nodes[0].srv.Stats().Cluster.RingHash
		for _, n := range nodes {
			cl := n.srv.Stats().Cluster
			if len(cl.Peers) != len(nodes)-1 || cl.RingHash != first {
				agreed = false
			}
		}
		if agreed {
			return nodes, time.Since(begin), nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("cluster did not converge on one ring within 30s"))
		}
	}
}

// newClients builds one client.Client per closed-loop client, each with
// its own connection pool. With a tracer, requests go through a
// transport that stamps them with the span they belong to.
func newClients(base string, n int, t *tracer) []*client.Client {
	out := make([]*client.Client, n)
	for i := range out {
		opts := client.Options{Timeout: clientTimeout}
		if t != nil {
			opts.HTTPClient = &http.Client{
				Timeout: clientTimeout,
				// The same pool sizing as the client's own default
				// transport, which it does not export.
				Transport: tracingTransport{base: &http.Transport{
					MaxIdleConns: 128, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second,
				}},
			}
		}
		out[i] = client.New(base, opts)
	}
	return out
}

// middleware wraps a node's Handler for the traced pass: it times every
// request, counts requests and retryable replies per route, and files a
// span under the op named by X-Bench-Op. Switched off it costs one
// atomic load per request, so one server serves both passes of a traced
// run.
type middleware struct {
	on atomic.Bool
	t  *tracer

	mu     sync.Mutex
	routes map[string]*routeStat
}

type routeStat struct {
	Count     int           `json:"count"`
	Total     time.Duration `json:"total_ns"`
	Retryable int           `json:"retryable"` // 429 and 5xx replies
}

func newMiddleware(t *tracer) *middleware {
	return &middleware{t: t, routes: map[string]*routeStat{}}
}

func (m *middleware) wrap(h http.Handler) http.Handler {
	if m == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !m.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		route := routeOf(r)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		m.mu.Lock()
		rs := m.routes[route]
		if rs == nil {
			rs = &routeStat{}
			m.routes[route] = rs
		}
		rs.Count++
		rs.Total += end.Sub(start)
		if sw.status == http.StatusTooManyRequests || sw.status >= 500 {
			rs.Retryable++
		}
		m.mu.Unlock()
		// A request without the header is a node talking to a node; its
		// span is a root of its own, under no op.
		op, parent, ok := parseBenchOp(r.Header.Get(headerBenchOp))
		if !ok {
			op, parent = -1, 0
		}
		m.t.add("server.http."+route, op, parent, start, end)
	})
}

func (m *middleware) snapshot() map[string]routeStat {
	out := map[string]routeStat{}
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.routes {
		out[k] = *v
	}
	return out
}

// statusWriter remembers the reply's status and keeps streaming
// handlers able to flush.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routeOf names a request by its route, not its URL: job and sweep IDs
// and cache keys are replaced so that every job's poll lands in one
// bucket. Node-to-node traffic is prefixed "peer." whatever its path.
func routeOf(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	for i, p := range parts {
		if isID(p) {
			parts[i] = "ID"
		}
	}
	route := r.Method + "_" + strings.Join(parts, "/")
	if r.Header.Get(cluster.HeaderForwarded) != "" || strings.HasPrefix(r.URL.Path, "/internal/") {
		route = "peer." + route
	}
	return route
}

// isID recognises a content-derived identifier: sixteen or more hex
// digits, after the one-letter prefix job and sweep IDs carry.
func isID(s string) bool {
	if len(s) > 16 && (s[0] == 'j' || s[0] == 's') {
		s = s[1:]
	}
	if len(s) < 16 {
		return false
	}
	for _, c := range s {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}
