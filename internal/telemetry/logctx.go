package telemetry

import (
	"context"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Structured-logging conventions shared by every long-running binary:
// request IDs minted at the HTTP edge ride the context through queue →
// worker → runner, so one grep over `req` reconstructs a job's whole
// path. Field names are fixed here so log consumers can rely on them:
//
//	req    request ID (r<seq>-<job prefix> on mamaserved)
//	job    content-derived job ID
//	mix    workload mix name
//	ctrl   controller key
//	ms     duration in milliseconds

type ctxKey struct{}

var reqSeq atomic.Uint64

// NewRequestID mints a process-unique request ID. hint (a job-ID
// prefix, for example) is folded in so IDs stay greppable next to the
// jobs they belong to.
func NewRequestID(hint string) string {
	n := reqSeq.Add(1)
	if len(hint) > 8 {
		hint = hint[:8]
	}
	if hint == "" {
		return "r" + strconv.FormatUint(n, 10)
	}
	return "r" + strconv.FormatUint(n, 10) + "-" + hint
}

// WithRequestID stamps a request ID onto ctx.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestID extracts the request ID from ctx, or "" when unset.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// DiscardLogger returns a logger that is disabled at every level, the
// default of a component given none: a log call costs its arguments and
// nothing else. (A handler that writes to io.Discard is enabled at Info,
// so it builds and formats every record before throwing it away.)
func DiscardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// NewLogger builds a slog.Logger writing to stderr at the given level
// ("debug", "info", "warn", "error") in the given format ("text" or
// "json"). Unknown values fall back to info/text.
func NewLogger(level, format string) *slog.Logger {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		lv = slog.LevelInfo
	}
	opts := &slog.HandlerOptions{Level: lv}
	if strings.EqualFold(format, "json") {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}
