package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// minSamples is the least number of timed ops in a measured phase: a p90
// needs ten samples beyond it. A phase whose time is up before it has
// them keeps going until it does.
const minSamples = 100

// work is what a workload hands the closed loop: how many clients, how
// many consecutive ops make up one epoch of constant work, and the op
// itself. Op i is dealt to whichever client is free next, so the op
// sequence — and the work in each epoch — is the same however the
// clients interleave.
type work struct {
	clients     int
	opsPerEpoch int
	// rssAtOp is the op count at which peak memory is read. A run is
	// bounded by time, so a faster program completes more ops; where
	// memory grows with every op (sweep_warm: sweep state is never
	// pruned) a reading at the end would call a speed-up a regression.
	// A phase that ends before this many ops reads it at its end.
	rssAtOp int
	op      func(ctx context.Context, client, i int) error
}

// phase is the raw outcome of one measured phase.
type phase struct {
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration
	rssMB     float64   // VmHWM when op rssAtOp was dealt, or at the end
	latencyMs []float64 // successful ops only
	marks     []mark
	errs      []string // the first few op errors, for the report
}

// runLoop drives w closed-loop — each client sends its next op only when
// the previous one has been answered and decoded — for dur, and at least
// minOps ops; maxOps > 0 ends it early at that many (smoke runs). Ops are
// numbered from firstOp so that a second phase in the same process does
// not reuse the cache namespaces of the first.
func runLoop(ctx context.Context, w work, firstOp int, dur time.Duration, minOps, maxOps int, tr *tracer) phase {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		ph     phase
		wg     sync.WaitGroup
		begin  = time.Now()
		cpu0   = cpuTime()
		epochs = map[int]mark{}
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			var failed int
			var errs []string
			for ctx.Err() == nil {
				n := int(next.Add(1) - 1)
				elapsed := time.Since(begin)
				if (maxOps > 0 && n >= maxOps) || (elapsed >= dur && n >= minOps) {
					break
				}
				if n == w.rssAtOp {
					if mb, err := peakRSSMB(); err == nil {
						mu.Lock()
						ph.rssMB = mb
						mu.Unlock()
					}
				}
				if n%w.opsPerEpoch == 0 {
					m := mark{at: elapsed, cpu: cpuTime() - cpu0}
					mu.Lock()
					epochs[n/w.opsPerEpoch] = m
					mu.Unlock()
				}
				i := firstOp + n
				t := beginOp()
				opCtx, root := tr.root(ctx, i)
				err := w.op(opCtx, c, i)
				d := t.end()
				root.end()
				if err != nil {
					failed++
					if len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				lat = append(lat, ms(d))
			}
			mu.Lock()
			ph.attempted += len(lat) + failed
			ph.failed += failed
			ph.latencyMs = append(ph.latencyMs, lat...)
			ph.errs = append(ph.errs, errs...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(begin)
	ph.cpu = cpuTime() - cpu0
	if ph.rssMB == 0 {
		ph.rssMB, _ = peakRSSMB() // 0 on error, which no end-to-end metric may read
	}
	for k := 0; ; k++ {
		m, ok := epochs[k]
		if !ok {
			break
		}
		ph.marks = append(ph.marks, m)
	}
	if len(ph.errs) > 3 {
		ph.errs = ph.errs[:3]
	}
	return ph
}

// summary is a phase reduced to the end-to-end numbers.
type summary struct {
	OpsPerS    float64
	CPUMsPerOp float64
	P50Ms      float64
	P90Ms      float64
	N          int
	Epochs     int
}

// summarize reduces a phase. Throughput and CPU per op are medians over
// complete epochs; a phase too short to hold two epoch marks (a smoke
// run) falls back to totals over the whole phase. strict applies the
// ten-samples-beyond rule to the percentiles; smoke runs, which are a
// test of the plumbing and not a measurement, waive it. On an error the
// summary holds what could be computed and 0 for the rest, so that the
// run can still be reported as the failure it is.
func summarize(ph phase, opsPerEpoch int, strict bool) (summary, error) {
	s := summary{N: len(ph.latencyMs)}
	done := ph.attempted - ph.failed
	if done == 0 {
		return s, fmt.Errorf("no op succeeded (%d attempted)", ph.attempted)
	}
	rates, cpus := epochRates(ph.marks, opsPerEpoch)
	s.Epochs = len(rates)
	if len(rates) > 0 {
		s.OpsPerS, s.CPUMsPerOp = median(rates), median(cpus)
	} else {
		s.OpsPerS = float64(done) / ph.wall.Seconds()
		s.CPUMsPerOp = ms(ph.cpu) / float64(done)
	}
	need := minBeyond
	if !strict {
		need = 0
	}
	var err error
	if s.P50Ms, _, err = percentile(ph.latencyMs, 0.50, need); err == nil {
		s.P90Ms, _, err = percentile(ph.latencyMs, 0.90, need)
	}
	return s, err
}
