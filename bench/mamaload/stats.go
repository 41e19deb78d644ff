package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is printed: fewer and the number is one or two outliers, not a tail.
const minBeyond = 10

// rankOf returns the 1-based nearest-rank position of percentile p
// (0 < p <= 1) among n samples: the smallest rank covering p of them.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs together
// with the sample count. It refuses when fewer than need samples lie
// beyond the chosen rank: with need = minBeyond a p90 takes N >= 100.
func percentile(xs []float64, p float64, need int) (v float64, n int, err error) {
	n = len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%.0f: no samples", p*100)
	}
	r := rankOf(n, p)
	if beyond := n - r; beyond < need {
		return 0, n, fmt.Errorf("percentile p%.0f: %d samples leave %d beyond it, need %d",
			p*100, n, beyond, need)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[r-1], n, nil
}

// median is the plain middle value (mean of the two middle values for
// an even count). It is for small sets of per-epoch or per-process
// readings, where the sample-count rule of percentile does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mark is taken each time the closed loop deals the first op of an
// epoch: the wall clock and the process CPU clock at that moment.
type mark struct {
	at  time.Duration // since the measured phase began
	cpu time.Duration // process user+sys
}

// epochRates turns consecutive marks into one ops/s reading and one CPU
// ms/op reading per complete epoch. An epoch is a fixed number of ops
// whose mix of work is the same every time (whole passes over the
// workload's op set), so readings compare like with like and their
// median ignores a burst of host interference that a mean would absorb.
func epochRates(marks []mark, opsPerEpoch int) (opsPerS, cpuMsPerOp []float64) {
	for i := 1; i < len(marks); i++ {
		dt := marks[i].at - marks[i-1].at
		if dt <= 0 {
			continue
		}
		opsPerS = append(opsPerS, float64(opsPerEpoch)/dt.Seconds())
		dc := marks[i].cpu - marks[i-1].cpu
		cpuMsPerOp = append(cpuMsPerOp, ms(dc)/float64(opsPerEpoch))
	}
	return opsPerS, cpuMsPerOp
}

// opTimer times one closed-loop op as its client sees it: begin is
// called immediately before the request is sent, end once the reply
// body has been decoded.
type opTimer struct{ start time.Time }

func beginOp() opTimer               { return opTimer{start: time.Now()} }
func (t opTimer) end() time.Duration { return time.Since(t.start) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
