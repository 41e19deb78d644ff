// Command tracestat analyzes a catalog trace and prints the
// characteristics the paper's methodology cares about:
// memory-instruction ratio, load/store split, working-set footprint,
// stride regularity, an estimated no-prefetch L2 MPKI (distinct lines
// touched outside a recent-reuse window), and what the trace costs held
// in memory: the lengths of its runs of idle non-memory instructions
// and the bytes per instruction of the run-length packed records the
// simulator replays.
//
// Usage:
//
//	tracestat spec06.libquantum
//	tracestat -n 2000000 spec06.gromacs
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"unsafe"

	"micromama/internal/trace"
	"micromama/internal/workload"
)

func main() {
	n := flag.Uint64("n", 1_000_000, "instructions to analyze")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "tracestat: name one catalog trace")
		os.Exit(2)
	}
	sp, err := workload.ByName(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(2)
	}
	Analyze(sp.New(), *n).Print(os.Stdout)
}

// Stats summarizes a trace prefix.
type Stats struct {
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Dependent    uint64 // pointer-chase loads

	DistinctLines uint64
	FootprintMB   float64

	// EstMPKI estimates no-prefetch L2 misses per kilo-instruction:
	// accesses to lines not seen within the last ~16K distinct lines
	// (≈1 MB of L2 reach).
	EstMPKI float64

	// TopStrides are the most common byte strides between consecutive
	// memory accesses of the same PC.
	TopStrides []StrideCount
	// StrideRegularity is the fraction of same-PC accesses whose stride
	// repeats the previous one.
	StrideRegularity float64

	// Runs describes the prefix as the trace pool holds it: a run is the
	// non-memory instructions one packed record stands for — the idle
	// run after a memory record, or an Other record and its idle run (a
	// stretch longer than a record holds is several).
	Runs           uint64
	RunMean        float64
	RunP50, RunP99 uint32
	RunMax         uint32
	// PackedBytesPerInstr is the size of the records read over
	// Instructions (one record per instruction would be 8 bytes).
	PackedBytesPerInstr float64
}

// StrideCount is one stride histogram bucket.
type StrideCount struct {
	Stride int64
	Count  uint64
}

// Analyze scans the first n instructions of r as the simulator reads
// them: run-length packed by trace.Packed, whose records are the ones a
// trace pool's slab holds for the same stream, runs cut at the slab's
// chunk floors. The last record's run is cut at n.
func Analyze(r trace.Reader, n uint64) Stats {
	var st Stats
	lines := map[uint64]bool{}

	// Recent-reuse window as a ring over line addresses (~16K lines).
	const window = 16384
	recent := map[uint64]uint64{} // line -> last access index
	var misses uint64

	lastByPC := map[uint16]uint64{}
	strideByPC := map[uint16]int64{}
	strideHist := map[int64]uint64{}
	var strideRepeats, strideSamples uint64

	// Hiding every surface of r but Reader's makes Packed pack it, as
	// the pool packs a generator, even when r reads packed itself.
	p := trace.Packed(struct{ trace.Reader }{r})
	var runs []uint32
	var records, accessIdx uint64
read:
	for blk := p.NextPacked(256); len(blk) > 0; blk = p.NextPacked(256) {
		for _, rec := range blk {
			if st.Instructions == n {
				break read
			}
			records++
			run := min(uint64(rec.Run()), n-st.Instructions-1)
			st.Instructions += run + 1
			ins := rec.Instr()
			if ins.Kind == trace.Other {
				runs = append(runs, uint32(run)+1)
				continue
			}
			if run > 0 {
				runs = append(runs, uint32(run))
			}
			if ins.Kind == trace.Load {
				st.Loads++
				if ins.Flags&trace.DependsPrev != 0 {
					st.Dependent++
				}
			} else {
				st.Stores++
			}
			line := ins.Addr &^ 63
			lines[line] = true
			accessIdx++
			if last, seen := recent[line]; !seen || accessIdx-last > window {
				misses++
			}
			recent[line] = accessIdx
			if len(recent) > 4*window {
				for k, v := range recent {
					if accessIdx-v > window {
						delete(recent, k)
					}
				}
			}

			if last, ok := lastByPC[ins.PC]; ok {
				stride := int64(ins.Addr) - int64(last)
				strideHist[stride]++
				strideSamples++
				if stride == strideByPC[ins.PC] {
					strideRepeats++
				}
				strideByPC[ins.PC] = stride
			}
			lastByPC[ins.PC] = ins.Addr
		}
	}

	if st.Runs = uint64(len(runs)); st.Runs > 0 {
		slices.Sort(runs)
		st.RunMean = float64(st.Instructions-st.Loads-st.Stores) / float64(st.Runs)
		// Nearest rank.
		st.RunP50 = runs[(len(runs)*50+99)/100-1]
		st.RunP99 = runs[(len(runs)*99+99)/100-1]
		st.RunMax = runs[len(runs)-1]
	}
	st.DistinctLines = uint64(len(lines))
	st.FootprintMB = float64(st.DistinctLines) * 64 / (1 << 20)
	if st.Instructions > 0 {
		st.EstMPKI = float64(misses) * 1000 / float64(st.Instructions)
		st.PackedBytesPerInstr = float64(records*uint64(unsafe.Sizeof(trace.Rec{}))) / float64(st.Instructions)
	}
	if strideSamples > 0 {
		st.StrideRegularity = float64(strideRepeats) / float64(strideSamples)
	}
	for s, c := range strideHist {
		st.TopStrides = append(st.TopStrides, StrideCount{s, c})
	}
	// Most common first; a tie in stride order, not map order.
	slices.SortFunc(st.TopStrides, func(a, b StrideCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), cmp.Compare(a.Stride, b.Stride))
	})
	if len(st.TopStrides) > 5 {
		st.TopStrides = st.TopStrides[:5]
	}
	return st
}

// Print renders the stats.
func (st Stats) Print(w *os.File) {
	mem := st.Loads + st.Stores
	fmt.Fprintf(w, "instructions:      %d\n", st.Instructions)
	fmt.Fprintf(w, "memory ratio:      %.1f%% (%d loads, %d stores, %d dependent)\n",
		100*float64(mem)/float64(st.Instructions), st.Loads, st.Stores, st.Dependent)
	fmt.Fprintf(w, "non-memory share:  %.1f%% in %d runs (length mean %.1f, p50 %d, p99 %d, max %d)\n",
		100*float64(st.Instructions-mem)/float64(st.Instructions), st.Runs, st.RunMean, st.RunP50, st.RunP99, st.RunMax)
	fmt.Fprintf(w, "packed slab:       %.2f bytes/instruction (%d unpacked)\n", st.PackedBytesPerInstr, unsafe.Sizeof(trace.Rec{}))
	fmt.Fprintf(w, "footprint:         %.1f MB (%d distinct lines)\n", st.FootprintMB, st.DistinctLines)
	fmt.Fprintf(w, "est. L2 MPKI:      %.1f (no prefetching)\n", st.EstMPKI)
	fmt.Fprintf(w, "stride regularity: %.0f%%\n", st.StrideRegularity*100)
	fmt.Fprintf(w, "top strides:\n")
	for _, s := range st.TopStrides {
		fmt.Fprintf(w, "  %+8d bytes: %d\n", s.Stride, s.Count)
	}
}
