// Command tracestat analyzes an instruction trace — a catalog name or a
// binary MMT1 file — and prints the characteristics the paper's
// methodology cares about: memory-instruction ratio, load/store split,
// working-set footprint, stride regularity, an estimated no-prefetch L2
// MPKI (distinct lines touched outside a recent-reuse window), and what
// the trace costs held in memory: the lengths of its runs of identical
// non-memory instructions and the bytes per instruction of the
// run-length packed slab the simulator replays.
//
// Usage:
//
//	tracestat spec06.libquantum
//	tracestat -n 2000000 path/to/trace.mmt
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"

	"micromama/internal/trace"
	"micromama/internal/workload"
)

func main() {
	n := flag.Uint64("n", 1_000_000, "instructions to analyze")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "tracestat: name one trace (catalog name or .mmt file)")
		os.Exit(2)
	}
	name := flag.Arg(0)

	var r trace.Reader
	if sp, err := workload.ByName(name); err == nil {
		r = sp.New()
	} else {
		ft, ferr := trace.OpenFile(name)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "tracestat: %q is neither a catalog trace (%v) nor a trace file (%v)\n",
				name, err, ferr)
			os.Exit(2)
		}
		defer ft.Close()
		r = trace.NewLooping(ft)
	}

	st := Analyze(r, *n)
	st.Print(os.Stdout)
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

	// Runs describes the prefix as the trace pool holds it: a run is a
	// maximal stretch of byte-identical non-memory instructions, one
	// packed record.
	Runs           uint64
	RunMean        float64
	RunP50, RunP99 uint32
	RunMax         uint32
	// PackedBytesPerInstr is the packed slab's size over Instructions
	// (an unpacked record is 24 bytes).
	PackedBytesPerInstr float64
}

// StrideCount is one stride histogram bucket.
type StrideCount struct {
	Stride int64
	Count  uint64
}

// Analyze scans up to n instructions of r, through the packer the trace
// pool uses, so the run statistics are of the records a simulation
// actually reads.
func Analyze(r trace.Reader, n uint64) Stats {
	var st Stats
	if n == 0 {
		return st
	}
	lines := map[uint64]bool{}

	// Recent-reuse window as a ring over line addresses (~16K lines).
	const window = 16384
	recent := map[uint64]uint64{} // line -> last access index
	var misses uint64

	lastByPC := map[uint64]uint64{}
	strideByPC := map[uint64]int64{}
	strideHist := map[int64]uint64{}
	var strideRepeats, strideSamples uint64

	m := trace.Materialize(r, n)
	st.Instructions = uint64(m.Len())
	if st.Instructions > 0 {
		st.PackedBytesPerInstr = float64(m.Footprint()) / float64(st.Instructions)
	}
	var runs []uint32
	var accessIdx uint64
	for _, ins := range m.Replay().NextPacked(m.Len()) {
		if ins.Kind == trace.Other {
			runs = append(runs, ins.Run+1)
			continue
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
	}
	if strideSamples > 0 {
		st.StrideRegularity = float64(strideRepeats) / float64(strideSamples)
	}
	for s, c := range strideHist {
		st.TopStrides = append(st.TopStrides, StrideCount{s, c})
	}
	sort.Slice(st.TopStrides, func(i, j int) bool { return st.TopStrides[i].Count > st.TopStrides[j].Count })
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
	fmt.Fprintf(w, "packed slab:       %.2f bytes/instruction (24 unpacked)\n", st.PackedBytesPerInstr)
	fmt.Fprintf(w, "footprint:         %.1f MB (%d distinct lines)\n", st.FootprintMB, st.DistinctLines)
	fmt.Fprintf(w, "est. L2 MPKI:      %.1f (no prefetching)\n", st.EstMPKI)
	fmt.Fprintf(w, "stride regularity: %.0f%%\n", st.StrideRegularity*100)
	fmt.Fprintf(w, "top strides:\n")
	for _, s := range st.TopStrides {
		fmt.Fprintf(w, "  %+8d bytes: %d\n", s.Stride, s.Count)
	}
}
