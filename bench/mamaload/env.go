package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is read once when the program image is initialised; the
// set-up clock of a child starts here, so it covers runtime start-up as
// well as the workload's own set-up.
var processStart = time.Now()

// refusedEnv are knobs of the program under test that change what a run
// measures (injected faults, the parallel engine, the trace budget). A
// benchmark run with any of them set would not compare with any other.
var refusedEnv = []string{"MAMA_FAULTS", "MAMA_SIM_PARALLEL", "MAMA_TRACE_BUDGET_MB"}

func checkEnv() error {
	for _, k := range refusedEnv {
		if v, ok := os.LookupEnv(k); ok {
			return fmt.Errorf("%s=%q is set; unset it, the benchmark measures the default configuration", k, v)
		}
	}
	return nil
}

// hostInfo is recorded with every report so two files can be told apart
// by where and from what they were measured.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func readHost() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Clients:    numClients(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// numClients is the closed loop's width: one client per CPU up to the
// two of the reference host.
func numClients() int { return min(runtime.NumCPU(), 2) }

// cpuTime is the process's user+system CPU time so far. Client and
// server share the process, so it covers both.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is VmHWM of this process in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := strings.Fields(string(line))
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
