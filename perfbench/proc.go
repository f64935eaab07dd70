package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB returns a process's peak resident set size (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM in %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}

// selfCPU returns the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processCPU returns the CPU time of another process in nanoseconds, summed
// over its threads' schedstat counters, which have nanosecond resolution
// where /proc/<pid>/stat counts 10 ms ticks. Go runtimes do not retire their
// threads, so no thread's time is lost from the sum.
func processCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("process %d has no threads to read", pid)
	}
	var total int64
	for _, path := range tasks {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return 0, fmt.Errorf("empty %s", path)
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", path, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0: a layer the workload bypasses does
// no work, and its per-operation cost reads as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
