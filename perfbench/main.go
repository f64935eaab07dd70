// Command perfbench is the repository benchmark: one command that runs a
// workload, checks its outputs and prints every metric by name with its
// unit. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md in this directory explains why each was chosen.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paperfigs --seed 1 --seconds 45 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics, measured with nothing but timers around the
// program's public entry points. With --trace 1 the same workload is run
// once more behind wrappers that time every call into each layer; the
// object then holds the per-layer metrics, and the spans are written to
// .bench_build/traces/. Progress and failed checks go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"
)

// deadline bounds one invocation: the driver allows 180 s, so the watchdog
// fires early enough to stop child processes and still exit in time.
const deadline = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paperfigs, scale-1m or fleet-loopback")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measurement budget of one run in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	record := fs.Bool("record", false, "store this seed's sim output digests in "+digestFile+" instead of checking them")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	traced := *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	go watchdog()

	var rep *report
	opts := runOptions{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: traced, record: *record}
	switch *workload {
	case "paperfigs":
		rep, err = runPaperfigs(opts)
	case "scale-1m":
		rep, err = runScale(opts)
	case "fleet-loopback":
		rep, err = runFleet(ctx, opts)
	default:
		err = fmt.Errorf("unknown workload %q (want paperfigs, scale-1m or fleet-loopback)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record {
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s digests for workload seed %d\n", *workload, workloadSeed(*seed))
		return 0
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	line, err := rep.encode(want, spec.names())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

// runOptions are the driver's arguments, shared by every workload.
type runOptions struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	record  bool
}

// watchdog ends the process shortly before the driver's limit, after the
// registered cleanups (child processes) have run.
func watchdog() {
	time.Sleep(deadline + 5*time.Second)
	fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time limit")
	runCleanups()
	os.Exit(3)
}

var (
	cleanupMu sync.Mutex
	cleanups  []func()
)

// atExit registers a cleanup the watchdog runs before it ends the process;
// normal exits run the same cleanups through their own defers.
func atExit(f func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, f)
}

func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for _, f := range cleanups {
		f()
	}
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// names returns the set of every metric name in both lists.
func (s *benchSpec) names() map[string]bool {
	all := make(map[string]bool)
	for _, m := range append(append([]metricSpec{}, s.EndToEnd...), s.PerLayer...) {
		all[m.Name] = true
	}
	return all
}

// loadSpec reads the metric lists the output must match.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no metrics", path)
	}
	return &s, nil
}

// report collects a run's metrics and the outcome of its checks.
type report struct {
	attempted int
	failed    int
	checksOK  bool
	values    map[string]float64
}

func newReport() *report { return &report{checksOK: true, values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records the outcome of one output check; a failed check is printed
// and makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.checksOK = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// encode renders the result line with exactly the wanted metrics. A value
// measured under a name neither list of BENCHMARK.json holds is an error, so
// the program and the definition cannot drift apart.
func (r *report) encode(want []metricSpec, listed map[string]bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is not a finite number", m.Name)
		}
		metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	var extra []string
	for name := range r.values {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("metrics %v are measured but not listed in BENCHMARK.json", extra)
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("the run attempted nothing")
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.checksOK && r.failed == 0, r.attempted, r.failed, metrics})
	return string(out), err
}
