package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/transport"
)

// The fleet-loopback workload: 8 tokennode processes on loopback, set up
// like the cluster smoke test (push gossip, randomized:8:40, overlay-k 7)
// with Δ = 10 ms, so every node sends about 100 messages per second and the
// whole fleet uses well under one core. Updates are injected at the smoke
// test's cadence, one every 10 ms, kept in absolute terms: scaled with Δ
// (Δ/10 = 1 ms) the fleet's handling of the injection requests would be
// about a quarter of the CPU that cpu_us_per_msg divides by the sends (see
// README.md).
const (
	fleetNodes    = 8
	fleetDelta    = "10ms"
	fleetOverlayK = fleetNodes - 1        // the smoke test's 8 is out of range for 8 nodes
	fleetBoots    = 21                    // set-ups per run; setup_s is their median
	fleetWarmup   = time.Second           // before the CPU window: connections settle
	injectEvery   = 10 * time.Millisecond // between injection due times, open loop
	probeCount    = 300                   // convergence probes, injected at the same cadence
	convBound     = 2 * time.Second       // a probe not on every node by then has failed
	pollPause     = 2 * time.Millisecond  // between one node's convergence polls
	httpTimeout   = 3 * time.Second       // any single ops request
	healthTimeout = 60 * time.Second      // spawn to all nodes healthy; generous, as one stalled boot costs only time
	stopGrace     = 8 * time.Second       // SIGTERM to SIGKILL
	loopbackMsgs  = 200                   // transport loopback pair, at the fleet's per-node rate
	loopbackRate  = 100.0                 // messages per second
	loopbackWarm  = 20                    // first messages dial the connection; not timed
)

// requiredSeries are the series the scrape parser must find: a missing one
// is an error, never a zero.
var requiredSeries = []string{
	"tokennode_app_seq",
	`tokennode_sends_total{kind="proactive"}`,
	`tokennode_sends_total{kind="reactive"}`,
	"tokennode_rounds_total",
	"tokennode_received_total",
	"tokennode_useful_received_total",
	"tokennode_dropped_incoming_total",
	"tokennode_queue_depth",
	`tokennode_tick_latency_seconds{quantile="0.5"}`,
	`tokennode_tick_latency_seconds{quantile="0.99"}`,
	"tokennode_transport_frames_sent_total",
	"tokennode_transport_bytes_sent_total",
	"tokennode_transport_sends_shed_total",
	"tokennode_transport_reconnects_total",
	"tokennode_transport_decode_errors_total",
	"tokennode_transport_queue_depth",
}

// scrape is one parsed /metrics page.
type scrape map[string]float64

// parseScrape reads the Prometheus text format and checks that every
// required series is present.
func parseScrape(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range requiredSeries {
		if _, ok := s[name]; !ok {
			return nil, fmt.Errorf("series %s missing from the metrics page", name)
		}
	}
	return s, nil
}

func (s scrape) sends() float64 {
	return s[`tokennode_sends_total{kind="proactive"}`] + s[`tokennode_sends_total{kind="reactive"}`]
}

// fleetNode is one tokennode process.
type fleetNode struct {
	cmd       *exec.Cmd
	http      string
	listening chan struct{} // closed once both of the daemon's ports are bound
	done      chan struct{} // closed once the process has been reaped
	client    *http.Client  // scrapes and polls: one keep-alive connection
}

// fleet is a running set of tokennode processes.
type fleet struct {
	nodes []*fleetNode
	once  sync.Once
}

// reserveAddrs returns n loopback addresses that were free a moment ago.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   httpTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// mix derives a non-zero seed from the workload seed and a salt.
func mix(seed, salt uint64) uint64 {
	z := seed + salt*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// spawnFleet starts the processes. The caller must stop the fleet on every
// path; children also die with this process (Pdeathsig).
func spawnFleet(bin string, seed uint64) (*fleet, error) {
	// One reservation for both port sets, so no port is handed out twice.
	addrs, err := reserveAddrs(2 * fleetNodes)
	if err != nil {
		return nil, err
	}
	proto, ops := addrs[:fleetNodes], addrs[fleetNodes:]
	var peers []string
	for i, a := range proto {
		peers = append(peers, fmt.Sprintf("%d=%s", i, a))
	}
	f := &fleet{}
	atExit(f.kill)
	for i := 0; i < fleetNodes; i++ {
		cmd := exec.Command(bin,
			"-id", strconv.Itoa(i),
			"-listen", proto[i],
			"-http", ops[i],
			"-peers", strings.Join(peers, ","),
			"-cluster-size", strconv.Itoa(fleetNodes),
			"-app", "push-gossip",
			"-strategy", "randomized:8:40",
			"-overlay-k", strconv.Itoa(fleetOverlayK),
			"-delta", fleetDelta,
			"-seed", strconv.FormatUint(mix(seed, uint64(i)+1), 10),
			"-overlay-seed", strconv.FormatUint(mix(seed, 1<<20), 10),
		)
		out, w, err := os.Pipe()
		if err != nil {
			f.kill()
			return nil, err
		}
		cmd.Stdout, cmd.Stderr = w, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		w.Close() // the child holds its own copy
		if err != nil {
			out.Close()
			f.kill()
			return nil, fmt.Errorf("starting tokennode %d: %w", i, err)
		}
		n := &fleetNode{
			cmd: cmd, http: ops[i], client: newClient(),
			listening: make(chan struct{}), done: make(chan struct{}),
		}
		go n.watchStdout(out)
		go func() {
			_ = cmd.Wait() // the exit status of a stopped node carries nothing
			close(n.done)
		}()
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// watchStdout closes n.listening once the daemon prints its startup line,
// which it does after binding both ports, and then drains the pipe until
// the process exits.
func (n *fleetNode) watchStdout(out *os.File) {
	defer out.Close()
	r := bufio.NewReader(out)
	if _, err := r.ReadString('\n'); err == nil {
		close(n.listening)
	}
	_, _ = io.Copy(io.Discard, r) // later lines carry nothing the benchmark reads
}

// stop ends every process and waits until each is reaped: SIGTERM first
// (the daemon drains), SIGKILL after the grace period.
func (f *fleet) stop(graceful bool) {
	f.once.Do(func() {
		sig := os.Signal(syscall.SIGTERM)
		if !graceful {
			sig = syscall.SIGKILL
		}
		for _, n := range f.nodes {
			_ = n.cmd.Process.Signal(sig) // fails only for a process already gone
		}
		deadline := time.After(stopGrace)
		for _, n := range f.nodes {
			select {
			case <-n.done:
				continue
			case <-deadline:
			}
			_ = n.cmd.Process.Kill()
			<-n.done
		}
		for _, n := range f.nodes {
			n.client.CloseIdleConnections()
		}
	})
}

func (f *fleet) kill() { f.stop(false) }

// awaitHealthy polls every node's /healthz until it answers 200 and returns
// each node's time from spawn. Polling starts once the node has bound its
// ports: a connection to a loopback port nobody listens on can be given that
// same port as its source and connect to itself.
func (f *fleet) awaitHealthy(ctx context.Context, spawned time.Time) ([]float64, error) {
	boot := make([]float64, len(f.nodes))
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-n.listening:
			case <-n.done:
				errs[i] = fmt.Errorf("tokennode %d exited before it was healthy", i)
				return
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			case <-time.After(healthTimeout):
				errs[i] = fmt.Errorf("tokennode %d did not bind its ports within %v", i, healthTimeout)
				return
			}
			for {
				err := healthy(n)
				if err == nil {
					boot[i] = time.Since(spawned).Seconds()
					return
				}
				select {
				case <-n.done:
					errs[i] = fmt.Errorf("tokennode %d exited before it was healthy", i)
					return
				case <-ctx.Done():
					errs[i] = ctx.Err()
					return
				case <-time.After(2 * time.Millisecond):
				}
				if time.Since(spawned) > healthTimeout {
					errs[i] = fmt.Errorf("tokennode %d not healthy after %v: %w", i, healthTimeout, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return boot, errors.Join(errs...)
}

// healthy asks a node's /healthz and returns nil once it answers 200.
func healthy(n *fleetNode) error {
	resp, err := n.client.Get("http://" + n.http + "/healthz")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) // read to the end so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz answered %d %q", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// scrapeNode fetches and parses one node's metrics page.
func scrapeNode(n *fleetNode) (scrape, time.Duration, error) {
	start := time.Now()
	resp, err := n.client.Get("http://" + n.http + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("metrics at %s: status %d", n.http, resp.StatusCode)
	}
	s, err := parseScrape(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("metrics at %s: %w", n.http, err)
	}
	return s, time.Since(start), nil
}

func (f *fleet) scrapeAll() ([]scrape, []float64, error) {
	out := make([]scrape, len(f.nodes))
	var took []float64
	for i, n := range f.nodes {
		s, d, err := scrapeNode(n)
		if err != nil {
			return nil, nil, err
		}
		out[i] = s
		took = append(took, float64(d)/1e6)
	}
	return out, took, nil
}

func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, n := range f.nodes {
		d, err := processCPU(n.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// injection is one scheduled POST /inject.
type injection struct {
	seq   int64
	entry int // index into the injector's two connections
	due   time.Time
	start time.Time
	done  time.Time
	err   error
}

// injector sends scheduled injections open loop over two keep-alive
// connections, one per entry node: each injection is sent when it is due or,
// if the connection is still busy, as soon as it frees up, and is timed from
// when it was due.
type injector struct {
	entries [2]*fleetNode
	clients [2]*http.Client
}

func (in *injector) run(ctx context.Context, jobs []*injection) {
	var wg sync.WaitGroup
	for e := range in.entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				if j.entry != e {
					continue
				}
				select {
				case <-ctx.Done():
					j.err = ctx.Err()
					continue
				case <-time.After(time.Until(j.due)):
				}
				j.start = time.Now()
				j.err = in.post(e, j.seq)
				j.done = time.Now()
			}
		}()
	}
	wg.Wait()
}

func (in *injector) post(e int, seq int64) error {
	resp, err := in.clients[e].Post(fmt.Sprintf("http://%s/inject?seq=%d", in.entries[e].http, seq), "", nil)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("inject %d: status %d", seq, resp.StatusCode)
	}
	return nil
}

// buildTokennode compiles the daemon once per invocation.
func buildTokennode(ctx context.Context) (string, float64, error) {
	bin := ".bench_build/tokennode"
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tokennode")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building tokennode: %w", err)
	}
	return "./" + bin, time.Since(start).Seconds(), nil
}

// windowEdge is the state of the fleet at one edge of the CPU window.
type windowEdge struct {
	at      time.Time
	cpu     time.Duration
	scrapes []scrape
}

func (e windowEdge) sum(series string) float64 {
	var s float64
	for _, sc := range e.scrapes {
		s += sc[series]
	}
	return s
}

func (e windowEdge) sends() float64 {
	var s float64
	for _, sc := range e.scrapes {
		s += sc.sends()
	}
	return s
}

func runFleet(ctx context.Context, opts runOptions) (*report, error) {
	if opts.record {
		return nil, fmt.Errorf("fleet-loopback has no recorded digests")
	}
	seed := opts.seed
	bin, buildS, err := buildTokennode(ctx)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	// Set-up: spawn to every node healthy, fleetBoots times; the last fleet
	// is the measured one.
	var setups, boots []float64
	var f *fleet
	for b := 0; b < fleetBoots; b++ {
		spawned := time.Now()
		if f, err = spawnFleet(bin, mix(seed, uint64(b))); err != nil {
			return nil, err
		}
		boot, err := f.awaitHealthy(ctx, spawned)
		if err != nil {
			f.kill()
			return nil, err
		}
		setups = append(setups, time.Since(spawned).Seconds())
		boots = append(boots, boot...)
		if b < fleetBoots-1 {
			f.kill()
		}
	}
	defer f.stop(true)

	rng := rand.New(rand.NewPCG(seed, 0x696e6a656374))
	e0 := rng.IntN(fleetNodes)
	e1 := (e0 + 1 + rng.IntN(fleetNodes-1)) % fleetNodes
	in := &injector{entries: [2]*fleetNode{f.nodes[e0], f.nodes[e1]}, clients: [2]*http.Client{newClient(), newClient()}}
	defer in.clients[0].CloseIdleConnections()
	defer in.clients[1].CloseIdleConnections()

	// Warm-up: connections settle, and a first update gives every node the
	// tokennode_app_seq series, which a node only exports once it holds one.
	var seq int64 = 1
	if err := in.post(0, seq); err != nil {
		return nil, fmt.Errorf("warm-up injection: %w", err)
	}
	select {
	case <-time.After(fleetWarmup):
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// CPU window: counters are scraped only at its two edges, outside the
	// CPU readings, and nothing polls the nodes in between.
	window := max(3*time.Second, opts.seconds/2)
	var edges [2]windowEdge
	if edges[0].scrapes, _, err = f.scrapeAll(); err != nil {
		return nil, err
	}
	if edges[0].cpu, err = f.cpu(); err != nil {
		return nil, err
	}
	edges[0].at = time.Now()

	var jobs []*injection
	phase := time.Duration(rng.Int64N(int64(injectEvery)))
	for due := edges[0].at.Add(phase); due.Before(edges[0].at.Add(window)); due = due.Add(injectEvery) {
		seq++
		jobs = append(jobs, &injection{seq: seq, entry: rng.IntN(2), due: due})
	}
	in.run(ctx, jobs)
	if rest := time.Until(edges[0].at.Add(window)); rest > 0 {
		time.Sleep(rest)
	}
	if edges[1].cpu, err = f.cpu(); err != nil {
		return nil, err
	}
	edges[1].at = time.Now()
	var scrapeMs []float64
	if edges[1].scrapes, scrapeMs, err = f.scrapeAll(); err != nil {
		return nil, err
	}

	// Convergence: the injections go on at the same cadence, and each is a
	// probe, timed from when it was due until every node's
	// tokennode_app_seq has reached it.
	probes := make([]*injection, probeCount)
	convStart := time.Now().Add(100*time.Millisecond + phase)
	for k := range probes {
		seq++
		probes[k] = &injection{seq: seq, entry: rng.IntN(2), due: convStart.Add(time.Duration(k) * injectEvery)}
	}
	conv, pollMs, qdepth, err := f.converge(ctx, in, probes)
	if err != nil {
		return nil, err
	}
	scrapeMs = append(scrapeMs, pollMs...)
	final, _, err := f.scrapeAll()
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, n := range f.nodes {
		r, err := peakRSSMB(n.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss = math.Max(rss, r)
	}

	// Accounting and checks.
	var lag, injectMs []float64
	for _, j := range append(append([]*injection{}, jobs...), probes...) {
		rep.attempted++
		if !rep.check(j.err == nil, "injection %d: %v", j.seq, j.err) {
			rep.failed++
			continue
		}
		lag = append(lag, float64(j.start.Sub(j.due))/1e6)
	}
	for _, j := range jobs {
		if j.err == nil {
			injectMs = append(injectMs, float64(j.done.Sub(j.due))/1e6)
		}
	}
	var convMs []float64
	var convSum float64
	for k, p := range probes {
		if p.err != nil {
			continue // counted above
		}
		if !rep.check(!math.IsNaN(conv[k]), "probe %d did not reach every node within %v", p.seq, convBound) {
			rep.failed++
			continue
		}
		convMs = append(convMs, conv[k])
		convSum += conv[k] / 1e3
	}
	var decodeErrors, reconnects, dropped float64
	var tickP50, tickP99 []float64
	for _, s := range final {
		decodeErrors += s["tokennode_transport_decode_errors_total"]
		reconnects += s["tokennode_transport_reconnects_total"]
		dropped += s["tokennode_dropped_incoming_total"]
		tickP50 = append(tickP50, s[`tokennode_tick_latency_seconds{quantile="0.5"}`]*1e6)
		tickP99 = append(tickP99, s[`tokennode_tick_latency_seconds{quantile="0.99"}`]*1e6)
	}
	if !rep.check(decodeErrors == 0, "%v frames failed to decode", decodeErrors) {
		rep.failed = rep.attempted
	}
	dt := edges[1].at.Sub(edges[0].at).Seconds()
	sends := edges[1].sends() - edges[0].sends()
	rounds := edges[1].sum("tokennode_rounds_total") - edges[0].sum("tokennode_rounds_total")
	received := edges[1].sum("tokennode_received_total") - edges[0].sum("tokennode_received_total")
	cpu := (edges[1].cpu - edges[0].cpu).Seconds()
	// Tokens banked before the window may be spent inside it, so the budget
	// holds over each node's whole life, not over the window.
	var lifeSends, lifeRounds float64
	for _, s := range final {
		lifeSends += s.sends()
		lifeRounds += s["tokennode_rounds_total"]
	}
	mpnr := ratio(lifeSends, lifeRounds)
	if !rep.check(lifeRounds > 0 && mpnr <= 1+msgBudgetSlack, "fleet sent %.4f messages per node per round", mpnr) {
		rep.failed = rep.attempted
	}
	fmt.Fprintf(os.Stderr, "perfbench: fleet window %.2f s: %.0f sends, %.0f rounds, %.3f CPU-s; %d probes\n",
		dt, sends, rounds, cpu, len(convMs))

	if !opts.traced {
		// The fleet's wall time is the part of the run the program decides,
		// not the benchmark's schedule: the measured fleet's boot, plus the
		// time each probe took to reach every node.
		rep.set("wall_s", setups[len(setups)-1]+convSum)
		rep.set("setup_s", median(setups))
		rep.set("events_per_s", (rounds+received)/cpu)
		rep.set("peak_rss_mb", rss)
		rep.set("msgs_per_node_s", sends/fleetNodes/dt)
		rep.set("cpu_us_per_msg", cpu*1e6/sends)
		rep.set("conv_p50_ms", quantile(convMs, 0.5))
		rep.set("conv_p90_ms", quantile(convMs, 0.9))
		return rep, nil
	}
	sendNs, loopUs, err := loopbackPair(ctx)
	if err != nil {
		return nil, err
	}
	frames := edges[1].sum("tokennode_transport_frames_sent_total") - edges[0].sum("tokennode_transport_frames_sent_total")
	bytes := edges[1].sum("tokennode_transport_bytes_sent_total") - edges[0].sum("tokennode_transport_bytes_sent_total")
	shed := edges[1].sum("tokennode_transport_sends_shed_total") - edges[0].sum("tokennode_transport_sends_shed_total")
	for _, e := range edges {
		for _, s := range e.scrapes {
			qdepth.transport = math.Max(qdepth.transport, s["tokennode_transport_queue_depth"])
			qdepth.live = math.Max(qdepth.live, s["tokennode_queue_depth"])
		}
	}
	rep.set("transport.frames_per_msg", ratio(frames, sends))
	rep.set("transport.bytes_per_frame", ratio(bytes, frames))
	rep.set("transport.shed_frac", ratio(shed, sends))
	rep.set("transport.queue_depth_max", qdepth.transport)
	rep.set("transport.reconnects", reconnects)
	rep.set("transport.decode_errors", decodeErrors)
	rep.set("transport.send_ns", sendNs)
	rep.set("transport.loopback_us", loopUs)
	rep.set("live.tick_p50_us", median(tickP50))
	rep.set("live.tick_p99_us", quantile(tickP99, 1))
	rep.set("live.rounds_per_s", rounds/fleetNodes/dt)
	rep.set("live.dropped_incoming", dropped)
	rep.set("live.queue_depth_max", qdepth.live)
	rep.set("tokennode.inject_ms", median(injectMs))
	rep.set("tokennode.scrape_ms", median(scrapeMs))
	rep.set("tokennode.boot_s", median(boots))
	rep.set("tokennode.build_s", buildS)
	rep.set("bench.injector_lag_ms", quantile(lag, 0.99))
	rep.set("protocol.msgs_per_node_round", mpnr)
	rep.set("protocol.useful_frac", ratio(edges[1].sum("tokennode_useful_received_total")-edges[0].sum("tokennode_useful_received_total"), received))
	rep.set("bench.trace_overhead", 1) // the fleet is observed through its scrapes only
	setSimLayerZero(rep)
	return rep, nil
}

// queueDepths are the largest queue gauges any scrape or poll saw.
type queueDepths struct{ transport, live float64 }

// converge injects the probes and polls every node's metrics page until
// each probe is on every node or convBound has passed since it was due. It
// returns each probe's convergence time in ms (NaN if it never converged),
// the poll request durations and the largest queue gauges seen.
func (f *fleet) converge(ctx context.Context, in *injector, probes []*injection) ([]float64, []float64, queueDepths, error) {
	n := len(f.nodes)
	reached := make([][]time.Time, len(probes)) // probe → node → first poll that saw it
	for k := range reached {
		reached[k] = make([]time.Time, n)
	}
	pollCtx, stopPolls := context.WithCancel(ctx)
	defer stopPolls()
	var mu sync.Mutex
	var pollMs []float64
	var depth queueDepths
	var pollErr error
	var wg sync.WaitGroup
	for i, node := range f.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := 0 // first probe this node has not been seen holding
			for pollCtx.Err() == nil {
				s, d, err := scrapeNode(node)
				at := time.Now()
				mu.Lock()
				if err != nil {
					if pollCtx.Err() == nil && pollErr == nil {
						pollErr = err
					}
					mu.Unlock()
					return
				}
				pollMs = append(pollMs, float64(d)/1e6)
				depth.transport = math.Max(depth.transport, s["tokennode_transport_queue_depth"])
				depth.live = math.Max(depth.live, s["tokennode_queue_depth"])
				for next < len(probes) && int64(s["tokennode_app_seq"]) >= probes[next].seq {
					reached[next][i] = at
					next++
				}
				done := next == len(probes)
				mu.Unlock()
				if done {
					return
				}
				select {
				case <-pollCtx.Done():
				case <-time.After(pollPause):
				}
			}
		}()
	}
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		in.run(pollCtx, probes)
	}()
	last := probes[len(probes)-1].due.Add(convBound)
	select {
	case <-ctx.Done():
	case <-time.After(time.Until(last)):
	case <-allDone(&wg):
	}
	stopPolls()
	wg.Wait()
	<-injected
	if err := ctx.Err(); err != nil {
		return nil, nil, depth, err
	}
	if pollErr != nil {
		return nil, nil, depth, pollErr
	}
	conv := make([]float64, len(probes))
	for k, p := range probes {
		conv[k] = math.NaN()
		var latest time.Time
		complete := true
		for _, at := range reached[k] {
			if at.IsZero() {
				complete = false
				break
			}
			if at.After(latest) {
				latest = at
			}
		}
		if complete && latest.Sub(p.due) <= convBound {
			conv[k] = float64(latest.Sub(p.due)) / 1e6
		}
	}
	return conv, pollMs, depth, nil
}

// allDone turns a WaitGroup into a channel.
func allDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// loopbackPair measures the transport alone: an in-process TCPEndpoint pair
// on loopback, sending word frames at the fleet's per-node rate. It returns
// the median SendPayload call in ns and the median time from SendPayload to
// the receiving handler in µs.
func loopbackPair(ctx context.Context) (float64, float64, error) {
	reg := transport.NewRegistry()
	a, err := transport.NewTCPEndpoint(1, "127.0.0.1:0", reg)
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := transport.NewTCPEndpoint(2, "127.0.0.1:0", reg)
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	total := loopbackWarm + loopbackMsgs
	sent := make([]int64, total)
	callNs := make([]float64, 0, loopbackMsgs)
	type arrival struct{ i, at int64 }
	got := make(chan arrival, total) // one slot per message: the handler never blocks
	b.SetPayloadHandler(func(_ protocol.NodeID, p protocol.Payload) {
		got <- arrival{int64(p.Word), nanotime()}
	})
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / loopbackRate * float64(time.Second)))
		select {
		case <-ctx.Done():
			return 0, 0, ctx.Err()
		case <-time.After(time.Until(due)):
		}
		s := nanotime()
		sent[i] = s
		if err := a.SendPayload(2, protocol.WordPayload(protocol.KindUpdateSeq, uint64(i))); err != nil {
			return 0, 0, fmt.Errorf("loopback send %d: %w", i, err)
		}
		if i >= loopbackWarm {
			callNs = append(callNs, float64(nanotime()-s))
		}
	}
	var latUs []float64
	timeout := time.After(5 * time.Second)
	for received := 0; received < total; received++ {
		select {
		case a := <-got:
			if a.i >= loopbackWarm && a.i < int64(total) {
				latUs = append(latUs, float64(a.at-sent[a.i])/1e3)
			}
		case <-timeout:
			return 0, 0, fmt.Errorf("loopback pair delivered %d of %d messages", received, total)
		}
	}
	return median(callNs), median(latUs), nil
}
