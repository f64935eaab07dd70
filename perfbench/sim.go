package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	rt "runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/sim"
)

// msgBudgetSlack is ε in the rate check: a token account never sends more
// than one message per node per round on average, so the realized rate must
// stay at most 1 + ε.
const msgBudgetSlack = 0.01

// simConfig is one experiment configuration of a sim workload.
type simConfig struct {
	fig int // paper figure (2, 3, 5), or 0 for scale-1m
	cfg experiment.Config
}

func (c simConfig) label() string {
	label := c.cfg.WithDefaults().Label()
	if c.fig == 0 {
		return label
	}
	return fmt.Sprintf("fig%d/%s", c.fig, label)
}

// configOutcome is what one configuration produced.
type configOutcome struct {
	label  string
	app    string
	digest string
	events float64
	msgs   float64
	mpnr   float64 // messages per node per round; NaN when the entry point hides it
	wallNs int64
	obs    *configObs
}

// --- digests ------------------------------------------------------------------

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func writeSeries(h hash.Hash, s *metrics.Series) {
	if s == nil {
		writeFloat(h, -1)
		return
	}
	writeFloat(h, float64(s.Len()))
	for i := 0; i < s.Len(); i++ {
		t, v := s.At(i)
		writeFloat(h, t)
		writeFloat(h, v)
	}
}

// resultDigest fingerprints every output of a Result except the label, which
// names the drivers and so differs between traced and untraced runs.
func resultDigest(r *experiment.Result) string {
	h := sha256.New()
	writeSeries(h, r.Metric)
	writeSeries(h, r.Tokens)
	for _, v := range []float64{r.MessagesSent, r.BytesSent, r.EventsProcessed, r.InjectionsSkipped, float64(len(r.Summary))} {
		writeFloat(h, v)
	}
	for _, v := range r.Summary {
		writeFloat(h, v)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// seriesDigest fingerprints a series alone: Figure 5's entry point returns
// only the token curves.
func seriesDigest(s *metrics.Series) string {
	h := sha256.New()
	writeSeries(h, s)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func outcomeOf(c simConfig, res *experiment.Result, wallNs int64, o *configObs) configOutcome {
	out := configOutcome{
		label:  c.label(),
		app:    c.cfg.App.Name(),
		events: res.EventsProcessed,
		msgs:   res.MessagesSent,
		mpnr:   res.MessagesPerNodePerRound,
		wallNs: wallNs,
		obs:    o,
		digest: resultDigest(res),
	}
	if c.fig == 5 {
		out.digest = seriesDigest(res.Tokens)
	}
	return out
}

func freeMemory() {
	rt.GC()
	debug.FreeOSMemory()
}

// --- recorded digests ---------------------------------------------------------

// digestSeeds is the number of workload seeds with recorded output digests:
// the driver's seed s runs workload seed s mod digestSeeds, so every run's
// output can be checked against a recording.
const digestSeeds = 8

func workloadSeed(seed uint64) uint64 { return seed % digestSeeds }

const digestFile = "perfbench/digests.json"

// digestBook holds the recorded per-config digests:
// workload → workload seed → config label → digest.
type digestBook map[string]map[string]map[string]string

func loadDigests() (digestBook, error) {
	book := digestBook{}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		return nil, fmt.Errorf("reading recorded digests: %w", err)
	}
	if err := json.Unmarshal(data, &book); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	return book, nil
}

// checkOutcomes runs the per-config output checks: the recorded digest and
// the message budget. It returns the number of configs that failed.
func checkOutcomes(rep *report, workload string, wseed uint64, outs []configOutcome, book digestBook) int {
	recorded := book[workload][fmt.Sprint(wseed)]
	failed := 0
	for _, o := range outs {
		ok := rep.check(recorded[o.label] == o.digest,
			"%s seed %d %s: output digest %s, recorded %q", workload, wseed, o.label, o.digest, recorded[o.label])
		if !math.IsNaN(o.mpnr) {
			ok = rep.check(o.mpnr <= 1+msgBudgetSlack,
				"%s %s: %.4f messages per node per round exceeds 1+ε", workload, o.label, o.mpnr) && ok
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// recordDigests stores the outcomes' digests as the recording for a seed.
func recordDigests(workload string, wseed uint64, outs []configOutcome) error {
	book, err := loadDigests()
	if err != nil {
		book = digestBook{}
	}
	if book[workload] == nil {
		book[workload] = map[string]map[string]string{}
	}
	m := map[string]string{}
	for _, o := range outs {
		m[o.label] = o.digest
	}
	book[workload][fmt.Sprint(wseed)] = m
	data, err := json.MarshalIndent(book, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestFile, append(data, '\n'), 0o644)
}

// --- traced configurations ----------------------------------------------------

// tracedConfig returns c with every driver wrapped for a full trace.
func tracedConfig(c experiment.Config) (experiment.Config, *configObs, error) {
	c = c.WithDefaults()
	o := &configObs{full: true}
	spec, err := timedStrategy(c.Strategy, o)
	if err != nil {
		return c, nil, err
	}
	c.Strategy = spec
	c.App = &timedApp{inner: c.App, o: o}
	c.Scenario = &timedScenario{inner: c.Scenario, o: o}
	c.Runtime = &timedRuntime{inner: c.Runtime, o: o}
	if !experiment.IsDefaultNetwork(c.Network) {
		c.Network = &timedNetwork{inner: c.Network, o: o}
	}
	return c, o, nil
}

// runTraced runs one configuration behind the tracing wrappers.
func runTraced(c simConfig) (configOutcome, error) {
	tc, o, err := tracedConfig(c.cfg)
	if err != nil {
		return configOutcome{}, err
	}
	start := nanotime()
	res, err := experiment.RunParallel(context.Background(), tc, 0)
	if err != nil {
		return configOutcome{}, fmt.Errorf("%s: %w", c.label(), err)
	}
	if o.trace == nil || o.host == nil {
		return configOutcome{}, fmt.Errorf("%s: the traced run recorded no spans", c.label())
	}
	return outcomeOf(c, res, nanotime()-start, o), nil
}

// roundTimes returns the wall time of each simulated round of each run in
// milliseconds, keyed by run label and round index.
func roundTimes(runs []*configObs) map[string]float64 {
	out := map[string]float64{}
	for _, o := range runs {
		for i, ns := range o.roundNs() {
			out[fmt.Sprintf("%s#%d", o.label, i)] = ns / 1e6
		}
	}
	return out
}

// configLatencies returns every run's wall time in milliseconds, from the
// start of its overlay build to its last metric sample, keyed by label.
func configLatencies(runs []*configObs) map[string]float64 {
	out := map[string]float64{}
	for _, o := range runs {
		if n := len(o.samples); n > 0 {
			out[o.label] = float64(o.samples[n-1]-o.started) / 1e6
		}
	}
	return out
}

// setupTotal sums the set-up time of runs in seconds.
func setupTotal(runs []*configObs) (float64, error) {
	var ns int64
	for _, o := range runs {
		d, err := o.setupNs()
		if err != nil {
			return 0, err
		}
		ns += d
	}
	return float64(ns) / 1e9, nil
}

// medianPerKey returns, for every key, the median of its values over the
// passes of a run: repeated passes time the same configurations and rounds,
// so the median damps the host's noise per item before quantiles are taken
// across items.
func medianPerKey(passes []map[string]float64) []float64 {
	byKey := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := make([]float64, 0, len(byKey))
	for _, vs := range byKey {
		out = append(out, median(vs))
	}
	return out
}

// layerSums aggregates the spans of traced configurations.
type layerSums struct {
	count, total, self          [numSpans]int64
	queueNs                     float64
	events                      float64
	pendingMax                  int
	buildNs, overlayNs, traceNs int64
	strategyN, strategyNs       int64
	proactiveNs, reactiveNs     int64
	sent, dropped               int64
	received, useful            int64
	mpnrMax                     float64
	busyMin, busyMax            float64
	appCreate, appUpdate        map[string][2]int64 // app → {count, self ns}
}

// spanTotals is one traced run's spans summed over its executors.
type spanTotals struct {
	count, total, self [numSpans]int64
	// queueNs is the wall time inside Env.Run, once per shard worker, not
	// covered by an outermost span: popping events, and in sharded runs also
	// waiting at barriers.
	queueNs int64
}

func (t *runTrace) totals() spanTotals {
	var s spanTotals
	var top int64
	for i := range t.execs {
		x := &t.execs[i]
		top += x.top
		for k := spanKind(0); k < numSpans; k++ {
			s.count[k] += x.count[k]
			s.total[k] += x.total[k]
			s.self[k] += x.self[k]
		}
	}
	workers := int64(1)
	if t.shardOf != nil {
		workers = int64(len(t.execs) - 1)
	}
	s.queueNs = workers*t.runNs - top
	return s
}

func sumLayers(outs []configOutcome) *layerSums {
	s := &layerSums{appCreate: map[string][2]int64{}, appUpdate: map[string][2]int64{}, busyMin: math.Inf(1)}
	for _, out := range outs {
		o, t := out.obs, out.obs.trace
		tot := t.totals()
		for k := spanKind(0); k < numSpans; k++ {
			s.count[k] += tot.count[k]
			s.total[k] += tot.total[k]
			s.self[k] += tot.self[k]
		}
		c, u := s.appCreate[out.app], s.appUpdate[out.app]
		s.appCreate[out.app] = [2]int64{c[0] + tot.count[spanCreate], c[1] + tot.self[spanCreate]}
		s.appUpdate[out.app] = [2]int64{u[0] + tot.count[spanUpdate], u[1] + tot.self[spanUpdate]}
		if t.shardOf != nil {
			for i := 0; i < len(t.execs)-1; i++ {
				busy := float64(t.execs[i].top) / float64(t.runNs)
				s.busyMin = math.Min(s.busyMin, busy)
				s.busyMax = math.Max(s.busyMax, busy)
			}
		}
		s.queueNs += float64(tot.queueNs)
		s.events += float64(t.events)
		s.pendingMax = max(s.pendingMax, t.pendingMax)
		s.buildNs += t.runStart - t.envReady
		s.overlayNs += o.overlayNs
		s.traceNs += o.traceNs
		s.strategyN += o.proactive.n.Load() + o.reactive.n.Load()
		s.proactiveNs += o.proactive.ns.Load()
		s.reactiveNs += o.reactive.ns.Load()
		s.sent += o.host.MessagesSent()
		s.dropped += o.host.MessagesDropped()
		st := o.host.TotalStats()
		s.received += int64(st.Received)
		s.useful += int64(st.UsefulReceived)
		s.mpnrMax = math.Max(s.mpnrMax, out.mpnr)
	}
	if math.IsInf(s.busyMin, 1) {
		s.busyMin, s.busyMax = 0, 0
	}
	return s
}

// setLayerMetrics reports the simulator's per-layer metrics from the spans.
func (s *layerSums) setLayerMetrics(rep *report) {
	rep.set("sim.events", s.events)
	rep.set("sim.queue_ns_per_event", ratio(s.queueNs, s.events))
	rep.set("sim.pending_max", float64(s.pendingMax))
	rep.set("simnet.send_ns", ratio(float64(s.total[spanSend]), float64(s.count[spanSend])))
	rep.set("simnet.shard_busy_frac_min", s.busyMin)
	rep.set("simnet.shard_busy_frac_max", s.busyMax)
	rep.set("runtime.tick_ns", ratio(float64(s.self[spanTick]-s.proactiveNs), float64(s.count[spanTick])))
	rep.set("runtime.deliver_ns", ratio(float64(s.self[spanDeliver]-s.reactiveNs), float64(s.count[spanDeliver])))
	rep.set("runtime.build_s", float64(s.buildNs)/1e9)
	rep.set("runtime.msgs_sent", float64(s.sent))
	rep.set("runtime.msgs_dropped", float64(s.dropped))
	rep.set("protocol.useful_frac", ratio(float64(s.useful), float64(s.received)))
	rep.set("protocol.msgs_per_node_round", s.mpnrMax)
	rep.set("core.strategy_ns", ratio(float64(s.proactiveNs+s.reactiveNs), float64(s.strategyN)))
	for _, app := range []string{"gossip-learning", "push-gossip", "chaotic-iteration"} {
		c, u := s.appCreate[app], s.appUpdate[app]
		rep.set("apps.create_ns."+app, ratio(float64(c[1]), float64(c[0])))
		rep.set("apps.update_ns."+app, ratio(float64(u[1]), float64(u[0])))
	}
	rep.set("netmodel.draw_ns", ratio(float64(s.total[spanDraw]), float64(s.count[spanDraw])))
	rep.set("overlay.build_s", float64(s.overlayNs)/1e9)
	rep.set("trace.build_s", float64(s.traceNs)/1e9)
	rep.set("experiment.sample_ns", ratio(float64(s.self[spanSample]), float64(s.count[spanSample])))
}

// configTrace is one configuration's entry in the trace file.
type configTrace struct {
	Label           string                      `json:"label"`
	WallS           float64                     `json:"wall_s"`
	Events          uint64                      `json:"events"`
	RunS            float64                     `json:"run_s"`
	QueueNsPerEvent float64                     `json:"queue_ns_per_event"`
	Spans           map[string]map[string]int64 `json:"spans"`
	StrategyNs      int64                       `json:"strategy_ns"`
	StrategyCalls   int64                       `json:"strategy_calls"`
	SetupNs         map[string]int64            `json:"setup_ns"`
	Sampled         []spanRecord                `json:"sampled_spans"`
}

func traceEntry(out configOutcome) configTrace {
	o, t := out.obs, out.obs.trace
	e := configTrace{
		Label:         out.label,
		WallS:         float64(out.wallNs) / 1e9,
		Events:        t.events,
		RunS:          float64(t.runNs) / 1e9,
		Spans:         map[string]map[string]int64{},
		StrategyNs:    o.proactive.ns.Load() + o.reactive.ns.Load(),
		StrategyCalls: o.proactive.n.Load() + o.reactive.n.Load(),
		SetupNs: map[string]int64{
			"overlay": o.overlayNs, "trace": o.traceNs, "app_state": o.appStateNs,
			"env": o.envNs, "host": t.runStart - t.envReady,
		},
	}
	tot := t.totals()
	for k := spanKind(0); k < numSpans; k++ {
		if tot.count[k] > 0 {
			e.Spans[spanNames[k]] = map[string]int64{"count": tot.count[k], "total_ns": tot.total[k], "self_ns": tot.self[k]}
		}
	}
	for i := range t.execs {
		e.Sampled = append(e.Sampled, t.execs[i].samples...)
	}
	e.QueueNsPerEvent = ratio(float64(tot.queueNs), float64(t.events))
	return e
}

// writeTrace writes the traced run's spans to .bench_build/traces/.
func writeTrace(workload string, seed uint64, v any) (string, error) {
	dir := ".bench_build/traces"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := fmt.Sprintf("%s/%s-seed%d.json", dir, workload, seed)
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedOutcomes orders outcomes by label, for stable trace files.
func sortedOutcomes(outs []configOutcome) []configOutcome {
	s := append([]configOutcome(nil), outs...)
	sort.Slice(s, func(i, j int) bool { return s[i].label < s[j].label })
	return s
}

// calendarOverSlab times one configuration on the calendar and on the slab
// event queue, untraced, and checks that both produce the same output.
func calendarOverSlab(rep *report, c simConfig) (float64, error) {
	var walls [2]float64
	var digests [2]string
	for i, kind := range []sim.QueueKind{sim.QueueCalendar, sim.QueueSlab} {
		cfg := c.cfg
		cfg.Runtime = experiment.SimRuntimeWithQueue(kind)
		start := time.Now()
		res, err := experiment.Run(cfg)
		if err != nil {
			return 0, fmt.Errorf("%s on the %s queue: %w", c.label(), kind, err)
		}
		walls[i] = time.Since(start).Seconds()
		digests[i] = outcomeOf(c, res, 0, nil).digest
	}
	rep.check(digests[0] == digests[1], "%s: calendar and slab queues disagree (%s vs %s)", c.label(), digests[0], digests[1])
	return walls[0] / walls[1], nil
}
