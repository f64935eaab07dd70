package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	_ "unsafe" // for go:linkname

	"github.com/szte-dcs/tokenaccount/core"
	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/metrics"
	"github.com/szte-dcs/tokenaccount/netmodel"
	"github.com/szte-dcs/tokenaccount/overlay"
	"github.com/szte-dcs/tokenaccount/protocol"
	"github.com/szte-dcs/tokenaccount/runtime"
	"github.com/szte-dcs/tokenaccount/sim"
	"github.com/szte-dcs/tokenaccount/trace"
)

// This file holds the wrappers a traced run installs around every layer's
// public interface: the experiment drivers (application, scenario, runtime,
// network, strategy), the runtime.Env with its hooks and delivery callback,
// the per-node protocol.Application, the core.Strategy and the
// netmodel.Model. Each wrapper times the calls it forwards and nothing else.
// Every optional capability the program looks for on the wrapped value
// (DelayedSender, HookScheduler, StreamSeeder, Sharded, MinDelayer,
// ShardPlanner, RejoinHandler, RunStarter, RunSummarizer, ...) is forwarded
// exactly when the wrapped value has it, so the traced program takes the
// same code paths and produces byte-identical output.

// nanotime is the runtime's monotonic clock: one vDSO read, about half the
// cost of time.Now, which also reads the wall clock.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// spanKind names what a span timed.
type spanKind uint8

const (
	spanTick    spanKind = iota // runtime tick hook: Host tick plus protocol.Node.Tick
	spanChurn                   // runtime churn hook: a trace transition and its rejoin
	spanDeliver                 // Host delivery plus protocol.Node.Receive
	spanClosure                 // At/Schedule/Every callbacks: injections, the sampling driver
	spanSample                  // experiment AppRun.Sample
	spanSend                    // simnet Send/SendDelayed: pushing a delivery event
	spanCreate                  // Application.CreateMessage
	spanUpdate                  // Application.UpdateState
	spanDraw                    // netmodel Delay and Drop
	numSpans
)

var spanNames = [numSpans]string{
	"runtime.tick", "runtime.churn", "runtime.deliver", "sim.closure", "experiment.sample",
	"simnet.send", "apps.create", "apps.update", "netmodel.draw",
}

const (
	maxSpanDepth = 8
	// Every sampleEvery-th span of an executor is kept as a record for the
	// trace file, up to maxSamples per executor.
	sampleEvery = 4096
	maxSamples  = 256
)

// spanRecord is one sampled span, written to the trace file.
type spanRecord struct {
	Kind    string `json:"kind"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// executor accumulates the spans of one goroutine that runs events: the
// single goroutine of a sequential run, or one shard worker, or the
// coordinator of a sharded run. A span's self time is its duration minus the
// time of the spans nested in it.
type executor struct {
	depth   int
	start   [maxSpanDepth]int64
	child   [maxSpanDepth]int64
	count   [numSpans]int64
	total   [numSpans]int64
	self    [numSpans]int64
	top     int64 // summed duration of the outermost spans
	seen    uint64
	samples []spanRecord
	_       [64]byte // keeps executors of concurrent shards on separate cache lines
}

func (x *executor) enter() {
	if x.depth == maxSpanDepth {
		panic("perfbench: span nesting deeper than the layers allow")
	}
	x.start[x.depth] = nanotime()
	x.child[x.depth] = 0
	x.depth++
}

func (x *executor) exit(k spanKind) {
	x.depth--
	begin := x.start[x.depth]
	d := nanotime() - begin
	x.count[k]++
	x.total[k] += d
	x.self[k] += d - x.child[x.depth]
	if x.depth > 0 {
		x.child[x.depth-1] += d
	} else {
		x.top += d
	}
	x.seen++
	if x.seen%sampleEvery == 0 && len(x.samples) < maxSamples {
		x.samples = append(x.samples, spanRecord{Kind: spanNames[k], StartNs: begin, DurNs: d})
	}
}

// opStat counts and times calls that cannot be attributed to an executor
// (strategy calls carry no node identity), so they are summed atomically.
type opStat struct {
	n, ns atomic.Int64
}

func (s *opStat) add(d int64) {
	s.n.Add(1)
	s.ns.Add(d)
}

// runTrace holds the spans of one traced repetition.
type runTrace struct {
	execs   []executor // one per shard, then the coordinator
	coord   *executor
	shardOf []int32 // nil in a sequential run
	pending func() int

	pendingMax int
	envReady   int64 // when NewEnv returned
	runStart   int64 // when Env.Run was first called
	runNs      int64 // wall time inside Env.Run
	events     uint64
}

// exec returns the executor a call about the given node runs on: the
// node's shard, except inside coordinator events, which run while every
// shard is parked at a barrier.
func (t *runTrace) exec(node int32) *executor {
	if t.shardOf == nil || t.coord.depth > 0 {
		return t.coord
	}
	return &t.execs[t.shardOf[node]]
}

// configObs observes one experiment configuration. In light mode (untraced
// runs) it only timestamps the start and end of the run's set-up and the
// per-round metric samples; in full mode it also owns the run's spans and
// set-up timings.
type configObs struct {
	full    bool
	label   string // light mode: the run's configuration label
	started int64  // light mode: when the run's overlay build began
	built   int64  // light mode: when the run was ready to run (RunStarter.Start)

	overlayNs, traceNs, appStateNs, envNs int64
	samples                               []int64 // nanotime of each AppRun.Sample
	trace                                 *runTrace
	host                                  *runtime.Host
	proactive, reactive                   opStat
}

// roundNs returns the wall time between consecutive metric samples: one
// simulated round each, since samples are taken once per Δ.
func (o *configObs) roundNs() []float64 {
	var out []float64
	for i := 1; i < len(o.samples); i++ {
		out = append(out, float64(o.samples[i]-o.samples[i-1]))
	}
	return out
}

// --- experiment drivers -----------------------------------------------------

// timedApp wraps an AppDriver. The optional driver capabilities the
// experiment layer asks for are answered as the wrapped driver would: a
// missing ConfigValidator validates, a missing ArrivalConsumer is not
// arrival-driven, and a missing MetricFinisher leaves the average unchanged.
type timedApp struct {
	inner experiment.AppDriver
	o     *configObs // full mode: the configuration's observer

	mu      sync.Mutex
	light   []*configObs             // light mode (o nil): one observer per run
	overlay map[*overlay.Graph]int64 // light mode: when each run's overlay build began
}

var (
	_ experiment.ConfigValidator = (*timedApp)(nil)
	_ experiment.ArrivalConsumer = (*timedApp)(nil)
	_ experiment.MetricFinisher  = (*timedApp)(nil)
)

func (a *timedApp) Name() string        { return a.inner.Name() }
func (a *timedApp) MetricLabel() string { return a.inner.MetricLabel() }
func (a *timedApp) String() string      { return experiment.DriverLabel(a.inner) }

// BuildOverlay is the first call runOnce makes on the driver after the
// strategy build, so in light mode it marks the start of a run's set-up. The
// run it belongs to is found again in NewRun by the graph it returned.
func (a *timedApp) BuildOverlay(cfg experiment.Config, seed uint64) (*overlay.Graph, error) {
	s := nanotime()
	g, err := a.inner.BuildOverlay(cfg, seed)
	if a.o != nil {
		a.o.overlayNs += nanotime() - s
	} else if err == nil {
		a.mu.Lock()
		if a.overlay == nil {
			a.overlay = map[*overlay.Graph]int64{}
		}
		a.overlay[g] = s
		a.mu.Unlock()
	}
	return g, err
}

func (a *timedApp) NewRun(cfg experiment.Config, g *overlay.Graph) (experiment.AppRun, error) {
	s := nanotime()
	o := a.o
	if o == nil {
		o = &configObs{label: cfg.Label(), started: s}
		a.mu.Lock()
		if t, ok := a.overlay[g]; ok {
			o.started = t
			delete(a.overlay, g)
		}
		a.light = append(a.light, o)
		a.mu.Unlock()
	}
	r, err := a.inner.NewRun(cfg, g)
	o.appStateNs += nanotime() - s
	if err != nil {
		return nil, err
	}
	tr := &timedRun{inner: r, o: o}
	st, _ := r.(experiment.RunStarter)
	if !o.full {
		st = &setupStamp{inner: st, o: o}
	}
	return wrapRun(tr, st), nil
}

// setupStamp is the RunStarter of a light-mode run. runOnce calls Start
// once, right after runtime.NewHost and before the run's first event, and
// does nothing else with the capability, so the stamp marks the end of
// set-up without changing the run: it forwards to the wrapped run's Start
// if there is one and otherwise does nothing. (The full-mode wrapper has
// exactly the wrapped run's capabilities; its set-up is timed per layer.)
type setupStamp struct {
	inner experiment.RunStarter // nil when the wrapped run has no Start
	o     *configObs
}

func (s *setupStamp) Start(rc *experiment.RunContext) {
	if s.inner != nil {
		s.inner.Start(rc)
	}
	s.o.built = nanotime()
}

// setupNs returns how long the run took from the start of its overlay build
// until it was ready to run.
func (o *configObs) setupNs() (int64, error) {
	if o.built == 0 {
		return 0, fmt.Errorf("perfbench: run %s never started", o.label)
	}
	return o.built - o.started, nil
}

// lightRuns returns the observers of the runs made in light mode.
func (a *timedApp) lightRuns() []*configObs {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*configObs(nil), a.light...)
}

func (a *timedApp) Validate(cfg experiment.Config) error {
	if v, ok := a.inner.(experiment.ConfigValidator); ok {
		return v.Validate(cfg)
	}
	return nil
}

func (a *timedApp) ArrivalDriven() bool {
	c, ok := a.inner.(experiment.ArrivalConsumer)
	return ok && c.ArrivalDriven()
}

func (a *timedApp) FinishMetric(cfg experiment.Config, avg *metrics.Series) *metrics.Series {
	if f, ok := a.inner.(experiment.MetricFinisher); ok {
		return f.FinishMetric(cfg, avg)
	}
	return avg
}

// timedRun wraps an AppRun: it timestamps the samples and, in full mode,
// times them and wraps every node's application.
type timedRun struct {
	inner experiment.AppRun
	o     *configObs
}

func (r *timedRun) NewApp(i int) protocol.Application {
	app := r.inner.NewApp(i)
	if !r.o.full || app == nil {
		return app
	}
	return &timedAppState{inner: app, o: r.o, node: int32(i)}
}

func (r *timedRun) Sample(t float64, rc *experiment.RunContext) float64 {
	o := r.o
	o.samples = append(o.samples, nanotime())
	if !o.full {
		return r.inner.Sample(t, rc)
	}
	o.host = rc.Host
	tr := o.trace
	if p := tr.pending(); p > tr.pendingMax {
		tr.pendingMax = p
	}
	tr.coord.enter()
	v := r.inner.Sample(t, rc)
	tr.coord.exit(spanSample)
	return v
}

// The AppRun capabilities runOnce asks for, in every combination, so the
// wrapper has exactly the given ones.
type (
	runR struct {
		*timedRun
		experiment.RejoinHandler
	}
	runS struct {
		*timedRun
		experiment.RunStarter
	}
	runU struct {
		*timedRun
		experiment.RunSummarizer
	}
	runRS struct {
		*timedRun
		experiment.RejoinHandler
		experiment.RunStarter
	}
	runRU struct {
		*timedRun
		experiment.RejoinHandler
		experiment.RunSummarizer
	}
	runSU struct {
		*timedRun
		experiment.RunStarter
		experiment.RunSummarizer
	}
	runRSU struct {
		*timedRun
		experiment.RejoinHandler
		experiment.RunStarter
		experiment.RunSummarizer
	}
)

// wrapRun gives r the wrapped run's RejoinHandler and RunSummarizer, and st
// as its RunStarter when st is not nil.
func wrapRun(r *timedRun, st experiment.RunStarter) experiment.AppRun {
	rh, hasR := r.inner.(experiment.RejoinHandler)
	hasS := st != nil
	su, hasU := r.inner.(experiment.RunSummarizer)
	switch {
	case hasR && hasS && hasU:
		return runRSU{r, rh, st, su}
	case hasR && hasS:
		return runRS{r, rh, st}
	case hasR && hasU:
		return runRU{r, rh, su}
	case hasS && hasU:
		return runSU{r, st, su}
	case hasR:
		return runR{r, rh}
	case hasS:
		return runS{r, st}
	case hasU:
		return runU{r, su}
	}
	return r
}

// timedAppState wraps one node's application.
type timedAppState struct {
	inner protocol.Application
	o     *configObs
	node  int32
}

func (a *timedAppState) CreateMessage() protocol.Payload {
	x := a.o.trace.exec(a.node)
	x.enter()
	p := a.inner.CreateMessage()
	x.exit(spanCreate)
	return p
}

func (a *timedAppState) UpdateState(from protocol.NodeID, p protocol.Payload) bool {
	x := a.o.trace.exec(a.node)
	x.enter()
	useful := a.inner.UpdateState(from, p)
	x.exit(spanUpdate)
	return useful
}

// timedScenario wraps a ScenarioDriver and times the trace build.
type timedScenario struct {
	inner experiment.ScenarioDriver
	o     *configObs
}

func (s *timedScenario) Name() string   { return s.inner.Name() }
func (s *timedScenario) String() string { return experiment.DriverLabel(s.inner) }
func (s *timedScenario) Churny() bool   { return s.inner.Churny() }

func (s *timedScenario) BuildTrace(cfg experiment.Config, seed uint64) (*trace.Trace, error) {
	start := nanotime()
	tr, err := s.inner.BuildTrace(cfg, seed)
	s.o.traceNs += nanotime() - start
	return tr, err
}

// timedRuntime wraps a RuntimeDriver: the environment it builds is traced.
type timedRuntime struct {
	inner experiment.RuntimeDriver
	o     *configObs
}

func (r *timedRuntime) Name() string   { return r.inner.Name() }
func (r *timedRuntime) String() string { return experiment.DriverLabel(r.inner) + "+traced" }

func (r *timedRuntime) NewEnv(cfg experiment.Config, seed uint64) (runtime.Env, error) {
	s := nanotime()
	env, err := r.inner.NewEnv(cfg, seed)
	r.o.envNs += nanotime() - s
	if err != nil {
		return nil, err
	}
	if r.o.trace != nil {
		return nil, fmt.Errorf("perfbench: a traced configuration runs one repetition")
	}
	tr, wrapped, err := traceEnv(env)
	if err != nil {
		return nil, err
	}
	r.o.trace = tr
	tr.envReady = nanotime()
	return wrapped, nil
}

// timedNetwork wraps a NetworkDriver: the models it builds are traced.
type timedNetwork struct {
	inner experiment.NetworkDriver
	o     *configObs
}

func (n *timedNetwork) Name() string   { return n.inner.Name() }
func (n *timedNetwork) String() string { return experiment.DriverLabel(n.inner) }

func (n *timedNetwork) Model(cfg experiment.Config) (netmodel.Model, error) {
	m, err := n.inner.Model(cfg)
	if err != nil || m == nil {
		return m, err
	}
	base := &timedModel{inner: m, o: n.o}
	md, hasMD := m.(netmodel.MinDelayer)
	sp, hasSP := m.(netmodel.ShardPlanner)
	switch {
	case hasMD && hasSP:
		return modelMDSP{base, md, sp}, nil
	case hasMD:
		return modelMD{base, md}, nil
	case hasSP:
		return modelSP{base, sp}, nil
	}
	return base, nil
}

type timedModel struct {
	inner netmodel.Model
	o     *configObs
}

type (
	modelMD struct {
		*timedModel
		netmodel.MinDelayer
	}
	modelSP struct {
		*timedModel
		netmodel.ShardPlanner
	}
	modelMDSP struct {
		*timedModel
		netmodel.MinDelayer
		netmodel.ShardPlanner
	}
)

func (m *timedModel) Delay(from, to protocol.NodeID, r protocol.Rand) float64 {
	x := m.o.trace.exec(int32(from))
	x.enter()
	d := m.inner.Delay(from, to, r)
	x.exit(spanDraw)
	return d
}

func (m *timedModel) Drop(from, to protocol.NodeID, r protocol.Rand) bool {
	x := m.o.trace.exec(int32(from))
	x.enter()
	drop := m.inner.Drop(from, to, r)
	x.exit(spanDraw)
	return drop
}

// timedStrategyDriver is a strategy family registered once per traced
// configuration: it builds the configuration's real strategy and times it.
type timedStrategyDriver struct {
	kind  experiment.StrategyKind
	inner experiment.StrategySpec
	o     *configObs
}

var strategyKinds atomic.Int64

// timedStrategy registers a strategy family for one configuration and
// returns the spec selecting it. Its labels are the wrapped spec's.
func timedStrategy(inner experiment.StrategySpec, o *configObs) (experiment.StrategySpec, error) {
	d := &timedStrategyDriver{
		kind:  experiment.StrategyKind(fmt.Sprintf("perfbench-timed-%d", strategyKinds.Add(1))),
		inner: inner,
		o:     o,
	}
	if err := experiment.RegisterStrategy(d); err != nil {
		return experiment.StrategySpec{}, err
	}
	return experiment.StrategySpec{Kind: d.kind, A: inner.A, C: inner.C}, nil
}

func (d *timedStrategyDriver) Kind() experiment.StrategyKind { return d.kind }
func (d *timedStrategyDriver) Parse([]string) (experiment.StrategySpec, error) {
	return experiment.StrategySpec{}, fmt.Errorf("perfbench: %s is not parseable", d.kind)
}
func (d *timedStrategyDriver) Format(experiment.StrategySpec) string { return d.inner.String() }
func (d *timedStrategyDriver) Label(experiment.StrategySpec) string  { return d.inner.Label() }
func (d *timedStrategyDriver) Grid() []experiment.StrategySpec       { return nil }

func (d *timedStrategyDriver) Build(experiment.StrategySpec) (core.Strategy, error) {
	s, err := d.inner.Build()
	if err != nil {
		return nil, err
	}
	if core.AllowsOverspend(s) {
		// The account checks the concrete type; a wrapper would change
		// the run, so this strategy stays untimed.
		return s, nil
	}
	return &timedCoreStrategy{inner: s, o: d.o}, nil
}

type timedCoreStrategy struct {
	inner core.Strategy
	o     *configObs
}

func (s *timedCoreStrategy) Proactive(a int) float64 {
	start := nanotime()
	p := s.inner.Proactive(a)
	s.o.proactive.add(nanotime() - start)
	return p
}

func (s *timedCoreStrategy) Reactive(a int, useful bool) float64 {
	start := nanotime()
	r := s.inner.Reactive(a, useful)
	s.o.reactive.add(nanotime() - start)
	return r
}

func (s *timedCoreStrategy) Capacity() int { return s.inner.Capacity() }
func (s *timedCoreStrategy) Name() string  { return s.inner.Name() }

// --- runtime.Env --------------------------------------------------------------

// The simulated environments this benchmark traces; traceEnv requires these
// capabilities and fails loudly on an environment without them.
type simEnv interface {
	runtime.Env
	runtime.DelayedSender
	runtime.HookScheduler
	runtime.StreamSeeder
	Processed() uint64
}

// traceEnv wraps a simulated environment, sharded or not.
func traceEnv(env runtime.Env) (*runTrace, runtime.Env, error) {
	inner, ok := env.(simEnv)
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: environment %T lacks a capability the simulator has", env)
	}
	t := &runTrace{}
	switch e := env.(type) {
	case interface{ Engine() *sim.Engine }:
		t.pending = e.Engine().Pending
	case interface{ Engine() *sim.ShardedEngine }:
		t.pending = e.Engine().Pending
	default:
		return nil, nil, fmt.Errorf("perfbench: environment %T exposes no event engine", env)
	}
	sh, sharded := env.(runtime.Sharded)
	if !sharded || sh.NumShards() <= 1 {
		t.execs = make([]executor, 1)
		t.coord = &t.execs[0]
		te := &tracedEnv{inner: inner, t: t}
		te.hooks = hookCache{x: t.coord, byHook: map[runtime.Hook]*tracedHook{}}
		return t, te, nil
	}
	n := sh.NumShards()
	t.execs = make([]executor, n+1)
	t.coord = &t.execs[n]
	t.shardOf = make([]int32, env.N())
	for i := range t.shardOf {
		t.shardOf[i] = int32(sh.ShardOf(i))
	}
	te := &tracedShardedEnv{tracedEnv: &tracedEnv{inner: inner, t: t}, sharded: sh}
	te.hooks = hookCache{x: t.coord, byHook: map[runtime.Hook]*tracedHook{}}
	for s := 0; s < n; s++ {
		f := sh.Shard(s)
		hs, ok := f.(runtime.HookScheduler)
		if !ok {
			return nil, nil, fmt.Errorf("perfbench: shard scheduler %T lacks AtHook", f)
		}
		x := &t.execs[s]
		te.shards = append(te.shards, &tracedShard{
			inner: f, hs: hs, x: x,
			hooks: hookCache{x: x, byHook: map[runtime.Hook]*tracedHook{}},
		})
	}
	return t, te, nil
}

// tracedHook is the stable wrapper of one hook on one scheduler, so the
// environment sees one hook identity per wrapped hook, as without tracing.
type tracedHook struct {
	inner runtime.Hook
	x     *executor
	kind  spanKind
}

func (w *tracedHook) RunHook(node int32, word uint64) {
	w.x.enter()
	w.inner.RunHook(node, word)
	w.x.exit(w.kind)
}

// hookCache maps hooks to their wrappers. New hooks are registered during
// assembly or from coordinator context, as the HookScheduler contract
// requires, so each cache is only written by the goroutine that owns it.
type hookCache struct {
	x      *executor
	byHook map[runtime.Hook]*tracedHook
	// The last lookup: a tick hook reschedules itself, so nearly every
	// lookup repeats it and skips the map.
	last  runtime.Hook
	lastW *tracedHook
}

func (c *hookCache) get(h runtime.Hook) *tracedHook {
	if h == c.last {
		return c.lastW
	}
	w, ok := c.byHook[h]
	if !ok {
		kind := spanClosure
		switch name := fmt.Sprintf("%T", h); {
		case strings.Contains(name, "tickHook"):
			kind = spanTick
		case strings.Contains(name, "churnHook"):
			kind = spanChurn
		}
		w = &tracedHook{inner: h, x: c.x, kind: kind}
		c.byHook[h] = w
	}
	c.last, c.lastW = h, w
	return w
}

func timedClosure(x *executor, fn func()) func() {
	return func() {
		x.enter()
		fn()
		x.exit(spanClosure)
	}
}

func timedEvery(x *executor, fn func() bool) func() bool {
	return func() bool {
		x.enter()
		ok := fn()
		x.exit(spanClosure)
		return ok
	}
}

// tracedEnv is the traced sequential environment (and the coordinator view
// of a sharded one).
type tracedEnv struct {
	inner simEnv
	t     *runTrace
	hooks hookCache
}

func (e *tracedEnv) Now() float64                     { return e.inner.Now() }
func (e *tracedEnv) Rand(stream uint64) protocol.Rand { return e.inner.Rand(stream) }
func (e *tracedEnv) StreamSeed(stream uint64) uint64  { return e.inner.StreamSeed(stream) }
func (e *tracedEnv) N() int                           { return e.inner.N() }
func (e *tracedEnv) Online(node int) bool             { return e.inner.Online(node) }
func (e *tracedEnv) SetOnline(node int)               { e.inner.SetOnline(node) }
func (e *tracedEnv) SetOffline(node int)              { e.inner.SetOffline(node) }
func (e *tracedEnv) Close() error                     { return e.inner.Close() }
func (e *tracedEnv) Processed() uint64                { return e.inner.Processed() }

func (e *tracedEnv) At(t float64, fn func()) { e.inner.At(t, timedClosure(e.t.coord, fn)) }
func (e *tracedEnv) Schedule(delay float64, fn func()) {
	e.inner.Schedule(delay, timedClosure(e.t.coord, fn))
}
func (e *tracedEnv) Every(phase, interval float64, fn func() bool) {
	e.inner.Every(phase, interval, timedEvery(e.t.coord, fn))
}

func (e *tracedEnv) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	e.inner.AtHook(t, e.hooks.get(hook), node, word)
}

func (e *tracedEnv) Send(from, to protocol.NodeID, p protocol.Payload) {
	x := e.t.exec(int32(from))
	x.enter()
	e.inner.Send(from, to, p)
	x.exit(spanSend)
}

func (e *tracedEnv) SendDelayed(from, to protocol.NodeID, p protocol.Payload, delay float64) {
	x := e.t.exec(int32(from))
	x.enter()
	e.inner.SendDelayed(from, to, p, delay)
	x.exit(spanSend)
}

func (e *tracedEnv) SetDeliver(fn runtime.DeliverFunc) {
	t := e.t
	e.inner.SetDeliver(func(from, to protocol.NodeID, p protocol.Payload) {
		x := t.exec(int32(to))
		x.enter()
		fn(from, to, p)
		x.exit(spanDeliver)
	})
}

func (e *tracedEnv) Run(until float64) error {
	start := nanotime()
	if e.t.runStart == 0 {
		e.t.runStart = start
	}
	err := e.inner.Run(until)
	e.t.runNs += nanotime() - start
	e.t.events = e.inner.Processed()
	return err
}

// tracedShardedEnv adds the Sharded capability.
type tracedShardedEnv struct {
	*tracedEnv
	sharded runtime.Sharded
	shards  []*tracedShard
}

func (e *tracedShardedEnv) NumShards() int                     { return len(e.shards) }
func (e *tracedShardedEnv) ShardOf(node int) int               { return e.sharded.ShardOf(node) }
func (e *tracedShardedEnv) Shard(s int) runtime.ShardScheduler { return e.shards[s] }

// tracedShard is the traced scheduling surface of one shard.
type tracedShard struct {
	inner runtime.ShardScheduler
	hs    runtime.HookScheduler
	x     *executor
	hooks hookCache
}

func (s *tracedShard) Now() float64 { return s.inner.Now() }
func (s *tracedShard) Schedule(delay float64, fn func()) {
	s.inner.Schedule(delay, timedClosure(s.x, fn))
}
func (s *tracedShard) Every(phase, interval float64, fn func() bool) {
	s.inner.Every(phase, interval, timedEvery(s.x, fn))
}
func (s *tracedShard) AtHook(t float64, hook runtime.Hook, node int32, word uint64) {
	s.hs.AtHook(t, s.hooks.get(hook), node, word)
}

var (
	_ simEnv                = (*tracedEnv)(nil)
	_ runtime.Sharded       = (*tracedShardedEnv)(nil)
	_ runtime.HookScheduler = (*tracedShard)(nil)
)
