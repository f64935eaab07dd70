package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
)

// The paperfigs workload: the paper's Figures 2, 3 and 5 at the paper's
// N = 5000, through the experiment layer's own entry points. 30 rounds keep
// a pass near ten seconds on a 2-core host while running well past round
// ~20, where the calendar queue starts to collapse on gossip learning ×
// generalized(A=10,C=20).
const (
	paperN       = 5000
	paperRounds  = 30
	paperWorkers = 2
	// paperSeed is the figure seed of every paperfigs run, paperfigs' own
	// default. The calendar collapse is seed-dependent and heavy-tailed: at
	// 30 rounds gossip learning × generalized(A=10,C=20) alone took
	// 0.1-5.2 s over seeds 0-24, and a pass over the figures took 3.6-11.2 s
	// over seeds 0-7. Varying the figure seed with the driver's seed would
	// make wall_s spread by a factor of two between runs, so the figures
	// stay at this seed, whose collapse the README measures.
	paperSeed = 1
)

// paperRow is one row of a figure: one application under the figure's
// scenario, for every representative strategy.
type paperRow struct {
	fig int
	app experiment.AppDriver
}

var paperRows = []paperRow{
	{2, experiment.GossipLearning}, {2, experiment.PushGossip}, {2, experiment.ChaoticIteration},
	{3, experiment.GossipLearning}, {3, experiment.PushGossip},
}

// figure5Strategies are the settings experiment.Figure5 plots.
var figure5Strategies = []experiment.StrategySpec{
	experiment.Randomized(1, 10), experiment.Randomized(5, 10),
	experiment.Randomized(10, 20), experiment.Randomized(20, 40),
}

func paperOptions(seed uint64) experiment.Options {
	return experiment.Options{N: paperN, Rounds: paperRounds, Repetitions: 1, Seed: seed, Workers: paperWorkers}
}

// paperConfigs lists the workload's configurations row by row, as Figure2,
// Figure3 and Figure5 build them; the last row is Figure 5.
func paperConfigs(seed uint64) [][]simConfig {
	var rows [][]simConfig
	for _, r := range paperRows {
		scenario := experiment.FailureFree
		if r.fig == 3 {
			scenario = experiment.SmartphoneTrace
		}
		var row []simConfig
		for _, spec := range experiment.RepresentativeStrategies() {
			row = append(row, simConfig{fig: r.fig, cfg: experiment.Config{
				App: r.app, Strategy: spec, N: paperN, Rounds: paperRounds,
				Scenario: scenario, Seed: seed, Repetitions: 1,
			}})
		}
		rows = append(rows, row)
	}
	var fig5 []simConfig
	for _, spec := range figure5Strategies {
		fig5 = append(fig5, simConfig{fig: 5, cfg: experiment.Config{
			App: experiment.GossipLearning, Strategy: spec, N: paperN, Rounds: paperRounds,
			Scenario: experiment.FailureFree, Seed: seed, Repetitions: 1, TrackTokens: true,
		}})
	}
	return append(rows, fig5)
}

// paperPass is one untraced pass over the three figures.
type paperPass struct {
	outs    []configOutcome
	wall    float64            // the whole pass, seconds
	wall23  float64            // Figures 2 and 3, seconds
	setup23 float64            // summed set-up time of the configurations of Figures 2 and 3, seconds
	cpu23   time.Duration      // CPU time of Figures 2 and 3
	latency map[string]float64 // wall time of every configuration of Figures 2 and 3, ms
}

// events and messages of Figures 2 and 3; Figure5 returns no Results.
func (p *paperPass) totals() (events, msgs float64) {
	for _, o := range p.outs {
		events += o.events
		msgs += o.msgs
	}
	return events, msgs
}

func paperfigsPass(seed uint64) (*paperPass, error) {
	opt := paperOptions(seed)
	p := &paperPass{latency: map[string]float64{}}
	var apps []*timedApp
	start, cpu0 := time.Now(), selfCPU()
	for _, r := range paperRows {
		app := &timedApp{inner: r.app}
		apps = append(apps, app)
		var fr *experiment.FigureResult
		var err error
		if r.fig == 2 {
			fr, err = experiment.Figure2(app, opt)
		} else {
			fr, err = experiment.Figure3(app, opt)
		}
		if err != nil {
			return nil, err
		}
		for _, res := range fr.Results {
			p.outs = append(p.outs, outcomeOf(simConfig{fig: r.fig, cfg: res.Config}, res, 0, nil))
		}
	}
	p.wall23, p.cpu23 = time.Since(start).Seconds(), selfCPU()-cpu0
	settings, _, err := experiment.Figure5(opt)
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(start).Seconds()
	fig5 := paperConfigs(seed)[len(paperRows)]
	if len(settings) != len(fig5) {
		return nil, fmt.Errorf("Figure5 plots %d settings, the workload expects %d", len(settings), len(fig5))
	}
	for i, s := range settings {
		if s.Spec != fig5[i].cfg.Strategy {
			return nil, fmt.Errorf("Figure5 setting %d is %s, the workload expects %s", i, s.Spec, fig5[i].cfg.Strategy)
		}
		p.outs = append(p.outs, configOutcome{
			label: fig5[i].label(), app: experiment.GossipLearning.Name(),
			digest: seriesDigest(s.Measured), mpnr: math.NaN(),
		})
	}
	for _, a := range apps {
		runs := a.lightRuns()
		for k, v := range configLatencies(runs) {
			p.latency[k] = v
		}
		setup, err := setupTotal(runs)
		if err != nil {
			return nil, err
		}
		p.setup23 += setup
	}
	return p, nil
}

func runPaperfigs(opts runOptions) (*report, error) {
	const workload = "paperfigs"
	wseed := uint64(paperSeed)
	rep := newReport()
	book, err := loadDigests()
	if err != nil && !opts.record {
		return nil, err
	}
	begin := time.Now()
	var passes []*paperPass
	for {
		passStart := time.Now()
		p, err := paperfigsPass(wseed)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: paperfigs pass %d: %.2f s, set-up %.3f s, median configuration %.1f ms\n",
			len(passes), p.wall, p.setup23, median(medianPerKey([]map[string]float64{p.latency})))
		if opts.record {
			return rep, recordDigests(workload, wseed, p.outs)
		}
		rep.attempted += len(p.outs)
		rep.failed += checkOutcomes(rep, workload, wseed, p.outs, book)
		freeMemory()
		if opts.traced || time.Since(begin)+time.Since(passStart) > opts.seconds {
			break
		}
	}
	if opts.traced {
		return tracePaperfigs(rep, wseed, passes[0])
	}
	var walls, setups, evRates, msgRates, cpuPerMsg []float64
	var latencies []map[string]float64
	for _, p := range passes {
		events, msgs := p.totals()
		exec := p.wall23 - p.setup23/paperWorkers
		walls = append(walls, p.wall)
		setups = append(setups, p.setup23)
		evRates = append(evRates, events/exec)
		msgRates = append(msgRates, msgs/paperN/exec)
		cpuPerMsg = append(cpuPerMsg, float64(p.cpu23.Microseconds())/msgs)
		latencies = append(latencies, p.latency)
	}
	latency := medianPerKey(latencies)
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.set("wall_s", median(walls))
	rep.set("setup_s", median(setups))
	rep.set("events_per_s", median(evRates))
	rep.set("peak_rss_mb", rss)
	rep.set("msgs_per_node_s", median(msgRates))
	rep.set("cpu_us_per_msg", median(cpuPerMsg))
	rep.set("conv_p50_ms", quantile(latency, 0.5))
	rep.set("conv_p90_ms", quantile(latency, 0.9))
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d configurations timed\n", len(passes), len(latency))
	return rep, nil
}

// tracePaperfigs runs every configuration again behind the tracing
// wrappers, row by row with the figures' worker count, checks that the
// outputs equal the untraced pass's, and reports the per-layer metrics.
func tracePaperfigs(rep *report, wseed uint64, untraced *paperPass) (*report, error) {
	want := map[string]string{}
	for _, o := range untraced.outs {
		want[o.label] = o.digest
	}
	var outs []configOutcome
	start := nanotime()
	for _, row := range paperConfigs(wseed) {
		res, err := experiment.Collect(context.Background(), paperWorkers, len(row), func(i int) (configOutcome, error) {
			return runTraced(row[i])
		})
		if err != nil {
			return nil, err
		}
		outs = append(outs, res...)
	}
	tracedWall := float64(nanotime()-start) / 1e9
	rep.attempted += len(outs)
	var busy int64
	slowest := outs[0]
	for _, o := range outs {
		ok := rep.check(want[o.label] == o.digest, "traced %s: output %s, untraced %s", o.label, o.digest, want[o.label])
		ok = rep.check(o.mpnr <= 1+msgBudgetSlack, "traced %s: %.4f messages per node per round exceeds 1+ε", o.label, o.mpnr) && ok
		if !ok {
			rep.failed++
		}
		busy += o.wallNs
		if o.wallNs > slowest.wallNs {
			slowest = o
		}
	}
	sums := sumLayers(outs)
	sums.setLayerMetrics(rep)
	var slowestCfg simConfig
	for _, row := range paperConfigs(wseed) {
		for _, c := range row {
			if c.label() == slowest.label {
				slowestCfg = c
			}
		}
	}
	cos, err := calendarOverSlab(rep, slowestCfg)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	rep.set("sim.calendar_over_slab", cos)
	rep.set("experiment.config_s_max", float64(slowest.wallNs)/1e9)
	rep.set("experiment.worker_busy_frac", float64(busy)/1e9/(paperWorkers*tracedWall))
	rep.set("bench.trace_overhead", tracedWall/untraced.wall)
	setFleetLayerZero(rep)
	var entries []configTrace
	for _, o := range sortedOutcomes(outs) {
		entries = append(entries, traceEntry(o))
	}
	path, err := writeTrace("paperfigs", wseed, map[string]any{
		"workload": "paperfigs", "workload_seed": wseed,
		"untraced_wall_s": untraced.wall, "traced_wall_s": tracedWall,
		"slowest_config": slowest.label, "calendar_over_slab": cos,
		"configs": entries,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced pass %.2f s (untraced %.2f s); slowest %s %.2f s, calendar/slab %.1fx; spans in %s\n",
		tracedWall, untraced.wall, slowest.label, float64(slowest.wallNs)/1e9, cos, path)
	return rep, nil
}
