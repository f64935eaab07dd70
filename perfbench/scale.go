package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/szte-dcs/tokenaccount/experiment"
	"github.com/szte-dcs/tokenaccount/sim"
)

// The scale-1m workload: one 10^6-node push-gossip run, configured as
//
//	tokensim -app push-gossip -strategy randomized:5:10 -n 1000000 \
//	    -rounds 10 -shards 2 -network zones:8:0.5:3
//
// configures it and run through the same experiment.RunParallel call. Ten
// rounds take 12-15 s on a 2-vCPU host.
const (
	scaleN      = 1_000_000
	scaleRounds = 10
	scaleShards = 2
)

func scaleConfig(seed uint64) (simConfig, error) {
	network, err := experiment.ParseNetwork("zones:8:0.5:3")
	if err != nil {
		return simConfig{}, err
	}
	spec, err := experiment.ParseStrategySpec("randomized:5:10")
	if err != nil {
		return simConfig{}, err
	}
	return simConfig{cfg: experiment.Config{
		App:         experiment.PushGossip,
		Strategy:    spec,
		Scenario:    experiment.FailureFree,
		Runtime:     experiment.SimRuntimeWithOptions(sim.QueueCalendar, scaleShards),
		Network:     network,
		N:           scaleN,
		Rounds:      scaleRounds,
		Repetitions: 1,
		Seed:        seed,
	}}, nil
}

// scalePass is one untraced run.
type scalePass struct {
	out    configOutcome
	wall   float64
	setup  float64
	cpu    time.Duration
	rss    float64
	rounds map[string]float64
}

func scaleRun(c simConfig) (*scalePass, error) {
	app := &timedApp{inner: c.cfg.App}
	cfg := c.cfg
	cfg.App = app
	start, cpu0 := time.Now(), selfCPU()
	res, err := experiment.RunParallel(context.Background(), cfg, 0)
	if err != nil {
		return nil, err
	}
	p := &scalePass{wall: time.Since(start).Seconds(), cpu: selfCPU() - cpu0}
	if p.rss, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	p.out = outcomeOf(c, res, 0, nil)
	runs := app.lightRuns()
	p.rounds = roundTimes(runs)
	if p.setup, err = setupTotal(runs); err != nil {
		return nil, err
	}
	return p, nil
}

func runScale(opts runOptions) (*report, error) {
	const workload = "scale-1m"
	wseed := workloadSeed(opts.seed)
	c, err := scaleConfig(wseed)
	if err != nil {
		return nil, err
	}
	book, err := loadDigests()
	if err != nil && !opts.record {
		return nil, err
	}
	rep := newReport()
	begin := time.Now()
	var passes []*scalePass
	for {
		passStart := time.Now()
		p, err := scaleRun(c)
		if err != nil {
			return nil, err
		}
		freeMemory()
		passes = append(passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: scale-1m pass %d: %.2f s, peak RSS %.0f MiB\n", len(passes), p.wall, p.rss)
		if opts.record {
			return rep, recordDigests(workload, wseed, []configOutcome{p.out})
		}
		rep.attempted++
		rep.failed += checkOutcomes(rep, workload, wseed, []configOutcome{p.out}, book)
		if opts.traced || time.Since(begin)+time.Since(passStart) > opts.seconds {
			break
		}
	}
	if opts.traced {
		return traceScale(rep, c, passes[0])
	}
	var walls, setups, evRates, msgRates, cpuPerMsg, rss []float64
	var roundSets []map[string]float64
	for _, p := range passes {
		exec := p.wall - p.setup
		walls = append(walls, p.wall)
		setups = append(setups, p.setup)
		evRates = append(evRates, p.out.events/exec)
		msgRates = append(msgRates, p.out.msgs/scaleN/exec)
		cpuPerMsg = append(cpuPerMsg, float64(p.cpu.Microseconds())/p.out.msgs)
		rss = append(rss, p.rss)
		roundSets = append(roundSets, p.rounds)
	}
	rounds := medianPerKey(roundSets)
	rep.set("wall_s", median(walls))
	rep.set("setup_s", median(setups))
	rep.set("events_per_s", median(evRates))
	rep.set("peak_rss_mb", median(rss))
	rep.set("msgs_per_node_s", median(msgRates))
	rep.set("cpu_us_per_msg", median(cpuPerMsg))
	rep.set("conv_p50_ms", quantile(rounds, 0.5))
	rep.set("conv_p90_ms", quantile(rounds, 0.9))
	return rep, nil
}

// traceScale runs the configuration again behind the tracing wrappers and
// checks that its output equals the untraced run's.
func traceScale(rep *report, c simConfig, untraced *scalePass) (*report, error) {
	out, err := runTraced(c)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	ok := rep.check(out.digest == untraced.out.digest, "traced %s: output %s, untraced %s", out.label, out.digest, untraced.out.digest)
	ok = rep.check(out.mpnr <= 1+msgBudgetSlack, "traced %s: %.4f messages per node per round exceeds 1+ε", out.label, out.mpnr) && ok
	if !ok {
		rep.failed++
	}
	tracedWall := float64(out.wallNs) / 1e9
	sumLayers([]configOutcome{out}).setLayerMetrics(rep)
	rep.set("sim.calendar_over_slab", 0) // measured on paperfigs only
	rep.set("experiment.config_s_max", tracedWall)
	rep.set("experiment.worker_busy_frac", 1)
	rep.set("bench.trace_overhead", tracedWall/untraced.wall)
	setFleetLayerZero(rep)
	path, err := writeTrace("scale-1m", c.cfg.Seed, map[string]any{
		"workload": "scale-1m", "workload_seed": c.cfg.Seed,
		"untraced_wall_s": untraced.wall, "traced_wall_s": tracedWall,
		"configs": []configTrace{traceEntry(out)},
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced run %.2f s (untraced %.2f s); spans in %s\n", tracedWall, untraced.wall, path)
	return rep, nil
}
