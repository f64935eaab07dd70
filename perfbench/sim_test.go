package main

import (
	"context"
	"testing"

	"github.com/szte-dcs/tokenaccount/experiment"
)

// The traced run, and the light wrapper of the untraced passes that times
// their set-up, must take the program's own code paths: their outputs equal
// the plain run's, bit for bit, on the sharded engine with a network model,
// on the sequential engine under churn with rejoins, and on an application
// without a RunStarter of its own.
func TestTracedRunsMatchUntraced(t *testing.T) {
	scale, err := scaleConfig(3)
	if err != nil {
		t.Fatal(err)
	}
	scale.cfg.N, scale.cfg.Rounds = 2000, 15
	churn := simConfig{fig: 3, cfg: experiment.Config{
		App: experiment.PushGossip, Strategy: experiment.Randomized(5, 10), N: 300, Rounds: 20,
		Scenario: experiment.SmartphoneTrace, Seed: 2, Repetitions: 1,
	}}
	learning := simConfig{fig: 2, cfg: experiment.Config{
		App: experiment.GossipLearning, Strategy: experiment.Generalized(10, 20), N: 300, Rounds: 40,
		Scenario: experiment.FailureFree, Seed: 4, Repetitions: 1,
	}}
	for _, c := range []simConfig{scale, churn, learning} {
		res, err := experiment.RunParallel(context.Background(), c.cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(c, res, 0, nil).digest

		light := &timedApp{inner: c.cfg.App}
		lc := c.cfg
		lc.App = light
		res, err = experiment.RunParallel(context.Background(), lc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := outcomeOf(c, res, 0, nil).digest; got != want {
			t.Errorf("%s: light-wrapped output %s, plain %s", c.label(), got, want)
		}
		if setup, err := setupTotal(light.lightRuns()); err != nil || setup <= 0 {
			t.Errorf("%s: set-up time %v, %v", c.label(), setup, err)
		}

		out, err := runTraced(c)
		if err != nil {
			t.Fatal(err)
		}
		if out.digest != want {
			t.Errorf("%s: traced output %s, untraced %s", c.label(), out.digest, want)
		}
		tot := out.obs.trace.totals()
		if tot.count[spanTick] == 0 || tot.count[spanDeliver] == 0 || tot.count[spanSample] == 0 {
			t.Errorf("%s: spans missing: %v", c.label(), tot.count)
		}
		if out.obs.trace.shardOf != nil {
			for s := 0; s < len(out.obs.trace.execs)-1; s++ {
				if out.obs.trace.execs[s].count[spanTick] == 0 {
					t.Errorf("%s: shard %d recorded no ticks", c.label(), s)
				}
			}
		}
	}
}
