package bench

import (
	"gupster/internal/metrics"
	"gupster/internal/scenario"
)

// Experiment is one entry of the gupbench experiment list.
type Experiment struct {
	ID  string
	Run func(Options) (*metrics.Table, error)
}

// Experiments lists every experiment `gupbench eN` runs, in EXPERIMENTS.md
// order.
var Experiments = []Experiment{
	{"e1", RunE1}, {"e2", RunE2}, {"e3", RunE3}, {"e4", RunE4},
	{"e5", RunE5}, {"e6", RunE6}, {"e7", RunE7}, {"e8", RunE8},
	{"e9", RunE9}, {"e10", RunE10}, {"e11", RunE11}, {"e12", RunE12},
	{"e13", RunE13}, {"e14", RunE14}, {"e16", RunE16}, {"e17", RunE17},
	{"e18", RunE18}, {"e19", RunE19},
	{"fig5", func(Options) (*metrics.Table, error) { return RunFig5() }},
}

// RunE16 runs the committed e16_resolve scenario: batched referral and
// coalesced chaining against the serial baseline rig.
func RunE16(o Options) (*metrics.Table, error) { return runScenario("e16_resolve", o) }

// RunE17 runs the committed e17_trace scenario: resolve p95 with client
// tracing on vs off in interleaved waves.
func RunE17(o Options) (*metrics.Table, error) { return runScenario("e17_trace", o) }

// RunE19 runs the committed e19_overload scenario: goodput retention at
// 2x saturation with and without admission control.
func RunE19(o Options) (*metrics.Table, error) { return runScenario("e19_overload", o) }

// runScenario runs a committed scenario and renders its report. Any
// Iters override runs it in fast (smoke) mode; the assertions are
// judged by `gupbench scenario`, not here.
func runScenario(name string, o Options) (*metrics.Table, error) {
	sc, err := scenario.Load(name)
	if err != nil {
		return nil, err
	}
	rep, err := scenario.Run(sc, scenario.RunOptions{Fast: o.Iters > 0})
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}
