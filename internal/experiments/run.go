package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/place/global"
)

// RunOpts scales the computational budget of the experiment runners.
type RunOpts struct {
	// Quick shrinks iteration budgets for smoke runs and benchmarks; the
	// full budget reproduces the reported numbers.
	Quick bool
}

func (o RunOpts) globalOpts() global.Options {
	if o.Quick {
		return global.Options{MaxOuterIters: 12, InnerIters: 25}
	}
	return global.Options{MaxOuterIters: global.DefaultOuterIters, InnerIters: global.DefaultInnerIters}
}

// Case is one benchmark placed by both flows.
type Case struct {
	Cfg      gen.Config
	Bench    *gen.Benchmark
	Base     *core.Result
	SA       *core.Result
	BaseRep  metrics.Report
	SARep    metrics.Report
	BaseTime time.Duration
	SATime   time.Duration
}

// RunCase generates cfg and places it with the baseline and the
// structure-aware flow under identical budgets.
func RunCase(cfg gen.Config, opts RunOpts) (*Case, error) {
	b := gen.Generate(cfg)
	c := &Case{Cfg: cfg, Bench: b}

	sw := obs.StartStopwatch()
	base, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, core.Options{
		Mode:   core.Baseline,
		Global: opts.globalOpts(),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s baseline: %w", cfg.Name, err)
	}
	c.BaseTime = sw.Elapsed()
	c.Base = base
	c.BaseRep = metrics.Evaluate(b.Netlist, base.Placement, b.Core, metrics.Options{})

	sw = obs.StartStopwatch()
	sa, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, core.Options{
		Mode:   core.StructureAware,
		Global: opts.globalOpts(),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s structure-aware: %w", cfg.Name, err)
	}
	c.SATime = sw.Elapsed()
	c.SA = sa
	c.SARep = metrics.Evaluate(b.Netlist, sa.Placement, b.Core, metrics.Options{})
	return c, nil
}

// RunSuite runs RunCase over a whole config list.
func RunSuite(cfgs []gen.Config, opts RunOpts) ([]*Case, error) {
	cases := make([]*Case, 0, len(cfgs))
	for _, cfg := range cfgs {
		c, err := RunCase(cfg, opts)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// SuiteConfigs returns the evaluation suite, truncated in quick mode.
func SuiteConfigs(opts RunOpts) []gen.Config {
	cfgs := gen.Suite()
	if opts.Quick {
		return cfgs[:4]
	}
	return cfgs
}
