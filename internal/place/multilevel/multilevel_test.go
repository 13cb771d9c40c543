package multilevel_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/place/multilevel"
)

func vcycleBench(random int) *gen.Benchmark {
	return gen.Generate(gen.Config{
		Name: "vcycle", Seed: 11, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder, gen.RegBank},
		RandomCells: random,
	})
}

// mlOptions forces at least two levels on the small test design.
func mlOptions() multilevel.Options {
	return multilevel.Options{MinCells: 100}
}

// placeML runs the full pipeline with the V-cycle enabled.
func placeML(t *testing.T, random int, workers int) *core.Result {
	t.Helper()
	b := vcycleBench(random)
	opt := core.Options{Mode: core.StructureAware, Multilevel: true, MultilevelOpts: mlOptions()}
	opt.Global.Workers = workers
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestVCycleProducesLegalPlacement is the end-to-end smoke: the multilevel
// path must coarsen at least once and hand legalization a placement it can
// finish into a verified-legal result.
func TestVCycleProducesLegalPlacement(t *testing.T) {
	res := placeML(t, 400, 1)
	if res.Multilevel == nil {
		t.Fatal("multilevel result missing")
	}
	if res.Multilevel.Levels < 2 {
		t.Fatalf("V-cycle ran %d levels, want >= 2", res.Multilevel.Levels)
	}
	if res.Multilevel.ClusterRatio >= 1 || res.Multilevel.ClusterRatio <= 0 {
		t.Errorf("cluster ratio %.3f out of range", res.Multilevel.ClusterRatio)
	}
	if len(res.Multilevel.PerLevel) != res.Multilevel.Levels {
		t.Errorf("per-level stats: %d entries for %d levels",
			len(res.Multilevel.PerLevel), res.Multilevel.Levels)
	}
	if !res.LegalityChecked {
		t.Error("final placement was not legality-checked")
	}
	if res.HPWLFinal <= 0 || math.IsNaN(res.HPWLFinal) {
		t.Errorf("bad final HPWL %g", res.HPWLFinal)
	}
}

// TestVCycleQualityNearFlat compares the multilevel result against the flat
// flow on the same design: the V-cycle exists to be faster at scale, but on
// a small benchmark it must stay in the same quality regime.
func TestVCycleQualityNearFlat(t *testing.T) {
	b := vcycleBench(400)
	flat, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement,
		core.Options{Mode: core.StructureAware})
	if err != nil {
		t.Fatal(err)
	}
	ml := placeML(t, 400, 1)
	if ml.HPWLFinal > 1.25*flat.HPWLFinal {
		t.Errorf("multilevel HPWL %.0f vs flat %.0f (>25%% worse)",
			ml.HPWLFinal, flat.HPWLFinal)
	}
}

// TestVCycleDeterministic asserts the whole V-cycle is a pure function of
// its inputs, bit-identical run to run and at every worker count — the
// guarantee the flat engine already gives, preserved per level.
func TestVCycleDeterministic(t *testing.T) {
	ref := placeML(t, 300, 1)
	for _, workers := range []int{1, 2} {
		res := placeML(t, 300, workers)
		for i := range ref.Placement.X {
			if ref.Placement.X[i] != res.Placement.X[i] ||
				ref.Placement.Y[i] != res.Placement.Y[i] {
				t.Fatalf("workers=%d: cell %d moved: (%v,%v) vs (%v,%v)",
					workers, i,
					ref.Placement.X[i], ref.Placement.Y[i],
					res.Placement.X[i], res.Placement.Y[i])
			}
		}
	}
}

// TestVCycleTimeout asserts a blown deadline still yields a complete flat
// placement (every coordinate finite) and the timeout classification.
func TestVCycleTimeout(t *testing.T) {
	b := vcycleBench(400)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Let the context expire before placement begins.
	time.Sleep(5 * time.Millisecond)
	pl := b.Placement.Clone()
	_, err := multilevel.PlaceCtx(ctx, b.Netlist, pl, b.Core, multilevel.Options{MinCells: 100})
	if !errors.Is(err, pipeline.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	for i := range pl.X {
		if math.IsNaN(pl.X[i]) || math.IsNaN(pl.Y[i]) {
			t.Fatalf("cell %d has NaN coordinates after timeout", i)
		}
	}
}

// TestVCycleSingleLevelFallback asserts a design already below MinCells
// degenerates gracefully to the flat engine (one level, no coarsening).
func TestVCycleSingleLevelFallback(t *testing.T) {
	b := vcycleBench(50)
	pl := b.Placement.Clone()
	res, err := multilevel.PlaceCtx(context.Background(), b.Netlist, pl, b.Core, multilevel.Options{MinCells: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels != 1 {
		t.Fatalf("levels = %d, want 1", res.Levels)
	}
	if res.ClusterRatio != 1 {
		t.Errorf("cluster ratio = %g, want 1 for the flat fallback", res.ClusterRatio)
	}
	if res.Global.HPWL <= 0 {
		t.Errorf("flat fallback produced HPWL %g", res.Global.HPWL)
	}
}
