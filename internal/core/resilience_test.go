package core_test

// Resilience suite: deterministic fault injection drives every recovery
// path of the pipeline — NaN gradients, exhausted deadlines, degenerate
// extracted groups and truncated input files — and asserts the documented
// degraded behavior instead of a crash or a silent wrong answer.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// fastOpts keeps the fault-injection runs quick while still exercising the
// full pipeline.
func fastOpts() core.Options {
	return core.Options{Mode: core.StructureAware, Global: globalFast()}
}

// TestNaNGradientRecovery poisons the solver gradient mid-run and expects
// the numerical-health guard to roll back, damp the step and still converge
// to a legal placement.
func TestNaNGradientRecovery(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteOptNaNGrad, After: 3, Count: 2,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, fastOpts())
	if err != nil {
		t.Fatalf("pipeline failed despite recovery guard: %v", err)
	}
	if faultinject.Fired(faultinject.SiteOptNaNGrad) == 0 {
		t.Fatal("fault never fired; test exercises nothing")
	}
	if res.GlobalResult.Diagnostics.Recoveries == 0 {
		t.Error("no solver recoveries recorded after NaN gradient injection")
	}
	if !res.LegalityChecked {
		t.Error("final placement was not verified legal")
	}
}

// TestGlobalDivergenceFallback poisons the solve at the start of every
// inner call so the structure-aware global placement diverges twice; the
// pipeline must dissolve the groups, record the degradation and finish via
// the baseline formulation.
func TestGlobalDivergenceFallback(t *testing.T) {
	// Count 2: each poisoned Minimize diverges immediately (no finite best
	// iterate exists yet), producing exactly the two strikes the engine
	// tolerates; the baseline rerun then proceeds uninjected.
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteOptNaNGrad, Count: 2,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, fastOpts())
	if err != nil {
		t.Fatalf("fallback rerun failed: %v", err)
	}
	found := false
	for _, d := range res.Degradations {
		if d.Stage == "global" {
			found = true
		}
	}
	if !found {
		t.Errorf("no global-stage degradation recorded; got %v", res.Degradations)
	}
	if res.GlobalResult.Diagnostics.Rollbacks != 0 {
		// GlobalResult holds the rerun's diagnostics; the rerun is clean.
		t.Errorf("rerun diagnostics not clean: %+v", res.GlobalResult.Diagnostics)
	}
	if !res.LegalityChecked {
		t.Error("fallback placement was not verified legal")
	}
}

// TestGlobalDivergenceFail is the same scenario under DegradeFail: the
// pipeline must abort with the diverged stage error instead of degrading.
func TestGlobalDivergenceFail(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteOptNaNGrad, Count: 2,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	opt := fastOpts()
	opt.OnDegrade = core.DegradeFail
	_, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, opt)
	if !errors.Is(err, core.ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

// TestDeadlineRealTimeout bounds the pipeline with a timeout far below its
// runtime and expects a partial result carrying the best iterate, not nil.
func TestDeadlineRealTimeout(t *testing.T) {
	b := pipelineBench(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := core.PlaceCtx(ctx, b.Netlist, b.Core, b.Placement, fastOpts())
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res == nil {
		t.Fatal("timeout returned nil result; best iterate lost")
	}
	if !res.Partial {
		t.Error("Partial not set on timeout result")
	}
	if res.Placement == nil {
		t.Error("timeout result carries no placement")
	}
}

// TestDeadlineInjection exhausts the deadline deterministically via the
// fault site rather than the wall clock, hitting mid-solve.
func TestDeadlineInjection(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteDeadline, After: 25,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, fastOpts())
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("injected deadline did not produce a partial result")
	}
}

// TestCancelledContext aborts before the pipeline starts; even then the
// caller gets a partial result object, not nil.
func TestCancelledContext(t *testing.T) {
	b := pipelineBench(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := core.PlaceCtx(ctx, b.Netlist, b.Core, b.Placement, fastOpts())
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("cancelled context did not produce a partial result")
	}
}

// TestDegenerateGroupsFallback forces every extracted group to be classified
// degenerate; the pipeline must place their cells as plain cells, record the
// degradations and still produce a legal placement.
func TestDegenerateGroupsFallback(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteDegenerateGroups,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	res, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, fastOpts())
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("no degradations recorded for injected degenerate groups")
	}
	for _, d := range res.Degradations {
		if d.Stage != "extract" {
			t.Errorf("unexpected degradation stage %q", d.Stage)
		}
		if d.Group < 0 {
			t.Errorf("degradation lost its group index: %+v", d)
		}
	}
	if !res.LegalityChecked {
		t.Error("degraded placement was not verified legal")
	}
	if res.ColumnSwaps != 0 {
		t.Error("column swaps ran with no surviving groups")
	}
}

// TestDegenerateGroupsFail is the same scenario under DegradeFail.
func TestDegenerateGroupsFail(t *testing.T) {
	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteDegenerateGroups,
	})
	defer faultinject.Disable()

	b := pipelineBench(t)
	opt := fastOpts()
	opt.OnDegrade = core.DegradeFail
	_, err := core.PlaceCtx(context.Background(), b.Netlist, b.Core, b.Placement, opt)
	if !errors.Is(err, core.ErrDegenerateGroups) {
		t.Fatalf("err = %v, want ErrDegenerateGroups", err)
	}
}

// TestTruncatedInput writes a valid benchmark to disk, then injects stream
// truncation into the reader; loading must fail with ErrMalformedInput and
// must not panic.
func TestTruncatedInput(t *testing.T) {
	b := pipelineBench(t)
	dir := t.TempDir()
	aux, err := bookshelf.WriteAux(dir, "trunc", &bookshelf.Design{
		Netlist: b.Netlist, Placement: b.Placement, Core: b.Core,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the untruncated benchmark loads.
	if _, err := bookshelf.ReadAux(aux); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}

	faultinject.Enable(7, faultinject.Spec{
		Site: faultinject.SiteBookshelfTruncate,
	})
	defer faultinject.Disable()
	_, err = bookshelf.ReadAux(aux)
	if !errors.Is(err, core.ErrMalformedInput) {
		t.Fatalf("err = %v, want ErrMalformedInput", err)
	}
	if faultinject.Fired(faultinject.SiteBookshelfTruncate) == 0 {
		t.Fatal("truncation never fired; test exercises nothing")
	}
}
