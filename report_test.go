package dpplace_test

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	dpplace "repro"
	"repro/internal/faultinject"
	"repro/internal/place/congestion"
	"repro/internal/place/global"
)

// meaningBench is a 613-cell design, large enough that the V-cycle builds
// more than one level.
func meaningBench() *dpplace.Benchmark {
	return dpplace.Generate(dpplace.BenchConfig{
		Name: "meanings", Seed: 5, Bits: 8,
		Units:       []dpplace.UnitKind{dpplace.Adder, dpplace.RegBank},
		RandomCells: 450, Pads: 12,
	})
}

// collectRun places bench with a collecting recorder and returns the
// result with the recorder's counters.
func collectRun(t *testing.T, bench *dpplace.Benchmark, opt dpplace.Options) (*dpplace.Result, *dpplace.Recorder) {
	t.Helper()
	rec := dpplace.NewRecorder()
	rec.Collect()
	res, err := dpplace.PlaceCtx(dpplace.WithRecorder(context.Background(), rec),
		bench.Netlist, bench.Core, bench.Placement, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestCounterMeanings pins what the recorder's global-solve counters mean:
// each sums every solve of the run and equals the run's global.Result field,
// which the V-cycle also sums over levels; under the V-cycle
// global/outer_iters is also the sum of the per-level counts. Full and delta
// evaluations split global/func_evals. Every counter is the same at every
// worker count.
func TestCounterMeanings(t *testing.T) {
	bench := meaningBench()
	for _, ml := range []bool{false, true} {
		name := "flat"
		if ml {
			name = "vcycle"
		}
		var first map[string]int64
		for _, workers := range []int{1, 2, 4} {
			opt := dpplace.Options{Mode: dpplace.StructureAware, Multilevel: ml,
				Global: global.Options{Workers: workers}}
			if ml {
				opt.Global.Congestion = congestion.Options{Enable: true}
			}
			res, rec := collectRun(t, bench, opt)
			c := rec.Counters()
			g := res.GlobalResult
			check := func(key string, want int64) {
				t.Helper()
				if c[key] != want {
					t.Errorf("%s workers=%d: %s = %d, want %d", name, workers, key, c[key], want)
				}
			}
			check("global/outer_iters", int64(g.OuterIters))
			check("global/func_evals", int64(g.FuncEvals))
			if ml {
				if res.Multilevel == nil || res.Multilevel.Levels < 2 {
					t.Fatalf("vcycle: %+v, want at least two levels", res.Multilevel)
				}
				var sum int64
				for _, lv := range res.Multilevel.PerLevel {
					n := c[fmt.Sprintf("multilevel/level%d/outer_iters", lv.Level)]
					if n != int64(lv.OuterIters) {
						t.Errorf("vcycle: level %d outer_iters counter %d, result %d", lv.Level, n, lv.OuterIters)
					}
					sum += n
				}
				check("global/outer_iters", sum)
			}
			check("global/evals_full", g.FullEvals)
			check("global/evals_delta", g.DeltaEvals)
			check("global/func_evals", c["global/evals_full"]+c["global/evals_delta"])
			if first == nil {
				first = c
			} else if !maps.Equal(c, first) {
				t.Errorf("%s: counters at workers=%d differ from workers=1:\n%v\n%v", name, workers, c, first)
			}
		}
	}
}

// reportPaths lists the key paths of a JSON document, one per line and
// sorted, with values dropped and array indices folded into "[]".
func reportPaths(t *testing.T, doc []byte) []string {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				walk(path+"."+k, e)
			}
		case []any:
			for _, e := range x {
				walk(path+"[]", e)
			}
		default:
			set[path] = true
		}
	}
	walk("", v)
	return sortedKeys(set)
}

// sortedKeys returns the keys of set in order.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// reportSchema places three runs that between them fill every part of the
// run report and every counter — flat, the V-cycle with congestion
// feedback, and a run whose groups degrade and whose solve rolls back and
// resets its line search under fault injection — evaluates each with the
// recorder on, and returns the key paths of each report as "run path"
// lines.
func reportSchema(t *testing.T) string {
	t.Helper()
	bench := meaningBench()
	defer faultinject.Disable()
	var out strings.Builder
	for _, c := range []struct {
		name   string
		opt    dpplace.Options
		faults []faultinject.Spec
	}{
		{"flat", dpplace.Options{}, nil},
		{"vcycle+congestion", dpplace.Options{Multilevel: true,
			Global: global.Options{Congestion: congestion.Options{Enable: true}}}, nil},
		{"degraded", dpplace.Options{}, []faultinject.Spec{
			{Site: faultinject.SiteDegenerateGroups},
			{Site: faultinject.SiteOptNaNGrad, Count: 1},
			{Site: faultinject.SiteOptLineSearchStall, After: 50, Count: 3},
		}},
	} {
		c.opt.Mode = dpplace.StructureAware
		c.opt.Global.Workers = 2
		if c.faults != nil {
			faultinject.Enable(1, c.faults...)
		}
		res, rec := collectRun(t, bench, c.opt)
		faultinject.Disable()
		if d := res.GlobalResult.Diagnostics; c.faults != nil &&
			(len(res.Degradations) == 0 || d.Rollbacks == 0 || d.Recoveries == 0) {
			t.Fatalf("the fault-injected run degraded %v with diagnostics %+v, want both", res.Degradations, d)
		}
		m := dpplace.Evaluate(bench.Netlist, res.Placement, bench.Core,
			dpplace.ReportOptions{Obs: rec, Workers: 2})
		rep := res.RunReport(bench.Netlist.Name, c.opt.Mode, "ok", rec)
		rep.Metrics = &m
		doc, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range reportPaths(t, doc) {
			fmt.Fprintf(&out, "%s %s\n", c.name, p)
		}
	}
	return out.String()
}

// TestRunReportSchema pins the layout of the run report: the key paths,
// counter names included, of three runs that fill every part of it. A
// change that adds, renames or drops a report field or a counter updates
// testdata/run_report_schema.golden in the same commit.
func TestRunReportSchema(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// A counter is reported only once nonzero, so which names appear
		// follows the run's values, which are pinned on amd64 (see
		// TestPlacementFingerprint).
		t.Skipf("the run's values are pinned on amd64; on %s the compiler may fuse x*y+z", runtime.GOARCH)
	}
	golden := filepath.Join("testdata", "run_report_schema.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := reportSchema(t)
	if got == string(want) {
		return
	}
	lines := func(text string) map[string]bool {
		set := map[string]bool{}
		for _, l := range strings.Split(text, "\n") {
			set[l] = true
		}
		return set
	}
	g, w := lines(got), lines(string(want))
	var diff strings.Builder
	for _, k := range sortedKeys(g) {
		if !w[k] {
			fmt.Fprintf(&diff, "  + %s\n", k)
		}
	}
	for _, k := range sortedKeys(w) {
		if !g[k] {
			fmt.Fprintf(&diff, "  - %s\n", k)
		}
	}
	t.Errorf("run report paths differ from %s (+ new, - gone):\n%s\nfull listing:\n%s",
		golden, diff.String(), got)
}
