package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() with -child, which here is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// declared reads ../BENCHMARK.json and returns its workloads and its
// end-to-end and per-layer metrics as name → unit.
func declared(t *testing.T) (workloads []string, e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, w := range bj.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range bj.EndToEnd {
		if _, dup := e2e[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %q twice", m.Name)
		}
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		if _, dup := layer[m.Name]; dup {
			t.Errorf("BENCHMARK.json declares %q twice", m.Name)
		}
		layer[m.Name] = m.Unit
	}
	return workloads, e2e, layer
}

// TestDeclarationsMatchBenchmarkJSON pins the code's workload list and its
// per-layer metrics, names and units, to BENCHMARK.json.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	ws, _, layer := declared(t)
	if !reflect.DeepEqual(ws, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", ws, workloads)
	}
	got := map[string]string{}
	for _, d := range perLayer {
		got[d.name] = d.unit
	}
	if !reflect.DeepEqual(got, layer) {
		t.Errorf("per-layer metrics: code %v, BENCHMARK.json %v", got, layer)
	}
}

// TestMetricNames checks every name BENCHMARK.json declares against the
// benchmark format: letters, digits, '_', '.' and '-', starting with a
// letter or digit, at most 64 long, and each metric used once.
func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ws, e2e, layer := declared(t)
	names := ws
	for name := range e2e {
		if _, dup := layer[name]; dup {
			t.Errorf("metric %q declared end-to-end and per-layer", name)
		}
		names = append(names, name)
	}
	for name := range layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !valid.MatchString(name) {
			t.Errorf("name %q is not a valid benchmark name", name)
		}
	}
}

// TestPercentileRule checks that a percentile is reported only with at
// least ten samples beyond it, and the median on both parities.
func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: the helpers must sort
		}
		return xs
	}
	if v, ok := percentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, reportable", v, ok)
	}
	if _, ok := percentile(seq(99), 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be reportable")
	}
	if _, ok := percentile(seq(20), 90); ok {
		t.Error("p90 of 20 samples must not be reportable")
	}
	if p, v, ok := tailPercentile(seq(1000)); !ok || p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = p%v %v %v; want p99 990", p, v, ok)
	}
	if _, _, ok := tailPercentile(seq(50)); ok {
		t.Error("50 samples have no reportable tail percentile")
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
}

// canonical lists a design's nets by name with their endpoints and the
// endpoint cells' sizes and start positions, independent of listing order.
func canonical(d design) string {
	var nets []string
	for _, n := range d.nl.Nets {
		var ends []string
		for _, pid := range n.Pins {
			p := d.nl.Pins[pid]
			c := d.nl.Cells[p.Cell]
			ends = append(ends, fmt.Sprintf("%s/%s %v,%v %vx%v@%v,%v", c.Name, p.Name, p.DX, p.DY,
				c.W, c.H, d.pl.X[p.Cell], d.pl.Y[p.Cell]))
		}
		sort.Strings(ends)
		nets = append(nets, n.Name+" "+strings.Join(ends, " "))
	}
	sort.Strings(nets)
	return strings.Join(nets, "\n")
}

func cellOrder(d design) []string {
	var names []string
	for _, c := range d.nl.Cells {
		names = append(names, c.Name)
	}
	return names
}

// TestSeedDerivation checks that inputs are a function of the seed alone:
// one seed always gives the same input, another seed a different listing of
// the same design, and the serve job mix never depends on the seed.
func TestSeedDerivation(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(-2); seed < 20; seed++ {
		for stream := uint64(0); stream < 50; stream++ {
			s := deriveSeed(seed, stream)
			if s < 0 || seen[s] || s != deriveSeed(seed, stream) {
				t.Fatalf("deriveSeed(%d, %d) = %d: negative, repeated or unstable", seed, stream, s)
			}
			seen[s] = true
		}
	}

	b := gen.Generate(suiteConfigs(true)[0])
	d := design{nl: b.Netlist, chip: b.Core, pl: b.Placement}
	a, a2, other := permute(d, 3), permute(d, 3), permute(d, 4)
	if !reflect.DeepEqual(cellOrder(a), cellOrder(a2)) || !reflect.DeepEqual(a.pl, a2.pl) {
		t.Error("permute differs for one seed")
	}
	if reflect.DeepEqual(cellOrder(a), cellOrder(other)) {
		t.Error("permute ignores the seed")
	}
	if err := a.nl.Validate(); err != nil {
		t.Fatal(err)
	}
	if canonical(a) != canonical(d) || canonical(other) != canonical(d) {
		t.Error("permute changed the design, not just its order")
	}

	mix := func(seed int64) (string, []string) {
		jobs, err := serveJobs(seed, 24, true)
		if err != nil {
			t.Fatal(err)
		}
		var kinds, specs []string
		for _, j := range jobs {
			kinds = append(kinds, fmt.Sprintf("%s/%v/%s/%v", j.kind(), j.spec.Gen == nil, j.spec.Options.Mode, j.due))
			b, err := json.Marshal(j.spec)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, string(b))
		}
		return strings.Join(kinds, ","), specs
	}
	mixA, specsA := mix(3)
	mixA2, specsA2 := mix(3)
	mixB, specsB := mix(4)
	if !reflect.DeepEqual(specsA, specsA2) {
		t.Error("serveJobs differs for one seed")
	}
	if reflect.DeepEqual(specsA, specsB) {
		t.Error("serveJobs ignores the seed")
	}
	if mixA != mixA2 || mixA != mixB {
		t.Errorf("job mix or schedule depends on the seed:\n%s\n%s", mixA, mixB)
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, through
// the real parent/child path. Each run must pass its correctness checks and
// report exactly the metrics BENCHMARK.json declares for its mode, with the
// declared units: the drift test between code and declaration.
func TestSmoke(t *testing.T) {
	_, e2e, layer := declared(t)
	dir := t.TempDir()
	dpplaced := filepath.Join(dir, "dpplaced")
	if out, err := exec.Command("go", "build", "-o", dpplaced, "repro/cmd/dpplaced").CombinedOutput(); err != nil {
		t.Fatalf("build dpplaced: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want, trace := e2e, "0"
			if traced {
				want, trace = layer, "1"
			}
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				var stdout bytes.Buffer
				args := []string{"-workload", w, "-seed", "7", "-seconds", "0", "-trace", trace,
					"-tiny", "-out", filepath.Join(dir, "out"), "-dpplaced", dpplaced}
				if code := run(args, &stdout); code != 0 {
					t.Fatalf("exit %d\n%s", code, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("emitted metrics %v\nBENCHMARK.json declares %v", got, want)
				}
				if len(lines) != len(res.Metrics)+1 {
					t.Errorf("%d metric lines for %d metrics", len(lines)-1, len(res.Metrics))
				}
				if traced {
					if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w+"-7.jsonl")); err != nil {
						t.Errorf("no span trace: %v", err)
					}
				}
			})
		}
	}
}
