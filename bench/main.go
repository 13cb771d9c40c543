// Command bench is the repository's benchmark of record. It measures the
// placement flow end to end — set-up time, the latency a user waits for a
// result, placement quality and peak memory — on four workloads, and in a
// separate traced run breaks the latency down layer by layer.
//
// Usage, from the repository root (run.sh builds this command and the
// dpplaced daemon first):
//
//	bash bench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
//
// Every input is generated from -seed. Each workload runs in a child
// process, so its peak memory is measured alone. The command prints every
// metric as "workload metric value unit", then one JSON line with the keys
// correct, attempted, failed and metrics, and exits non-zero when a
// correctness check failed. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads lists every workload in the order -workload all runs them.
var workloads = []string{"suite", "large-flat", "large-ml-cong", "serve-open"}

// metricDecl declares one reported metric and its unit.
type metricDecl struct {
	name, unit string
}

// perLayer lists the metrics every traced run reports. A layer a workload
// does not exercise reads 0.
var perLayer = []metricDecl{
	{"gen.generate_s", "s"},
	{"bookshelf.write_s", "s"},
	{"bookshelf.read_s", "s"},
	{"datapath.extract_s", "s"},
	{"datapath.grouped_cells", "count"},
	{"global.init_s", "s"},
	{"global.solve_s", "s"},
	{"global.outer_iters", "count"},
	{"global.func_evals", "count"},
	{"global.s_per_eval", "s"},
	{"global.outer_s_p50", "s"},
	{"global.evals_full", "count"},
	{"global.evals_delta", "count"},
	{"global.dirty_net_ratio", "ratio"},
	{"global.parallel_speedup", "x"},
	{"multilevel.levels", "count"},
	{"multilevel.level_solve_s", "s"},
	{"multilevel.overhead_s", "s"},
	{"congestion.snapshots", "count"},
	{"congestion.inflated_cells", "count"},
	{"legal.legalize_s", "s"},
	{"legal.group_blocks", "count"},
	{"detail.improve_s", "s"},
	{"detail.columns_s", "s"},
	{"detail.moves", "count"},
	{"detail.column_swaps", "count"},
	{"metrics.evaluate_s", "s"},
	{"route.rudy_s", "s"},
	{"route.groute_s", "s"},
	{"route.steiner_s", "s"},
	{"route.overflow_edges", "count"},
	{"serve.submit_s_p50", "s"},
	{"serve.queue_wait_s_p50", "s"},
	{"serve.run_s_p50", "s"},
	{"serve.report_fetch_s_p50", "s"},
	{"serve.job_hi_p50_s", "s"},
	{"serve.lateness_max_s", "s"},
	{"serve.fsync_s_mean", "s"},
	{"serve.lease_wait_s_mean", "s"},
	{"serve.rejects", "count"},
	{"trace.overhead_frac", "fraction"},
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	out      string // build and scratch directory
	dpplaced string // daemon binary for serve-open
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome, the benchmark's JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childOutput is what a child process hands its parent: the result plus the
// samples behind each timing and the reasons for any failed check.
type childOutput struct {
	Result   *result              `json:"result"`
	Samples  map[string][]float64 `json:"samples"`
	Problems []string             `json:"problems"`
}

func newResult() *childOutput {
	return &childOutput{
		Result:  &result{Correct: true, Metrics: map[string]metric{}},
		Samples: map[string][]float64{},
	}
}

// attempt counts one operation; a non-nil err fails it and the run.
func (c *childOutput) attempt(what string, err error) {
	c.Result.Attempted++
	if err != nil {
		c.Result.Failed++
		c.fail("%s: %v", what, err)
	}
}

// fail records a failed correctness check.
func (c *childOutput) fail(format string, args ...any) {
	c.Result.Correct = false
	c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
}

// set reports a metric.
func (c *childOutput) set(name string, v float64, unit string) {
	c.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

// timing reports the median of samples, in seconds, and keeps the samples
// for the sample count and tail percentile of the printed line.
func (c *childOutput) timing(name string, samples []float64) {
	c.set(name, median(samples), "s")
	c.Samples[name] = samples
}

// value returns a reported metric's value (0 when unset).
func (c *childOutput) value(name string) float64 {
	return c.Result.Metrics[name].Value
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// childTimeout bounds one workload's child process, below the three minutes
// a run may take.
const childTimeout = 170 * time.Second

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloads, ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "how long each run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced composition and reports per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrink every input, for the smoke test")
	out := fs.String("out", ".bench_build", "directory for scratch files and traces")
	dpplaced := fs.String("dpplaced", ".bench_build/dpplaced", "dpplaced binary for serve-open")
	child := fs.Bool("child", false, "run one workload in this process (set by the parent)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		tiny: *tiny, out: *out, dpplaced: *dpplaced,
	}
	names := workloads
	if cfg.workload != "all" {
		names = []string{cfg.workload}
	}
	if !slices.Contains(workloads, names[0]) || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: bad arguments; see -h\n")
		return 2
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if *child {
		co, err := runWorkload(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(co); err != nil {
			return 1
		}
		return 0
	}

	code := 0
	for _, w := range names {
		c := cfg
		c.workload = w
		co, err := runChild(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		for _, p := range co.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w, p)
		}
		if err := printResult(stdout, w, co); err != nil {
			return 1
		}
		if !co.Result.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, cfg config) (*childOutput, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var co *childOutput
	var err error
	if cfg.workload == "serve-open" {
		co, err = runServe(ctx, cfg, tr)
	} else {
		co, err = runPlacement(ctx, cfg, tr)
	}
	if err != nil || tr == nil {
		return co, err
	}
	// A layer the workload did not exercise reads 0.
	for _, m := range perLayer {
		if _, ok := co.Result.Metrics[m.name]; !ok {
			co.set(m.name, 0, m.unit)
		}
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
	return co, tr.write(path)
}

// runChild re-executes this binary on one workload and reads the child's
// peak resident memory from its resource usage. The child runs in its own
// process group, so a timeout also stops the daemon it may have started.
func runChild(cfg config) (*childOutput, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A signal to this process stops the child's whole group too.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", cfg.workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-trace", traceArg,
		"-tiny="+fmt.Sprint(cfg.tiny),
		"-out", cfg.out,
		"-dpplaced", cfg.dpplaced)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	co := &childOutput{}
	if err := json.Unmarshal(buf.Bytes(), co); err != nil || co.Result == nil {
		return nil, errors.New("child printed no result")
	}
	if !cfg.trace && cfg.workload != "serve-open" {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child")
		}
		co.set("rss_mb", float64(ru.Maxrss)/1024, "MB")
	}
	return co, nil
}

// printResult writes one line per metric, sorted by name, then the JSON
// result line. Timings also state their sample count, and the highest tail
// percentile with at least ten samples beyond it.
func printResult(w io.Writer, workload string, co *childOutput) error {
	names := make([]string, 0, len(co.Result.Metrics))
	for name := range co.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := co.Result.Metrics[name]
		line := fmt.Sprintf("%s %s %.6g %s", workload, name, m.Value, m.Unit)
		if xs := co.Samples[name]; len(xs) > 0 {
			line += fmt.Sprintf(" (%d samples", len(xs))
			if p, v, ok := tailPercentile(xs); ok {
				line += fmt.Sprintf(", p%g %.6g", p, v)
			}
			line += ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return json.NewEncoder(w).Encode(co.Result)
}
