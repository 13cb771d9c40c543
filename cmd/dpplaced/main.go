// Command dpplaced is the placement-as-a-service daemon: it accepts job
// specs (generated benchmarks or inline Bookshelf bundles) over HTTP, runs
// them through the structure-aware placement pipeline under a shared worker
// budget, streams per-iteration solver telemetry over SSE, and journals
// every job state transition so a crash or restart never loses work — jobs
// interrupted mid-attempt are requeued and, placements being deterministic,
// re-execute to the identical result.
//
// Usage:
//
//	dpplaced [flags]
//
// Observability surface: GET /metrics serves fleet metrics in Prometheus
// text format (jobs by state, queue depth, latency histograms, journal fsync
// cost, worker-budget occupancy, solver health events); GET /healthz is the
// liveness probe (200 while the process serves); GET /readyz is the
// readiness probe, flipping to 503 the instant a drain begins so load
// balancers shift traffic before in-flight jobs finish.
//
// SIGINT or SIGTERM starts a graceful drain: admission stops (503), running
// jobs finish, the journal is flushed, and the daemon exits 0. A second
// signal — or the -drain-timeout deadline — forces running jobs to
// checkpoint their best iterate and exits 3; the next daemon instance picks
// them back up from the journal. The HTTP surface (probes and /metrics
// included) stays up until the drain settles.
//
// Numbers out of range exit 2 before the data directory is opened: -queue
// and -max-cells must be >= 1, -job-timeout, -heartbeat and -drain-timeout
// > 0, and -workers >= 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	obsmetrics "repro/internal/obs/metrics"
	"repro/internal/serve"
)

// Exit codes.
const (
	exitOK     = 0 // clean drain: every in-flight job finished
	exitError  = 1
	exitUsage  = 2
	exitForced = 3 // forced drain: jobs checkpointed and left for the next instance
)

func main() {
	os.Exit(run())
}

// daemonFlags holds every dpplaced flag value.
type daemonFlags struct {
	addr         *string
	data         *string
	workers      *int
	queue        *int
	maxCells     *int
	jobTimeout   *time.Duration
	retries      *int
	heartbeat    *time.Duration
	drainTimeout *time.Duration
	verbose      *bool
	quiet        *bool
}

// registerFlags declares the flag set.
func registerFlags(fs *flag.FlagSet) *daemonFlags {
	return &daemonFlags{
		addr:         fs.String("addr", "127.0.0.1:7333", "HTTP listen address"),
		data:         fs.String("data", "dpplaced-data", "data directory: job journal and per-job artifacts"),
		workers:      fs.Int("workers", 0, "shared worker budget across concurrent placements (0 = all cores)"),
		queue:        fs.Int("queue", 32, "admission control: max queued jobs before 429"),
		maxCells:     fs.Int("max-cells", 1_000_000, "admission control: max estimated cells per job before 429"),
		jobTimeout:   fs.Duration("job-timeout", 10*time.Minute, "default per-job wall-clock budget"),
		retries:      fs.Int("retries", 2, "max retries of retryable failures per job"),
		heartbeat:    fs.Duration("heartbeat", 10*time.Second, "SSE heartbeat interval"),
		drainTimeout: fs.Duration("drain-timeout", 2*time.Minute, "graceful-drain deadline before running jobs checkpoint"),
		verbose:      fs.Bool("v", false, "verbose (debug) logging"),
		quiet:        fs.Bool("quiet", false, "log warnings and errors only"),
	}
}

// checkRanges rejects numeric flag values outside their range, which the
// server would otherwise replace with its default or act on as given: a
// non-positive queue depth refuses every job, a non-positive heartbeat
// panics the SSE handlers and a non-positive job timeout lifts the deadline.
func checkRanges(f *daemonFlags) error {
	for _, c := range []struct {
		name   string
		v, min int
	}{{"queue", *f.queue, 1}, {"max-cells", *f.maxCells, 1}, {"workers", *f.workers, 0}} {
		if c.v < c.min {
			return fmt.Errorf("-%s %d out of range: must be >= %d", c.name, c.v, c.min)
		}
	}
	for _, c := range []struct {
		name string
		v    time.Duration
	}{{"job-timeout", *f.jobTimeout}, {"heartbeat", *f.heartbeat}, {"drain-timeout", *f.drainTimeout}} {
		if c.v <= 0 {
			return fmt.Errorf("-%s %v out of range: must be > 0", c.name, c.v)
		}
	}
	return nil
}

// run is main with deferred cleanup intact.
func run() int {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: dpplaced [flags]\n")
		flag.PrintDefaults()
		return exitUsage
	}
	if err := checkRanges(f); err != nil {
		fmt.Fprintf(os.Stderr, "dpplaced: %v\n", err)
		return exitUsage
	}

	rec := obs.New()
	level := obs.Info
	if *f.verbose {
		level = obs.Debug
	}
	if *f.quiet {
		level = obs.Warn
	}
	rec.SetLog(os.Stderr, level)
	rec.Collect()
	fatal := func(format string, args ...any) int {
		rec.Logf(obs.Error, "dpplaced", format, args...)
		return exitError
	}

	s, err := serve.New(serve.Config{
		Dir:            *f.data,
		Workers:        *f.workers,
		QueueDepth:     *f.queue,
		MaxCells:       *f.maxCells,
		DefaultTimeout: *f.jobTimeout,
		MaxRetries:     *f.retries,
		Heartbeat:      *f.heartbeat,
		Log:            rec,
		Metrics:        obsmetrics.NewRegistry(),
	})
	if err != nil {
		return fatal("%v", err)
	}

	// First signal: graceful drain. Second signal: force the checkpoint path
	// immediately. The handler goes in before the address file is written
	// and before the server answers /readyz, so a signal sent the moment the
	// daemon is reachable still drains it.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return fatal("listen: %v", err)
	}
	// The resolved address (meaningful with -addr :0) lands in the data dir
	// so harnesses can find the daemon without parsing logs.
	addrPath := filepath.Join(*f.data, "dpplaced.addr")
	if err := os.WriteFile(addrPath, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
		return fatal("write addr file: %v", err)
	}
	defer os.Remove(addrPath)

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	s.Start()
	rec.Logf(obs.Info, "dpplaced", "listening on http://%s (data %s, workers %d)",
		ln.Addr(), *f.data, s.Stats().WorkersTotal)

	select {
	case err := <-serveErr:
		return fatal("http server: %v", err)
	case <-sigCtx.Done():
	}
	stop() // restore default handling so a third signal kills us outright
	rec.Logf(obs.Info, "dpplaced", "signal received; draining (deadline %s, signal again to force)", *f.drainTimeout)

	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *f.drainTimeout)
	defer cancelDrain()
	forceCtx, stopForce := signal.NotifyContext(drainCtx, os.Interrupt, syscall.SIGTERM)
	defer stopForce()

	checkpointed, err := s.Drain(forceCtx)
	if err != nil {
		httpSrv.Close()
		return fatal("drain: %v", err)
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if checkpointed > 0 {
		rec.Logf(obs.Warn, "dpplaced", "forced drain: %d jobs checkpointed for the next instance", checkpointed)
		return exitForced
	}
	rec.Logf(obs.Info, "dpplaced", "clean drain")
	return exitOK
}
