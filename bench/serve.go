package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/place/global"
	"repro/internal/serve"
)

// serveRate is the open-loop send rate in jobs per second: about half the
// closed-loop capacity of dpplaced -workers 2 on the job mix below (2.1 to
// 2.7 jobs/s on the machine the bounds were measured on), so the queue
// stays short and latency is mostly service time. At 1.5 jobs/s a slow
// stretch of that machine let the queue build until the median latency
// tripled; at 1.0 jobs/s a run holds too few jobs for a steady median.
const serveRate = 1.25

// minJobs is the fewest jobs a serve-open run sends: enough to hold one job
// of every kind the HPWL cross-check covers (jobs 0 to 3 of the schedule).
const minJobs = 4

// maxLateness bounds the generator's p90 lateness; a later generator voids
// the run, because its latencies no longer describe the scheduled load.
const maxLateness = 0.050

// pollEvery is the state-poll period of the second connection.
const pollEvery = 10 * time.Millisecond

// serveJob is one job of the open-loop schedule. Times are seconds since
// the load window opened; a negative time has not been observed yet.
type serveJob struct {
	spec  serve.JobSpec
	class int     // size class: index into the job sizes
	due   float64 // scheduled send time

	id                  string
	status              int // HTTP status of the submission
	sent, accepted      float64
	running, done       float64
	state, exit         string
	hpwl                float64
	partial             bool
	overflow, fetchSecs float64
}

// serveJobs builds the schedule: a fixed mix and order of generated
// designs with 200, 400 and 800 random cells, in which one job in four has
// priority 10, one in four uploads its design as an inline Bookshelf bundle,
// and one in five places in baseline mode. Each size class places one fixed
// design, so a class's median latency is one design's time rather than a
// jump between the times of different designs. The seed permutes the
// uploaded bundles, as it permutes the other workloads' designs.
func serveJobs(seed int64, n int, tiny bool) ([]*serveJob, error) {
	sizes := []int{200, 400, 800}
	if tiny {
		sizes = []int{40, 60, 80}
	}
	jobs := make([]*serveJob, n)
	for i := range jobs {
		g := &serve.GenSpec{
			Seed: int64(100 + i%3), Bits: 8,
			Units: []string{"adder", "regbank"}, RandomCells: sizes[i%3],
		}
		spec := serve.JobSpec{Name: fmt.Sprintf("job%03d", i), Gen: g}
		if i%4 == 0 {
			spec.Priority = 10
		}
		if i%5 == 2 {
			spec.Options.Mode = "baseline"
		}
		if i%4 == 1 {
			aux, err := auxBundle(g, deriveSeed(seed, uint64(i)))
			if err != nil {
				return nil, err
			}
			spec.Gen, spec.Aux = nil, aux
		}
		jobs[i] = &serveJob{spec: spec, class: i % 3, due: float64(i) / serveRate}
	}
	return jobs, nil
}

// auxBundle generates the design of g, permutes it by seed and serializes
// it as Bookshelf text.
func auxBundle(g *serve.GenSpec, seed int64) (*serve.AuxBundle, error) {
	b := gen.Generate(gen.Config{
		Seed: g.Seed, Bits: g.Bits, Units: []gen.UnitKind{gen.Adder, gen.RegBank},
		RandomCells: g.RandomCells,
	})
	d := permute(design{nl: b.Netlist, chip: b.Core, pl: b.Placement}, seed)
	var nodes, nets, pl, scl strings.Builder
	for _, err := range []error{
		bookshelf.WriteNodes(&nodes, d.nl),
		bookshelf.WriteNets(&nets, d.nl),
		bookshelf.WritePl(&pl, d.nl, d.pl),
		bookshelf.WriteScl(&scl, d.chip),
	} {
		if err != nil {
			return nil, err
		}
	}
	return &serve.AuxBundle{Nodes: nodes.String(), Nets: nets.String(), Pl: pl.String(), Scl: scl.String()}, nil
}

// kind names the job classes the HPWL cross-check covers.
func (j *serveJob) kind() string {
	switch {
	case j.spec.Priority > 0:
		return "priority"
	case j.spec.Aux != nil:
		return "aux"
	case j.spec.Options.Mode == "baseline":
		return "baseline"
	}
	return "plain"
}

// daemon is a running dpplaced subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	log  *os.File
}

// bootDaemon starts dpplaced on a fresh data directory and waits until
// /readyz answers 200, returning the boot time.
func bootDaemon(ctx context.Context, bin, dir string, client *http.Client) (*daemon, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	log, err := os.Create(filepath.Join(dir, "dpplaced.log"))
	if err != nil {
		return nil, 0, err
	}
	sw := obs.StartStopwatch()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir,
		"-workers", strconv.Itoa(workers), "-quiet")
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("start dpplaced: %w", err)
	}
	d := &daemon{cmd: cmd, log: log}
	for ctx.Err() == nil {
		if d.base == "" {
			if b, err := os.ReadFile(filepath.Join(dir, "dpplaced.addr")); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, sw.Seconds(), nil
				}
			}
		}
		// A boot takes 2–5 ms; polling every 2 ms made the boot time jump
		// between two values.
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, 0, fmt.Errorf("dpplaced not ready: %w", ctx.Err())
}

// stop drains the daemon with SIGTERM, killing it if the drain hangs.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-waited
		err = errors.New("dpplaced did not drain within 30s")
	}
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		// dpplaced answers /readyz before it traps SIGTERM, so a daemon
		// stopped right after booting can die of the signal instead of
		// draining; it had no jobs to drain.
		err = nil
	}
	if err != nil {
		return fmt.Errorf("dpplaced exit: %w", err)
	}
	return nil
}

// residentMB returns the daemon's resident memory now, in MB.
func (d *daemon) residentMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// oneConn returns a client that keeps at most one connection open.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// runServe runs the daemon workload: setupReps boots of dpplaced on fresh
// data directories, then, on the last one, a warm-up and an open-loop load.
// One connection submits each job at its scheduled time; the other polls
// GET /jobs every pollEvery for state changes, then fetches reports and
// /metrics. Latency runs from a job's scheduled send time to the poll that
// first sees it done.
func runServe(ctx context.Context, cfg config, tr *tracer) (*childOutput, error) {
	dir, err := os.MkdirTemp(cfg.out, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := newResult()
	n := max(minJobs, int(math.Round(serveRate*cfg.seconds)))
	jobs, err := serveJobs(cfg.seed, n, cfg.tiny)
	if err != nil {
		return nil, err
	}
	// The warm-up is the schedule's first job of each size class. Its jobs
	// are checked but not timed, so the timed ones meet a daemon whose heap
	// has grown and whose code has run, as in a daemon that has been serving.
	warm, err := serveJobs(cfg.seed, 3, cfg.tiny)
	if err != nil {
		return nil, err
	}
	for _, j := range warm {
		j.spec.Name = "warm-" + j.spec.Name
	}

	submitter, poller := oneConn(), oneConn()
	defer submitter.CloseIdleConnections()
	defer poller.CloseIdleConnections()
	bootCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var d *daemon
	boots := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		start := tr.now()
		dd, secs, err := bootDaemon(bootCtx, cfg.dpplaced, filepath.Join(dir, fmt.Sprint(rep)), poller)
		if err != nil {
			return nil, err
		}
		tr.add(fmt.Sprintf("setup-%d", rep), "serve.boot", 0, start, tr.now())
		boots = append(boots, secs)
		if rep < setupReps-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
		} else {
			d = dd
		}
	}

	var offset float64 // tracer time at which the load window opened
	var rss []float64
	_, loadErr := runLoad(ctx, d, warm, obs.StartStopwatch(), submitter, poller)
	if loadErr == nil {
		if tr != nil {
			offset = tr.now()
		}
		rss, loadErr = runLoad(ctx, d, jobs, obs.StartStopwatch(), submitter, poller)
	}
	for _, j := range jobs {
		if j.state != string(serve.StateDone) {
			continue
		}
		j.fetchSecs, j.overflow, err = fetchReport(poller, d.base, j.id)
		if err != nil {
			j.exit = err.Error()
		}
	}
	scraped, scrapeErr := scrapeMetrics(poller, d.base)
	stopErr := d.stop()
	if err := errors.Join(loadErr, scrapeErr, stopErr); err != nil {
		return nil, err
	}

	for _, j := range warm {
		res.attempt(j.spec.Name, jobErr(j))
	}
	var lat, hiLat, lateness, hpwls, ovfl []float64
	classLat := make([][]float64, 3)
	for _, j := range jobs {
		late := j.sent - j.due
		lateness = append(lateness, late)
		err := jobErr(j)
		res.attempt(j.spec.Name, err)
		if err != nil {
			continue
		}
		lat = append(lat, j.done-j.due)
		classLat[j.class] = append(classLat[j.class], j.done-j.due)
		if j.spec.Priority > 0 {
			hiLat = append(hiLat, j.done-j.due)
		}
		hpwls = append(hpwls, j.hpwl)
		ovfl = append(ovfl, j.overflow)
	}
	if p90, _ := percentile(lateness, 90); p90 > maxLateness {
		res.fail("generator p90 lateness %.3fs exceeds %.3fs: run void", p90, maxLateness)
	}
	crossCheck(ctx, res, jobs)

	if tr == nil {
		res.timing("setup_s", boots)
		res.set("latency_s", classLatency(classLat), "s")
		res.Samples["latency_s"] = lat
		res.set("hpwl", geomean(hpwls), "dbu")
		res.set("routed_overflow", mean(ovfl), "tracks")
		res.set("rss_mb", median(rss), "MB")
		res.Samples["rss_mb"] = rss
		return res, nil
	}
	var submit, queue, runS, fetch []float64
	for i, j := range jobs {
		if j.state != string(serve.StateDone) {
			continue
		}
		run := fmt.Sprintf("job-%03d", i)
		root := tr.add(run, "serve.job", 0, offset+j.due, offset+j.done)
		tr.add(run, "serve.submit", root, offset+j.sent, offset+j.accepted)
		tr.add(run, "serve.queue", root, offset+j.accepted, offset+j.running)
		tr.add(run, "serve.run", root, offset+j.running, offset+j.done)
		submit = append(submit, j.accepted-j.sent)
		queue = append(queue, j.running-j.accepted)
		runS = append(runS, j.done-j.running)
		fetch = append(fetch, j.fetchSecs)
	}
	res.set("serve.submit_s_p50", median(submit), "s")
	res.set("serve.queue_wait_s_p50", median(queue), "s")
	res.set("serve.run_s_p50", median(runS), "s")
	res.set("serve.report_fetch_s_p50", median(fetch), "s")
	res.set("serve.job_hi_p50_s", median(hiLat), "s")
	res.set("serve.lateness_max_s", sortedCopy(lateness)[len(lateness)-1], "s")
	res.set("serve.fsync_s_mean", ratio(scraped, "dpplaced_journal_fsync_seconds_sum", "dpplaced_journal_fsync_seconds_count"), "s")
	res.set("serve.lease_wait_s_mean", ratio(scraped, "dpplaced_par_lease_wait_seconds_sum", "dpplaced_par_lease_wait_seconds_count"), "s")
	res.set("serve.rejects", scraped["dpplaced_admission_rejects_total"], "count")
	return res, nil
}

// classLatency is the typical job latency: the mean over the job size
// classes of each class's median latency. A median over all jobs would jump
// between the classes' service times as the load shifts.
func classLatency(classLat [][]float64) float64 {
	t := 0.0
	for _, xs := range classLat {
		t += median(xs)
	}
	return t / float64(len(classLat))
}

// jobErr explains why a job counts as failed, or returns nil when it was
// accepted and came back done, with exit ok and not partial.
func jobErr(j *serveJob) error {
	if j.status == http.StatusAccepted && j.state == string(serve.StateDone) && j.exit == "ok" && !j.partial {
		return nil
	}
	return fmt.Errorf("status %d, state %q, exit %q, partial %v", j.status, j.state, j.exit, j.partial)
}

// runLoad sends the schedule and polls until every accepted job is
// terminal. The submitter and the poller each own one connection. After
// every poll it samples the daemon's resident memory, and it returns the
// samples.
func runLoad(ctx context.Context, d *daemon, jobs []*serveJob, window obs.Stopwatch, submitter, poller *http.Client) ([]float64, error) {
	base := d.base
	var rss []float64
	var mu sync.Mutex // guards every serveJob field below due
	byID := map[string]*serveJob{}
	for _, j := range jobs {
		j.sent, j.accepted, j.running, j.done = -1, -1, -1, -1
	}
	submitted := make(chan struct{})
	stop := make(chan struct{})
	defer func() {
		close(stop)
		<-submitted
	}()
	var submitErr error
	go func() {
		defer close(submitted)
		for _, j := range jobs {
			if wait := j.due - window.Seconds(); wait > 0 {
				select {
				case <-time.After(time.Duration(wait * float64(time.Second))):
				case <-stop:
					return
				}
			}
			body, err := json.Marshal(&j.spec)
			if err != nil {
				submitErr = err
				return
			}
			sent := window.Seconds()
			resp, err := submitter.Post(base+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				submitErr = fmt.Errorf("submit %s: %w", j.spec.Name, err)
				return
			}
			var v serve.View
			decErr := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			mu.Lock()
			j.sent, j.accepted, j.status = sent, window.Seconds(), resp.StatusCode
			if resp.StatusCode == http.StatusAccepted && decErr == nil {
				j.id = v.ID
				byID[v.ID] = j
			}
			mu.Unlock()
		}
	}()

	deadline := jobs[len(jobs)-1].due + 120
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pollEvery):
		}
		var views []serve.View
		if err := getJSON(poller, base+"/jobs", &views); err != nil {
			return nil, err
		}
		now := window.Seconds()
		mb, err := d.residentMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
		mu.Lock()
		terminal := 0
		for _, v := range views {
			j := byID[v.ID]
			if j == nil {
				continue
			}
			if v.State == serve.StateRunning && j.running < 0 {
				j.running = now
			}
			if v.State.Terminal() && j.done < 0 {
				j.done, j.state, j.exit, j.hpwl, j.partial = now, string(v.State), v.Exit, v.HPWL, v.Partial
				if j.running < 0 {
					j.running = now
				}
			}
			if j.done >= 0 {
				terminal++
			}
		}
		accepted := len(byID)
		mu.Unlock()
		select {
		case <-submitted:
			if submitErr != nil {
				return nil, submitErr
			}
			if terminal == accepted {
				return rss, nil
			}
		default:
		}
		if now > deadline {
			return nil, errors.New("jobs still pending 120s after the last send")
		}
	}
}

// getJSON decodes a GET response body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fetchReport reads a job's run report, returning the fetch time and the
// routed overflow of its evaluation.
func fetchReport(c *http.Client, base, id string) (float64, float64, error) {
	var rep struct {
		Metrics struct {
			Routed struct {
				Overflow float64
			}
		} `json:"metrics"`
	}
	sw := obs.StartStopwatch()
	err := getJSON(c, base+"/jobs/"+id+"/report", &rep)
	return sw.Seconds(), rep.Metrics.Routed.Overflow, err
}

// scrapeMetrics reads the daemon's /metrics exposition, summing the
// children of labeled series under the bare family name.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// ratio returns m[num]/m[den], or 0 when the denominator is 0.
func ratio(m map[string]float64, num, den string) float64 {
	if m[den] <= 0 {
		return 0
	}
	return m[num] / m[den]
}

// crossCheck re-places the first done job of every kind in process, with
// the options dpplaced uses, and requires the daemon's reported HPWL to
// match bit for bit.
func crossCheck(ctx context.Context, res *childOutput, jobs []*serveJob) {
	seen := map[string]bool{}
	for _, j := range jobs {
		k := j.kind()
		if seen[k] || j.state != string(serve.StateDone) {
			continue
		}
		seen[k] = true
		d, err := serve.BuildDesign(&j.spec)
		if err != nil {
			res.fail("%s: build design: %v", j.spec.Name, err)
			continue
		}
		opt := core.Options{
			Mode:   core.StructureAware,
			Global: global.Options{WLModel: "wa", MaxOuterIters: 24, InnerIters: 50, Workers: workers},
		}
		if j.spec.Options.Mode == "baseline" {
			opt.Mode = core.Baseline
		}
		r, err := core.PlaceCtx(ctx, d.Netlist, d.Core, d.Placement, opt)
		switch {
		case err != nil:
			res.fail("%s: in-process placement: %v", j.spec.Name, err)
		case math.Float64bits(r.HPWLFinal) != math.Float64bits(j.hpwl):
			res.fail("%s (%s): daemon HPWL %v, in-process %v", j.spec.Name, k, j.hpwl, r.HPWLFinal)
		}
	}
	for _, k := range []string{"plain", "priority", "aux", "baseline"} {
		if !seen[k] {
			res.fail("no done job of kind %s to cross-check", k)
		}
	}
}
