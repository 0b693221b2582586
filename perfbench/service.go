package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/server"
	"gcsim/internal/telemetry"
)

// The service-jobs workload: an in-process gcsimd driven by a closed loop
// of clients, one fresh server (state dir, cold trace cache) per unit.

type serviceProgram struct {
	name  string
	scale int
}

// servicePrograms are the five programs at small scales, sized so that
// the median job takes about 0.6 s from submit to done with two clients
// sharing the server's one worker (recording a trace on first use takes
// longer).
var servicePrograms = []serviceProgram{
	{"tc", 300}, {"prover", 450}, {"lambda", 400}, {"nbody", 1}, {"match", 120},
}

var serviceCollectors = []string{"none", "cheney", "generational", "marksweep"}

const (
	serviceClients = 2  // closed-loop clients, one per core of the reference host
	serviceRepeats = 3  // each (program, collector) pair appears this often per unit
	warmupJobs     = 10 // jobs in the warm-up unit
)

// serviceConfigs is every configuration a job may ask for: four sizes,
// two block sizes, both write policies.
func serviceConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, pol := range []cache.WritePolicy{cache.WriteValidate, cache.FetchOnWrite} {
		for _, size := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
			for _, block := range []int{32, 64} {
				cfgs = append(cfgs, cache.Config{SizeBytes: size, BlockBytes: block, Policy: pol})
			}
		}
	}
	return cfgs
}

// jobList generates the jobs of a run's unit-th unit from the seed. The
// design is balanced so that every unit and every seed does the same
// amount of work: every (program, collector) pair appears serviceRepeats
// times, and each program gets every configuration count from 1 to 4
// equally often, so each program's trace is simulated against the same
// number of configurations. The seed and unit choose which collector gets
// which count, which configurations, and the submission order, so the
// units of a run meet different pairings of queued jobs.
func jobList(seed int64, unit int) []server.JobSpec {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(unit)))
	all := serviceConfigs()
	var specs []server.JobSpec
	for _, p := range servicePrograms {
		var cols []string
		var counts []int
		for rep := 0; rep < serviceRepeats; rep++ {
			cols = append(cols, serviceCollectors...)
		}
		for i := range cols {
			counts = append(counts, 1+i%4)
		}
		r.Shuffle(len(counts), func(i, j int) { counts[i], counts[j] = counts[j], counts[i] })
		for i, col := range cols {
			var cfgs []server.CacheConfig
			for _, k := range r.Perm(len(all))[:counts[i]] {
				cfgs = append(cfgs, server.ConfigFromCache(all[k]))
			}
			specs = append(specs, server.JobSpec{
				Workload: p.name, Scale: p.scale, GC: col, Configs: cfgs, Label: "perfbench",
			})
		}
	}
	r.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

func traceTriple(s server.JobSpec) string {
	return fmt.Sprintf("%s/s%d/%s", s.Workload, s.Scale, s.GC)
}

// serviceUnitOutput is what one service unit prints.
type serviceUnitOutput struct {
	WallSeconds float64   `json:"wall_s"` // first submit to last terminal state
	Latencies   []float64 `json:"latencies_s"`
	Jobs        int       `json:"jobs"`
	Submitted   int       `json:"submitted"` // accepted by POST /v1/jobs
	Failed      int       `json:"failed"`
	Shed        int       `json:"shed"`
	Retried     int       `json:"retried"`
	Recorded    uint64    `json:"recorded"` // traces recorded (TraceCache.Stats)
	Problems    []string  `json:"problems,omitempty"`
}

// runningService is an in-process gcsimd on a loopback port.
type runningService struct {
	srv   *server.Server
	hs    *http.Server
	tc    *core.TraceCache
	url   string
	state string
	done  chan struct{} // closed when Serve returns
}

// startService builds and starts a server the way cmd/gcsimd does: one
// span recorder shared with the engine, the trace cache under the state
// dir, server.New defaults otherwise.
func startService(ctx context.Context, parent string) (*runningService, error) {
	state, err := os.MkdirTemp(parent, "gcsimd-")
	if err != nil {
		return nil, err
	}
	spans := telemetry.NewSpanRecorder(0)
	core.SetSpans(spans)
	tc, err := core.NewTraceCache(filepath.Join(state, "trace-cache"))
	if err != nil {
		return nil, err
	}
	core.SetTraceCache(tc)
	srv, err := server.New(server.Config{StateDir: state, TraceCache: tc, Spans: spans})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start(ctx)
	rs := &runningService{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, tc: tc,
		url: "http://" + ln.Addr().String(), state: state, done: make(chan struct{}),
	}
	go func() {
		defer close(rs.done)
		_ = rs.hs.Serve(ln) // returns ErrServerClosed after stop
	}()
	return rs, nil
}

// stop drains the pool, closes HTTP, waits for Serve to return and
// removes the state dir.
func (rs *runningService) stop() {
	rs.srv.Drain()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.hs.Shutdown(sctx); err != nil {
		rs.hs.Close()
	}
	<-rs.done
	core.SetTraceCache(nil)
	core.SetSpans(nil)
	os.RemoveAll(rs.state)
}

// recordedFromMetrics scrapes gcsimd_trace_recorded_total.
func recordedFromMetrics(ctx context.Context, c *server.Client) (uint64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "gcsimd_trace_recorded_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return uint64(f), err
		}
	}
	return 0, fmt.Errorf("/metrics has no gcsimd_trace_recorded_total")
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	latency float64
	job     *server.Job
	err     error
}

// runJobs sends specs to the server at url from serviceClients closed-loop
// clients and returns one record per spec, in spec order. submit, when
// non-nil, receives each Client.Submit latency (traced runs time it apart
// from the rest of the job); otherwise each job goes through Client.Run.
func runJobs(ctx context.Context, url string, specs []server.JobSpec, shed, retried *atomic.Int64, submit func(i int, d time.Duration)) []jobRecord {
	recs := make([]jobRecord, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := server.NewClient(url)
			cl.MaxRetries = 8
			cl.OnRetry = func(_ int, status string, _ time.Duration) {
				retried.Add(1)
				if strings.HasPrefix(status, "429") {
					shed.Add(1)
				}
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				start := time.Now()
				var j *server.Job
				var err error
				if submit == nil {
					j, err = cl.Run(ctx, specs[i], nil)
				} else {
					j, err = runTimedSubmit(ctx, cl, specs[i], func(d time.Duration) { submit(i, d) })
				}
				recs[i] = jobRecord{latency: time.Since(start).Seconds(), job: j, err: err}
			}
		}()
	}
	wg.Wait()
	return recs
}

// runTimedSubmit is Client.Run with the Submit call timed on its own.
func runTimedSubmit(ctx context.Context, cl *server.Client, spec server.JobSpec, submitted func(time.Duration)) (*server.Job, error) {
	start := time.Now()
	j, err := cl.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	submitted(time.Since(start))
	if _, err := cl.Stream(ctx, j.ID, nil); err != nil {
		return nil, err
	}
	return cl.Job(ctx, j.ID)
}

// checkJob verifies a finished job against the expected results.
func checkJob(spec server.JobSpec, rec jobRecord, want map[string]string) error {
	if rec.err != nil {
		return rec.err
	}
	j := rec.job
	if j.State != server.StateDone {
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	if len(j.Results) != len(spec.Configs) {
		return fmt.Errorf("job %s: %d results for %d configs", j.ID, len(j.Results), len(spec.Configs))
	}
	outs := map[string]jobConfigOutput{}
	for _, r := range j.Results {
		outs[r.ConfigName] = jobOutput(r.Checksum, r.Insns, r.GCInsns, r.GCStats, r.CacheStats)
	}
	if err := checkJobOutputs(spec, outs, want); err != nil {
		return fmt.Errorf("job %s: %w", j.ID, err)
	}
	return nil
}

// checkJobOutputs verifies that outs holds one result for each
// configuration spec asked for and no other, keyed by configuration name,
// and that each matches its expected digest.
func checkJobOutputs(spec server.JobSpec, outs map[string]jobConfigOutput, want map[string]string) error {
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		return err
	}
	asked := map[string]bool{}
	for _, cfg := range cfgs {
		name := cfg.String()
		asked[name] = true
		o, ok := outs[name]
		if !ok {
			return fmt.Errorf("no result for config %s", name)
		}
		key := jobResultKey(spec.Workload, spec.Scale, spec.GC, name)
		if got, w := digestJSON(o), want[key]; got != w {
			return fmt.Errorf("%s: result digest %s, want %q", key, got, w)
		}
	}
	for name := range outs {
		if !asked[name] {
			return fmt.Errorf("a result for config %s, which the job did not ask for", name)
		}
	}
	return nil
}

// serviceSetupProbe starts a server, notes when it listens with its
// workers running, and stops it again.
func serviceSetupProbe(ctx context.Context, dir string) (*probeOutput, error) {
	rs, err := startService(ctx, dir)
	if err != nil {
		return nil, err
	}
	ready := time.Now().UnixNano()
	rs.stop()
	return &probeOutput{ReadyUnixNs: ready}, nil
}

// serviceUnit is one unit: start a fresh server, run the job list, check
// every result and the exactly-once recording, stop the server.
func serviceUnit(ctx context.Context, dir, root string, seed int64, index int) (*serviceUnitOutput, error) {
	rs, err := startService(ctx, dir)
	if err != nil {
		return nil, err
	}
	defer rs.stop()
	out := &serviceUnitOutput{}
	want, err := loadExpectedJobs(root)
	if err != nil {
		return nil, err
	}
	specs := jobList(seed, index)
	if index == 0 {
		specs = specs[:warmupJobs] // the warm-up unit
	}
	out.Jobs = len(specs)

	var shed, retried atomic.Int64
	jobsStart := time.Now()
	recs := runJobs(ctx, rs.url, specs, &shed, &retried, nil)
	out.WallSeconds = time.Since(jobsStart).Seconds()
	out.Shed, out.Retried = int(shed.Load()), int(retried.Load())

	distinct := map[string]bool{}
	for i, rec := range recs {
		distinct[traceTriple(specs[i])] = true
		out.Latencies = append(out.Latencies, rec.latency)
		if rec.job != nil {
			out.Submitted++
		}
		if err := checkJob(specs[i], rec, want); err != nil {
			out.Failed++
			out.Problems = append(out.Problems, err.Error())
		}
	}
	// Each distinct trace is recorded exactly once, by the cache's own
	// count and by the server's /metrics.
	out.Recorded = rs.tc.Stats().Recorded
	scraped, err := recordedFromMetrics(ctx, server.NewClient(rs.url))
	if err != nil {
		out.Problems = append(out.Problems, err.Error())
	}
	if out.Recorded != uint64(len(distinct)) || scraped != out.Recorded {
		out.Problems = append(out.Problems, fmt.Sprintf(
			"trace recording not exactly once: %d distinct traces, TraceCache recorded %d, /metrics says %d",
			len(distinct), out.Recorded, scraped))
	}
	return out, nil
}

func serviceJobs(ctx context.Context, o opts) (*outcome, error) {
	out := &outcome{}
	var walls, rss, lat []float64
	var jobs, submitted, shed, retried, recorded int
	unit := func(index int) (*serviceUnitOutput, *unitRun, error) {
		var u serviceUnitOutput
		run, err := runUnit(ctx, o, "service", o.work, index, &u)
		if err != nil {
			return nil, nil, err
		}
		out.attempted += u.Jobs
		out.failed += u.Failed
		for _, p := range u.Problems {
			out.problem("%s", p)
		}
		jobs += u.Jobs
		submitted += u.Submitted
		shed += u.Shed
		retried += u.Retried
		recorded += int(u.Recorded)
		return &u, run, nil
	}
	setup := &setupProbe{o: o, name: "service-setup"}
	if err := setup.batch(ctx); err != nil {
		return nil, err
	}
	if _, _, err := unit(0); err != nil {
		return nil, err
	}
	err := timedUnits(o, 2, func() error {
		u, run, err := unit(len(walls) + 1)
		if err != nil {
			return err
		}
		walls = append(walls, u.WallSeconds)
		rss = append(rss, run.maxRSS)
		lat = append(lat, u.Latencies...)
		if len(walls) == 1 {
			return setup.batch(ctx)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := setup.batch(ctx); err != nil {
		return nil, err
	}
	setupS, err := setup.seconds()
	if err != nil {
		return nil, err
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	fmt.Printf("service-jobs: %d jobs attempted, %d submitted, %d failed, %d shed (429), %d retried requests; %d traces recorded, each once; %d latencies pooled from %d timed units\n",
		jobs, submitted, out.failed, shed, retried, recorded, len(lat), len(walls))
	out.set("wall_s", "s", minOf(walls))
	out.set("setup_s", "s", setupS)
	out.set("peak_rss_mb", "MB", median(rss))
	out.set("job_p50_s", "s", p50)
	out.set("job_p90_s", "s", p90)
	return out, nil
}
