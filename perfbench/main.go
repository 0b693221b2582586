// Command perfbench is gcsim's benchmark: it times each way a result is
// made, end to end, and in a separate traced run splits the time across
// the layers (VM, trace encode, blob I/O, decode, cache simulate, core,
// report, server) by timing calls into each layer's public functions from
// outside. It edits none of the packages it measures.
//
// Usage (from the root of a checkout; run.py builds and runs this):
//
//	perfbench -workload replay-sweep|paper-quick|service-jobs -seed N \
//	          -seconds S -trace 0|1 -root . -work .bench_build/work
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it carry the run's
// environment (nproc, GOMAXPROCS, Go version, source digest, steal ticks
// and an ALU calibration loop timed before and after the run), which is
// printed, never gated.
//
// # Workloads
//
// replay-sweep — the reference sweep (tc, prover, lambda, nbody, match at
// default scale; cheney; {32k,64k,128k,256k}×{32,64}b; write-validate)
// replayed from an on-disk trace cache that set-up records. The timed
// part is castore read, traceio decode and cache simulate with no VM: the
// workload for engine and kernel work. Set-up exercises the write side
// (VM, encode, sha256, fsync) and ends with a one-configuration replay of
// every trace, which reads all of them once.
//
// paper-quick — the whole gcbench -quick suite (T1–X4 and P1 at quick
// scale), run live at the default parallelism: the "regenerate the paper"
// path. Mostly VM under every collector, the live ParallelBank, the
// AssocCache and internal/analysis; no traceio or castore. core memoises
// sweeps per ExpConfig inside a process, so every unit is a fresh process.
//
// service-jobs — an in-process gcsimd (server.New defaults: one worker),
// fresh state dir and cold trace cache, driven by two client goroutines in
// a closed loop through server.Client.Run. The job list comes from the
// seed: per-config sweeps over the five programs at small scales, the
// collectors none, cheney, generational and marksweep, 1–4 configurations
// per job and both write policies. It is the only workload that exercises
// internal/server and the per-config resilient path, and it records each
// trace on first use beside the reads of later jobs.
//
// Left out on purpose: a separate live sweep (its layers are covered by
// paper-quick and by the traced run's core.sweep_live_s), the 3-node
// cluster (three processes on two cores measure the scheduler), and the
// P1 paper tier (about 45 s and a 1.2 GB trace per program).
//
// # Units and estimators
//
// Every unit runs in a fresh child process, which reports its own peak
// resident set (VmHWM). The host's memory system has episodes that slow
// whole units for seconds at a time while the computation is
// deterministic, so wall_s takes the fastest: for replay-sweep and
// paper-quick, whose units repeat the same parts (five program sweeps,
// eighteen experiments), the fastest time of each part over the timed
// units, summed; for service-jobs, whose units carry different job lists,
// the fastest timed unit. Timed units run until -seconds have passed, at
// least two.
//
//   - replay-sweep: set-up runs once per run (it records ~420 MB of
//     traces); its one-config replay of every trace is the warm-up.
//   - paper-quick: no separate warm-up unit. Units share nothing but the
//     OS page cache, which the first batch of set-up probes (15 starts of
//     the same binary) has warmed, and taking each experiment's fastest
//     time drops a slow first unit.
//   - service-jobs: a ten-job warm-up unit, then timed units of 60 jobs.
//     Each unit gets its own seeded job list of the same balanced design,
//     so the same work meets different pairings of queued jobs.
//
// setup_s is the one set-up of a replay-sweep run. paper-quick and
// service-jobs set up in milliseconds (process start to the first
// experiment; process start to a listening server with running workers),
// so they time it in probe processes that stop there: three batches of 15
// spread over the run, the fastest probe of each batch, the median of the
// three. peak_rss_mb is the median over timed units.
//
// job_p50_s and job_p90_s are latency percentiles of the workload's
// jobs. For service-jobs a job is one submission from submit to terminal
// state, the latencies are pooled over the timed units, and p90 is
// reported only with at least ten samples beyond it (a run pools at
// least 120). The other workloads report them too, over the parts'
// fastest times that wall_s sums: a job is one program's sweep
// (replay-sweep, five) or one experiment (paper-quick, eighteen), too few
// for ten beyond p90, and the run prints how many lie beyond.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run or traced run hands back to main.
type outcome struct {
	attempted, failed int
	// problems lists every check that failed; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]metric
	// cpu is user+sys seconds of one unit of the workload (traced runs).
	cpu float64
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// opts carries the command line to the workloads.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	root     string // checkout root: source digest, expected outputs
	work     string // per-run scratch directory, removed at exit
	self     string // this binary, re-executed for units
}

var workloadNames = []string{"replay-sweep", "paper-quick", "service-jobs"}

func main() {
	unit := flag.String("unit", "", "internal: run one unit of a workload in this process and print its JSON")
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 20, "how long the timed units run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	root := flag.String("root", ".", "root of the checkout")
	work := flag.String("work", ".bench_build/work", "scratch directory inside the checkout")
	dir := flag.String("dir", "", "internal: the unit's data directory")
	index := flag.Int("index", 0, "internal: the unit's number within its run")
	writeExpected := flag.Bool("write-expected", false, "regenerate the expected outputs under perfbench/expected and exit")
	flag.Parse()

	if *unit != "" {
		if err := runUnitMain(*unit, *dir, *seed, *index, *root); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: unit %s: %v\n", *unit, err)
			os.Exit(1)
		}
		return
	}
	root0, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	if *writeExpected {
		if err := writeExpectedFiles(context.Background(), root0); err != nil {
			fatal(err)
		}
		return
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known {
		fatal(fmt.Errorf("unknown -workload %q (want one of %v)", *workload, workloadNames))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	runDir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fatal(err)
	}
	runDir, _ = filepath.Abs(runDir)
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, root: root0, work: runDir, self: self}

	env := startEnv(root0)
	var out *outcome
	if *trace == 1 {
		out, err = tracedRun(context.Background(), o)
	} else {
		out, err = endToEndRun(context.Background(), o)
	}
	os.RemoveAll(runDir)
	if err != nil {
		fatal(err)
	}
	env.finish(out, *trace == 1)

	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func endToEndRun(ctx context.Context, o opts) (*outcome, error) {
	switch o.workload {
	case "replay-sweep":
		return replaySweep(ctx, o)
	case "paper-quick":
		return paperQuick(ctx, o)
	default:
		return serviceJobs(ctx, o)
	}
}

// unitEnvelope is what a unit process prints: its output and the peak
// resident set of its own address space.
type unitEnvelope struct {
	PeakRSSKB int64           `json:"peak_rss_kb"`
	Out       json.RawMessage `json:"out"`
}

// runUnitMain is the child side of a unit: run it and print its JSON.
func runUnitMain(name, dir string, seed int64, index int, root string) error {
	ctx := context.Background()
	var v any
	var err error
	switch name {
	case "replay":
		v, err = replayUnit(ctx, dir)
	case "paper":
		v, err = paperUnit(ctx)
	case "paper-setup":
		v = paperSetupProbe()
	case "service":
		v, err = serviceUnit(ctx, dir, root, seed, index)
	case "service-setup":
		v, err = serviceSetupProbe(ctx, dir)
	default:
		err = fmt.Errorf("unknown unit")
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(v)
	if err != nil {
		return err
	}
	hwm, err := peakRSSKB()
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(unitEnvelope{PeakRSSKB: hwm, Out: out})
}

// setJobQuantiles reports job_p50_s and job_p90_s for a workload whose
// jobs are the parts of its units (a program's sweep, an experiment),
// from each part's fastest time. Those are too few to put ten samples
// beyond p90; the count is printed beside the value.
func setJobQuantiles(out *outcome, lat []float64, job string) {
	p50, _ := quantile(lat, 0.5)
	p90, beyond := quantile(lat, 0.9)
	fmt.Printf("jobs: %d %s latencies, each the fastest over the timed units; %d lie beyond p90\n", len(lat), job, beyond)
	out.set("job_p50_s", "s", p50)
	out.set("job_p90_s", "s", p90)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
