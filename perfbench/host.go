package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is the run's environment: printed on every result, gated nowhere.
// The calibration loop and the steal ticks let a slow host episode show
// in the data instead of passing for a regression.
type env struct {
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Source       string  `json:"source"`
	CalibBefore  float64 `json:"calib_before_s"`
	CalibAfter   float64 `json:"calib_after_s"`
	MemCalib     float64 `json:"memcalib_s"`
	StealTicks   int64   `json:"steal_ticks"`
	stealAtStart int64
}

func startEnv(root string) *env {
	e := &env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Source:     sourceDigest(root),
	}
	e.stealAtStart = stealTicks()
	e.CalibBefore = calibrate()
	return e
}

// finish closes the environment record, prints it, and — on a traced run
// — adds the host metrics.
func (e *env) finish(out *outcome, traced bool) {
	e.CalibAfter = calibrate()
	e.MemCalib = memCalibrate()
	if e.stealAtStart >= 0 {
		e.StealTicks = stealTicks() - e.stealAtStart
	} else {
		e.StealTicks = -1
	}
	line, _ := json.Marshal(e)
	fmt.Printf("env %s\n", line)
	if traced {
		out.set("host.calib_s", "s", e.CalibBefore)
		out.set("host.calib_after_s", "s", e.CalibAfter)
		out.set("host.memcalib_s", "s", e.MemCalib)
		out.set("host.steal_ticks", "count", float64(e.StealTicks))
		out.set("host.cpu_s", "s", out.cpu)
	}
}

var calibSink uint64

// calibrate times a fixed ALU-only loop (xorshift, no memory traffic):
// on a quiet host it repeats within about 1%, so a slow reading flags a
// slow host rather than slow code.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(start).Seconds()
}

// memCalibrate times a dependent random walk over 64 MiB: every step
// misses the host's caches, so it slows when the memory system is
// contended, which the ALU loop does not see.
func memCalibrate() float64 {
	const n = 8 << 20 // uint64 slots
	next := make([]uint64, n)
	for i := range next {
		next[i] = uint64(i)
	}
	// Sattolo's algorithm: one cycle through every slot.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	start := time.Now()
	p := uint64(0)
	for i := 0; i < 2_000_000; i++ {
		p = next[p]
	}
	calibSink += p
	return time.Since(start).Seconds()
}

// stealTicks reads the host-wide steal counter from /proc/stat (-1 when
// unavailable).
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return -1
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// sourceDigest identifies the code under test. The checkout the benchmark
// runs in need not be a git repository, so it hashes the Go sources and
// module files instead of naming a commit.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// unitRun is one child-process unit as the parent saw it.
type unitRun struct {
	start  time.Time
	wall   float64 // spawn to exit, host seconds
	cpu    float64 // user+sys of the child
	maxRSS float64 // MB, the child's own peak resident set
}

// runUnit runs one unit of a workload in a fresh child process (this
// binary with -unit) and decodes its JSON into v. index numbers the units
// of a run for workloads whose inputs differ per unit.
func runUnit(ctx context.Context, o opts, name, dir string, index int, v any) (*unitRun, error) {
	cmd := exec.CommandContext(ctx, o.self, "-unit", name, "-dir", dir, "-index", strconv.Itoa(index),
		"-seed", strconv.FormatInt(o.seed, 10), "-root", o.root)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "TMPDIR="+o.work)
	u := &unitRun{start: time.Now()}
	err := cmd.Run()
	u.wall = time.Since(u.start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("unit %s: %w", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	var env unitEnvelope
	if err := json.Unmarshal(out.Bytes(), &env); err != nil {
		return nil, fmt.Errorf("unit %s: decoding its output: %w", name, err)
	}
	if err := json.Unmarshal(env.Out, v); err != nil {
		return nil, fmt.Errorf("unit %s: decoding its output: %w", name, err)
	}
	u.maxRSS = float64(env.PeakRSSKB) / 1024
	if !strings.HasSuffix(name, "-setup") {
		fmt.Fprintf(os.Stderr, "perfbench: unit %s: %.3fs wall, %.3fs cpu, %.1f MB peak RSS\n", name, u.wall, u.cpu, u.maxRSS)
	}
	return u, nil
}

// peakRSSKB returns this process's peak resident set (VmHWM) in KiB. It
// is read from /proc rather than getrusage: a child's ru_maxrss also
// counts the address space it was forked from, so it would report the
// parent's peak whenever that is the larger.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// cpuSelf returns this process's user+sys seconds so far.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// fastestParts keeps the fastest time of each part of a unit (a
// program's sweep, an experiment) over a run's timed units. Their sum is
// the run's wall_s for workloads whose units repeat the same parts: one
// unit's work with each part at its fastest, so a host episode of a few
// seconds slows only the parts it overlaps.
type fastestParts struct {
	names []string // in the order the unit runs them
	best  map[string]float64
}

func (f *fastestParts) add(name string, secs float64) {
	if f.best == nil {
		f.best = map[string]float64{}
	}
	if b, ok := f.best[name]; !ok {
		f.names = append(f.names, name)
		f.best[name] = secs
	} else {
		f.best[name] = math.Min(b, secs)
	}
}

// times returns each part's fastest time, in unit order.
func (f *fastestParts) times() []float64 {
	ts := make([]float64, len(f.names))
	for i, n := range f.names {
		ts[i] = f.best[n]
	}
	return ts
}

func (f *fastestParts) total() float64 {
	t := 0.0
	for _, n := range f.names {
		t += f.best[n]
	}
	return t
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks, and how many samples lie beyond it.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	v = s[n-1]
	if lo+1 < n {
		v = s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return v, n - 1 - lo
}

// percentile is quantile for a reported latency percentile: it refuses
// one with fewer than ten samples beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	v, beyond := quantile(xs, q)
	if beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least 10", q*100, len(xs), beyond)
	}
	return v, nil
}

// Set-up probes. paper-quick and service-jobs set up in a few
// milliseconds, mostly process start, where the host's slow episodes
// (seconds long) can double a sample. So a run starts setupProbes probe
// processes in each of setupBatches batches spread over the run (before
// the first unit, after the first timed unit, after the last), keeps the
// fastest probe of each batch, and reports the median of those.
const (
	setupProbes  = 15
	setupBatches = 3
)

// probeOutput is what a set-up probe prints: the host clock when its
// set-up ended. The parent subtracts its spawn time.
type probeOutput struct {
	ReadyUnixNs int64 `json:"ready_unix_ns"`
}

// setupProbe collects the batches of a run's set-up probes.
type setupProbe struct {
	o       opts
	name    string    // the probe unit
	fastest []float64 // one per batch
}

// batch starts setupProbes probes and keeps the fastest.
func (p *setupProbe) batch(ctx context.Context) error {
	best := math.Inf(1)
	for i := 0; i < setupProbes; i++ {
		var out probeOutput
		run, err := runUnit(ctx, p.o, p.name, p.o.work, 0, &out)
		if err != nil {
			return err
		}
		best = math.Min(best, float64(out.ReadyUnixNs-run.start.UnixNano())/1e9)
	}
	p.fastest = append(p.fastest, best)
	return nil
}

// seconds is the run's setup_s: the median of the batches' fastest.
func (p *setupProbe) seconds() (float64, error) {
	if len(p.fastest) != setupBatches {
		return 0, fmt.Errorf("%d set-up probe batches, want %d", len(p.fastest), setupBatches)
	}
	return median(p.fastest), nil
}

// timedUnits calls unit until at least min units have run and o.seconds
// have passed since the first one started.
func timedUnits(o opts, min int, unit func() error) error {
	start := time.Now()
	for n := 0; n < min || time.Since(start).Seconds() < o.seconds; n++ {
		if err := unit(); err != nil {
			return err
		}
	}
	return nil
}
