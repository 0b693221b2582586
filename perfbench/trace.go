package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"gcsim/internal/analysis"
	"gcsim/internal/cache"
	"gcsim/internal/castore"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/report"
	"gcsim/internal/scheme"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// The traced run. It gets per-layer numbers by timing calls into each
// layer's public functions from outside, one layer at a time. For each
// program of the replay-sweep (default scale, cheney) it records the
// trace, holds the recorded bytes and the decoded stream in memory once,
// and times every stream layer alone on them, then core's live and
// replayed sweeps. It then times the associative bank on X1's quick-scale
// streams, the quick suite experiment by experiment, the behaviour
// analyser, report rendering and a service-jobs unit. Sums are over the
// five programs unless a metric says otherwise. The end-to-end runs carry
// none of these timers.
//
// Programs are taken one at a time so that only one decoded stream
// (lambda's, the largest, is about 0.9 GB) is in memory at once.

// layerTotals accumulates the per-program layer timings and counts.
type layerTotals struct {
	vmRun, encode, decode, decodeSelf, ingest, read       float64
	fused, fusedSelf, parallel, assoc                     float64
	sweepLive, sweepReplay, replayCPU                     float64
	insns, refs, gcCollections, gcInsns, traceBytes, cfgR uint64
	misses                                                uint64
	sweeps                                                []*core.SweepResult
}

// counter is the counting-only tracer vm.run_s runs under.
type counter struct{ n uint64 }

func (c *counter) Ref(uint64, bool, bool)  { c.n++ }
func (c *counter) RefBatch(refs []mem.Ref) { c.n += uint64(len(refs)) }

// capture keeps a reference stream in memory, one chunk per batch or
// decoded frame, each with the instruction clock stamped at that chunk
// boundary.
type capture struct {
	slab   []mem.Ref
	ends   []int
	stamps []uint64
	clock  func() uint64
}

func (c *capture) Ref(addr uint64, write, collector bool) {
	c.RefBatch([]mem.Ref{mem.MakeRef(addr, write, collector)})
}

func (c *capture) RefBatch(refs []mem.Ref) {
	var stamp uint64 // zero before the clock is wired, as a recording writes
	if c.clock != nil {
		stamp = c.clock()
	}
	c.slab = append(c.slab, refs...)
	c.ends = append(c.ends, len(c.slab))
	c.stamps = append(c.stamps, stamp)
}

// ChunkBatch implements traceio.ChunkSink, keeping each decoded chunk
// with its recorded stamp.
func (c *capture) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	c.slab = append(c.slab, refs...)
	c.ends = append(c.ends, len(c.slab))
	c.stamps = append(c.stamps, insnsAt)
}

// each calls fn on every captured chunk in order.
func (c *capture) each(fn func(refs []mem.Ref, stamp uint64)) {
	start := 0
	for i, end := range c.ends {
		fn(c.slab[start:end], c.stamps[i])
		start = end
	}
}

// nopSink consumes decoded chunks and does nothing with them.
type nopSink struct{}

func (nopSink) ChunkBatch([]mem.Ref, uint64) {}

// x1Configs are experiment X1's set-associative caches (64b blocks,
// write-validate, 32k–1m, 1/2/4 ways).
func x1Configs() []cache.AssocConfig {
	var cfgs []cache.AssocConfig
	for _, size := range []int{32 << 10, 64 << 10, 256 << 10, 1 << 20} {
		for _, ways := range []int{1, 2, 4} {
			cfgs = append(cfgs, cache.AssocConfig{SizeBytes: size, BlockBytes: 64, Ways: ways, Policy: cache.WriteValidate})
		}
	}
	return cfgs
}

func seconds(start time.Time) float64 { return time.Since(start).Seconds() }

func tracedRun(ctx context.Context, o opts) (*outcome, error) {
	want, err := loadExpectedSweeps(o.root)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var t layerTotals
	tcDir := filepath.Join(o.work, "trace-cache")
	defer os.RemoveAll(tcDir)
	tc, err := core.NewTraceCache(tcDir)
	if err != nil {
		return nil, err
	}
	for _, w := range workloads.All() {
		if err := traceStream(ctx, o, tc, w, want[w.Name], &t, out); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	if st := tc.Stats(); st.Recorded != uint64(len(t.sweeps)) {
		out.problem("trace cache recorded %d traces for %d programs", st.Recorded, len(t.sweeps))
	}
	if err := traceAssoc(&t); err != nil {
		return nil, err
	}
	reportStreamLayers(&t, out)
	if o.workload == "replay-sweep" {
		out.cpu = t.replayCPU
	}

	renderSecs := 0.0
	for _, sw := range t.sweeps {
		start := time.Now()
		report.Render(io.Discard, report.Run{
			Name: sw.Run.Workload, Collector: sw.Run.Collector, GCStats: sw.Run.GCStats,
			Checksum: sw.Run.Checksum, Insns: sw.Run.Insns, GCInsns: sw.Run.GCInsns,
		}, sw.Bank.Caches, false)
		renderSecs += seconds(start)
	}

	paperCPU, err := traceExperiments(ctx, o, out)
	if err != nil {
		return nil, err
	}
	if o.workload == "paper-quick" {
		out.cpu = paperCPU
	}
	if err := traceBehaviour(ctx, out); err != nil {
		return nil, err
	}
	jobRender, serviceCPU, err := traceService(ctx, o, out)
	if err != nil {
		return nil, err
	}
	if o.workload == "service-jobs" {
		out.cpu = serviceCPU
	}
	out.set("report.render_s", "s", renderSecs+jobRender)
	return out, nil
}

// traceStream times the layers on one program's reference stream. It
// records the trace into tc (untimed, as replay-sweep's set-up does),
// decodes the recorded blob into memory, and times each layer alone on
// those bytes and chunks; then core's live and replayed sweeps.
func traceStream(ctx context.Context, o opts, tc *core.TraceCache, w *workloads.Workload, want sweepOutput, t *layerTotals, out *outcome) error {
	scale := w.DefaultScale
	cfgs := sweepConfigs()

	// vm: the interpreter under a counting-only tracer.
	cnt := &counter{}
	col := newCollector(replayCollector)
	m := vm.NewLoaded(cnt, col)
	start := time.Now()
	v, err := w.Run(m, scale)
	t.vmRun += seconds(start)
	if err != nil {
		return err
	}
	out.attempted++
	if !scheme.IsFixnum(v) || scheme.FixnumValue(v) != want.Checksum || m.Insns() != want.Insns || m.GCInsns() != want.GCInsns {
		out.failed++
		out.problem("%s: VM run checksum/insns differ from the expected sweep", w.Name)
	}
	t.insns += m.Insns()
	t.gcInsns += m.GCInsns()
	t.refs += cnt.n
	t.gcCollections += col.Stats().Collections

	// Record the trace (untimed) and fetch its blob: the one the store
	// did not hold before.
	blobs := tc.LocalBlobs()
	had := map[castore.ID]bool{}
	if err := blobs.List(ctx, func(id castore.ID) error { had[id] = true; return nil }); err != nil {
		return err
	}
	core.SetTraceCache(tc)
	_, err = core.RunSweep(ctx, w, scale, newCollector(replayCollector), cfgs[:1])
	core.SetTraceCache(nil)
	if err != nil {
		return err
	}
	var id castore.ID
	if err := blobs.List(ctx, func(b castore.ID) error {
		if !had[b] {
			id = b
		}
		return nil
	}); err != nil {
		return err
	}
	enc, err := blobs.Get(ctx, id)
	if err != nil {
		return fmt.Errorf("fetching the recorded trace: %w", err)
	}
	t.traceBytes += uint64(len(enc))

	// Decode it into memory once (untimed): the chunks the cache layers
	// run on, with the frame stamps the recording wrote.
	c := &capture{slab: make([]mem.Ref, 0, cnt.n)}
	if _, err := replayInto(ctx, enc, c, cnt.n); err != nil {
		return err
	}

	// traceio: encode the chunks into io.Discard; decode the recorded
	// bytes into a no-op sink.
	var stamp uint64
	bw, err := traceio.NewBatchWriter(io.Discard, traceio.WriterOpts{})
	if err != nil {
		return err
	}
	bw.SetClock(func() uint64 { return stamp })
	start = time.Now()
	c.each(func(refs []mem.Ref, s uint64) {
		stamp = s
		bw.RefBatch(refs)
	})
	err = bw.Close()
	t.encode += seconds(start)
	if err != nil {
		return err
	}
	if bw.Count() != cnt.n {
		return fmt.Errorf("encoded %d refs of %d", bw.Count(), cnt.n)
	}
	start = time.Now()
	sr, err := replayInto(ctx, enc, nopSink{}, cnt.n)
	t.decode += seconds(start)
	if err != nil {
		return err
	}
	t.decodeSelf += sr.DecodeSeconds()

	// castore: ingest (write, hash, fsync, rename) into a store of its
	// own, then read back.
	store, err := castore.NewDir(filepath.Join(o.work, "blobs"))
	if err != nil {
		return err
	}
	start = time.Now()
	bwr, err := store.Ingest(ctx)
	if err != nil {
		return err
	}
	if _, err := bwr.Write(enc); err != nil {
		bwr.Abort()
		return err
	}
	got, err := bwr.Commit()
	t.ingest += seconds(start)
	if err != nil {
		return err
	}
	if got != id {
		out.problem("%s: castore ingest gave address %s, the trace cache holds it as %s", w.Name, got, id)
	}
	start = time.Now()
	rc, err := store.Open(ctx, got)
	if err != nil {
		return err
	}
	nr, err := io.CopyBuffer(io.Discard, rc, make([]byte, 1<<20))
	rc.Close()
	t.read += seconds(start)
	if err != nil {
		return err
	}
	if nr != int64(len(enc)) {
		return fmt.Errorf("read %d trace bytes of %d", nr, len(enc))
	}
	if err := store.Delete(ctx, got); err != nil {
		return err
	}
	enc = nil

	// cache: the fused kernel and the parallel bank, each alone over the
	// in-memory chunks.
	fb := cache.NewFusedBank(cfgs)
	start = time.Now()
	c.each(fb.ChunkBatch)
	t.fused += seconds(start)
	t.fusedSelf += fb.SimulateSeconds()
	t.cfgR += cnt.n * uint64(len(cfgs))
	fused := want
	fused.Configs = map[string]cache.Stats{}
	for _, cc := range fb.Caches {
		fused.Configs[cc.Config().String()] = cc.S
		t.misses += cc.S.Misses() + cc.S.GCMisses()
	}
	out.attempted++
	if err := checkSweep(w.Name, fused, want); err != nil {
		out.failed++
		out.problem("fused bank over the recorded stream: %v", err)
	}

	pb := cache.NewParallelBankWorkers(cfgs, runtime.GOMAXPROCS(0))
	start = time.Now()
	c.each(func(refs []mem.Ref, _ uint64) { pb.RefBatch(refs) })
	pb.Drain()
	t.parallel += seconds(start)
	for i, cc := range pb.Caches {
		if cc.S != fb.Caches[i].S {
			out.problem("%s %v: parallel bank stats differ from the fused bank's", w.Name, cc.Config())
		}
	}
	c = nil
	runtime.GC()
	debug.FreeOSMemory()

	// core: the sweep live, then replayed through the primed cache.
	start = time.Now()
	sw, err := core.RunSweep(ctx, w, scale, newCollector(replayCollector), cfgs)
	t.sweepLive += seconds(start)
	if err != nil {
		return err
	}
	out.attempted++
	if err := checkSweep(w.Name, sweepOutputOf(scale, sw), want); err != nil {
		out.failed++
		out.problem("live sweep: %v", err)
	}
	core.SetTraceCache(tc)
	cpu0 := cpuSelf()
	start = time.Now()
	sw, err = core.RunSweep(ctx, w, scale, newCollector(replayCollector), cfgs)
	t.sweepReplay += seconds(start)
	t.replayCPU += cpuSelf() - cpu0
	core.SetTraceCache(nil)
	if err != nil {
		return err
	}
	out.attempted++
	if err := checkSweep(w.Name, sweepOutputOf(scale, sw), want); err != nil {
		out.failed++
		out.problem("replayed sweep: %v", err)
	}
	t.sweeps = append(t.sweeps, sw)
	return nil
}

// replayInto decodes a v2 trace held in memory into sink with core's
// decoder parallelism, checking the reference count.
func replayInto(ctx context.Context, enc []byte, sink traceio.ChunkSink, refs uint64) (*traceio.SharedReplayer, error) {
	sr, err := traceio.NewSharedReplayer(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	sr.SetDecoders(core.Parallelism())
	n, err := sr.Run(ctx, sink)
	if err != nil {
		return nil, err
	}
	if n != refs {
		return nil, fmt.Errorf("decoded %d refs, the VM issued %d", n, refs)
	}
	return sr, nil
}

// traceAssoc times the associative bank on the streams experiment X1
// feeds it: every program at quick scale without a collector.
func traceAssoc(t *layerTotals) error {
	for _, w := range workloads.All() {
		c := &capture{}
		m := vm.NewLoaded(c, newCollector("none"))
		c.clock = m.Insns
		if _, err := w.Run(m, w.SmallScale); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		ab := cache.NewAssocBank(x1Configs())
		start := time.Now()
		c.each(func(refs []mem.Ref, _ uint64) { ab.RefBatch(refs) })
		t.assoc += seconds(start)
	}
	return nil
}

// reportStreamLayers sets the stream-layer metrics and prints the
// replay-sweep reconciliation.
func reportStreamLayers(t *layerTotals, out *outcome) {
	out.set("vm.run_s", "s", t.vmRun)
	out.set("vm.insns", "count", float64(t.insns))
	out.set("vm.refs", "count", float64(t.refs))
	out.set("vm.insns_per_s", "1/s", float64(t.insns)/t.vmRun)
	out.set("gc.collections", "count", float64(t.gcCollections))
	out.set("gc.insns", "count", float64(t.gcInsns))
	out.set("traceio.encode_s", "s", t.encode)
	out.set("traceio.bytes_per_ref", "B", float64(t.traceBytes)/float64(t.refs))
	out.set("traceio.decode_s", "s", t.decode)
	out.set("traceio.decode_self_s", "s", t.decodeSelf)
	out.set("castore.ingest_s", "s", t.ingest)
	out.set("castore.bytes", "B", float64(t.traceBytes))
	out.set("castore.read_s", "s", t.read)
	out.set("cache.fused_s", "s", t.fused)
	out.set("cache.fused_self_s", "s", t.fusedSelf)
	out.set("cache.config_refs_per_s", "1/s", float64(t.cfgR)/t.fused)
	out.set("cache.parallel_s", "s", t.parallel)
	out.set("cache.assoc_s", "s", t.assoc)
	out.set("cache.misses", "count", float64(t.misses))
	out.set("core.sweep_live_s", "s", t.sweepLive)
	out.set("core.sweep_replay_s", "s", t.sweepReplay)
	out.set("core.replay_over_live", "ratio", t.sweepReplay/t.sweepLive)
	explained := t.read + t.decode + t.fused
	out.set("core.replay_self_s", "s", t.sweepReplay-explained)
	out.set("core.replay_explained_share", "ratio", explained/t.sweepReplay)
	fmt.Printf("vm: %d insns in %.3fs = %.4g insns/s\n", t.insns, t.vmRun, float64(t.insns)/t.vmRun)
	fmt.Printf("cache: %d refs x 8 configs in %.3fs = %.4g config-refs/s (fused, one core)\n", t.refs, t.fused, float64(t.cfgR)/t.fused)
	share := func(x float64) float64 { return 100 * x / t.sweepReplay }
	fmt.Printf("replay reconciliation: of core.sweep_replay_s %.3fs, castore.read_s %.3fs (%.1f%%) + traceio.decode_s %.3fs (%.1f%%) + cache.fused_s %.3fs (%.1f%%) explain %.1f%%, leaving %.3fs to core; decode runs on other cores beside simulate, so the parts can sum past 100%%\n",
		t.sweepReplay, t.read, share(t.read), t.decode, share(t.decode), t.fused, share(t.fused), share(explained), t.sweepReplay-explained)
	fmt.Printf("self-timer cross-check: SharedReplayer.DecodeSeconds %.3fs (summed over decoders) beside traceio.decode_s %.3fs; FusedBank.SimulateSeconds %.3fs beside cache.fused_s %.3fs\n",
		t.decodeSelf, t.decode, t.fusedSelf, t.fused)
	fmt.Printf("replay vs live: core.sweep_replay_s %.3fs / core.sweep_live_s %.3fs = %.3f\n",
		t.sweepReplay, t.sweepLive, t.sweepReplay/t.sweepLive)
}

// traceExperiments times each quick-suite experiment in suite order, in
// this one process (nothing before it ran an experiment, so core's
// per-ExpConfig memos start empty), and checks the suite's output. It
// returns the suite's CPU seconds.
func traceExperiments(ctx context.Context, o opts, out *outcome) (float64, error) {
	wantDigest, err := loadExpectedPaperDigest(o.root)
	if err != nil {
		return 0, err
	}
	cpu0 := cpuSelf()
	pu, err := paperUnit(ctx)
	if err != nil {
		return 0, err
	}
	cpu := cpuSelf() - cpu0
	out.attempted++
	if pu.Digest != wantDigest {
		out.failed++
		out.problem("quick suite output digest %s, want %s", pu.Digest, wantDigest)
	}
	for _, e := range pu.Experiments {
		out.set("core.exp."+e.ID+"_s", "s", e.Seconds)
	}
	return cpu, nil
}

// traceBehaviour times the Section 7 analyser at quick scale: core.Run
// with a Behaviour attached (and its summary), minus the same run under a
// counting-only tracer.
func traceBehaviour(ctx context.Context, out *outcome) error {
	var with, without float64
	for _, w := range workloads.All() {
		start := time.Now()
		if _, err := core.Run(ctx, core.RunSpec{Workload: w, Scale: w.SmallScale, Tracer: &counter{}}); err != nil {
			return err
		}
		without += seconds(start)
		b := analysis.New(64<<10, 64)
		start = time.Now()
		if _, err := core.Run(ctx, core.RunSpec{Workload: w, Scale: w.SmallScale, Behaviour: b}); err != nil {
			return err
		}
		b.Summarize()
		with += seconds(start)
	}
	out.set("analysis.behaviour_s", "s", with-without)
	return nil
}

// tracedJobs is how many of a unit's jobs the traced run sends: enough
// for the medians it reports.
const tracedJobs = 20

// traceService runs one service-jobs unit in this process with Submit
// timed apart, then the same specs through core.RunSweepPerConfig in the
// server's start order against a cold trace cache of their own. It
// returns the time spent rendering the jobs' reports and the unit's CPU
// seconds.
func traceService(ctx context.Context, o opts, out *outcome) (float64, float64, error) {
	want, err := loadExpectedJobs(o.root)
	if err != nil {
		return 0, 0, err
	}
	specs := jobList(o.seed, 1)[:tracedJobs]
	cpu0 := cpuSelf()
	rs, err := startService(ctx, o.work)
	if err != nil {
		return 0, 0, err
	}
	submits := make([]float64, len(specs))
	submitted := make([]time.Time, len(specs))
	var shed, retried atomic.Int64
	recs := runJobs(ctx, rs.url, specs, &shed, &retried, func(i int, d time.Duration) {
		submits[i] = d.Seconds()
		submitted[i] = time.Now()
	})
	recorded := rs.tc.Stats().Recorded
	rs.stop()
	cpu := cpuSelf() - cpu0

	var queue []float64
	failed := 0
	distinct := map[string]bool{}
	for i, rec := range recs {
		distinct[traceTriple(specs[i])] = true
		out.attempted++
		if err := checkJob(specs[i], rec, want); err != nil {
			failed++
			out.problem("%v", err)
			continue
		}
		queue = append(queue, rec.job.QueueSeconds)
	}
	out.failed += failed
	if recorded != uint64(len(distinct)) {
		out.problem("service recorded %d traces for %d distinct keys", recorded, len(distinct))
	}

	// The same specs through the engine directly, in the order the single
	// worker started them (its queue is FIFO: submission order).
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return submitted[order[a]].Before(submitted[order[b]]) })
	tc, err := core.NewTraceCache(filepath.Join(o.work, "perconfig-traces"))
	if err != nil {
		return 0, 0, err
	}
	perconfig := make([]float64, len(specs))
	var overhead []float64
	render := 0.0
	for _, i := range order {
		spec := specs[i]
		w, err := workloads.ByName(spec.Workload)
		if err != nil {
			return 0, 0, err
		}
		cfgs, err := spec.CacheConfigs()
		if err != nil {
			return 0, 0, err
		}
		ck, err := core.NewCheckpoint(filepath.Join(o.work, "perconfig-ck", fmt.Sprint(i)))
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		sweep, err := core.RunSweepPerConfig(ctx, w, spec.Scale, cfgs, core.PerConfigSweepOpts{
			MakeCollector: func() gc.Collector { return newCollector(spec.GC) },
			Checkpoint:    ck,
			Resume:        true,
			TraceCache:    tc,
		})
		perconfig[i] = seconds(start)
		if err != nil {
			return 0, 0, err
		}
		outs := map[string]jobConfigOutput{}
		for _, r := range sweep.Results {
			outs[r.Config.String()] = jobOutput(r.Checksum, r.Insns, r.GCInsns, r.GCStats, r.CacheStats)
		}
		if err := checkJobOutputs(spec, outs, want); err != nil {
			out.problem("per-config sweep: %v", err)
		}
		if recs[i].job != nil {
			start = time.Now()
			if err := recs[i].job.RenderReport(io.Discard, false); err != nil {
				return 0, 0, err
			}
			render += seconds(start)
		}
		overhead = append(overhead, recs[i].latency-perconfig[i])
	}
	os.RemoveAll(filepath.Join(o.work, "perconfig-traces"))
	os.RemoveAll(filepath.Join(o.work, "perconfig-ck"))

	out.set("core.perconfig_s", "s", median(perconfig))
	out.set("server.submit_s", "s", median(submits))
	out.set("server.queue_s", "s", median(queue))
	out.set("server.overhead_s", "s", median(overhead))
	out.set("server.record_share", "ratio", float64(recorded)/float64(len(specs)))
	out.set("server.failed", "count", float64(failed))
	out.set("server.shed", "count", float64(shed.Load()))
	fmt.Printf("service: %d jobs, %d failed, %d shed, %d retried, %d traces recorded for %d distinct keys; per-config sweeps %.3fs in total\n",
		len(specs), failed, shed.Load(), retried.Load(), recorded, len(distinct), sum(perconfig))
	return render, cpu, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
