// Command gctrace captures a workload's data-reference trace to a file,
// or replays a captured trace into a cache configuration — the paper's
// trace-driven simulation methodology as standalone artifacts.
//
// Traces are in format v2 (framed chunks, optionally flate-compressed
// with -compress; see internal/traceio), the only format replay reads;
// legacy v1 captures, plain or gzip-wrapped, are refused and must be
// captured again. Replay decodes frames on a goroutine pool (-parallel).
// Both modes report reference counts and host throughput; -timeout and
// SIGINT/SIGTERM cancel cleanly.
//
// Replay accepts comma-separated -cache and -block lists; the cross
// product is simulated in one pass. Multi-configuration replays take the
// fused path — each frame is decoded exactly once and fanned out to every
// configuration, simulated on -parallel workers — and report the
// per-stage decode/simulate/merge breakdown.
//
// Usage:
//
//	gctrace -capture trace.v2 -workload tc [-scale N] [-gc cheney] [-compress]
//	gctrace -replay trace.v2 -cache 64k -block 64 [-policy write-validate]
//	        [-parallel N] [-timeout 10m]
//	gctrace -replay trace.v2 -cache 32k,64k,128k,256k -block 32,64  # fused sweep
//	gctrace -replay trace.v2 -cache none   # null consumer: delivery rate only
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/cliutil"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

const tool = "gctrace"

func main() {
	capturePath := flag.String("capture", "", "write a format-v2 trace to this file")
	replayPath := flag.String("replay", "", "replay a trace from this file into a cache")
	workload := flag.String("workload", "tc", "workload to capture")
	scale := flag.Int("scale", 0, "workload scale (0 = default)")
	gcName := flag.String("gc", "none", "collector during capture")
	compress := flag.Bool("compress", false, "flate-compress trace frames during capture")
	cacheSize := flag.String("cache", "64k", "replay cache sizes, comma-separated (none = null consumer, measures delivery rate)")
	blockSize := flag.String("block", "64", "replay block sizes, comma-separated")
	policy := flag.String("policy", "write-validate", "replay write-miss policy: write-validate or fetch-on-write")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "replay frame-decoder goroutines and multi-config cache workers (1 = inline)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var err error
	switch {
	case *capturePath != "":
		err = capture(ctx, *capturePath, *workload, *scale, *gcName, *compress)
	case *replayPath != "":
		err = replay(ctx, *replayPath, *cacheSize, *blockSize, *policy, *parallel)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		cliutil.Fatal(tool, err)
	}
}

func capture(ctx context.Context, path, workloadName string, scale int, gcName string, compress bool) error {
	w, err := workloads.ByName(workloadName)
	if err != nil {
		return err
	}
	col, err := gc.New(gcName, gc.Options{})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw, err := traceio.NewBatchWriter(f, traceio.WriterOpts{Compress: compress})
	if err != nil {
		return err
	}
	start := time.Now()
	run, err := core.Run(ctx, core.RunSpec{
		Workload:  w,
		Scale:     scale,
		Collector: col,
		Tracer:    bw,
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) },
	})
	if err != nil {
		return err
	}
	dur := time.Since(start)
	if err := bw.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("captured %d references from %s (checksum %d) to %s\n",
		bw.Count(), run.Workload, run.Checksum, path)
	fmt.Printf("trace:      format v%d, %.1f MB, %.2f bytes/ref\n",
		traceio.FormatVersion, float64(info.Size())/1e6,
		float64(info.Size())/float64(max(bw.Count(), 1)))
	fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
		refsPerSec(bw.Count(), dur)/1e6, dur.Seconds())
	return nil
}

func replay(ctx context.Context, path, cacheSize, blockSize, policy string, parallel int) error {
	var cfgs []cache.Config
	if cacheSize != "none" {
		sizes, err := cliutil.ParseSizeList(cacheSize)
		if err != nil {
			return err
		}
		blocks, err := cliutil.ParseIntList(blockSize)
		if err != nil {
			return err
		}
		var pol cache.WritePolicy
		switch policy {
		case "write-validate":
			pol = cache.WriteValidate
		case "fetch-on-write":
			pol = cache.FetchOnWrite
		default:
			return fmt.Errorf("unknown policy %q", policy)
		}
		for _, size := range sizes {
			for _, block := range blocks {
				cfg := cache.Config{SizeBytes: size, BlockBytes: block, Policy: pol}
				if err := cfg.Validate(); err != nil {
					return err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	if len(cfgs) > 1 {
		return replaySweep(ctx, path, cfgs, parallel)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rp, err := traceio.NewReplayer(f)
	if err != nil {
		return err
	}
	rp.SetDecoders(parallel)
	var c *cache.Cache
	var sink mem.Tracer = &nullSink{}
	if len(cfgs) == 1 {
		c = cache.New(cfgs[0])
		sink = c
	}
	start := time.Now()
	n, err := rp.Run(ctx, sink)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	if c == nil {
		fmt.Printf("replayed %d references into a null consumer (trace format v%d)\n", n, traceio.FormatVersion)
		fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
			refsPerSec(n, dur)/1e6, dur.Seconds())
		return nil
	}
	fmt.Printf("replayed %d references into %v (trace format v%d)\n", n, c.Config(), traceio.FormatVersion)
	fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
		refsPerSec(n, dur)/1e6, dur.Seconds())
	fmt.Printf("misses: %d penalized, %d allocation claims, miss ratio %.5f\n",
		c.S.Misses(), c.S.WriteAllocs, c.S.MissRatio())
	fmt.Printf("collector misses: %d\n", c.S.GCMisses())
	return nil
}

// replaySweep replays one trace into several cache configurations in a
// single pass through the fused bank, its lanes sharded over the same
// -parallel worker count as the frame decoders: each frame is decoded
// exactly once and fanned out to every configuration.
func replaySweep(ctx context.Context, path string, cfgs []cache.Config, parallel int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := traceio.NewSharedReplayer(f)
	if err != nil {
		return err
	}
	sr.SetDecoders(parallel)

	bank := cache.NewFusedBankWorkers(cfgs, parallel)
	defer bank.Drain()
	start := time.Now()
	n, err := sr.Run(ctx, bank)
	bank.Drain()
	dur := time.Since(start)
	if err != nil {
		return err
	}

	fmt.Printf("replayed %d references into %d configurations (trace format v%d, fused single pass)\n",
		n, len(cfgs), traceio.FormatVersion)
	fmt.Printf("throughput: %.1fM refs/s delivered, %.1fM cache accesses/s (%.2fs host time)\n",
		refsPerSec(n, dur)/1e6, refsPerSec(n*uint64(len(cfgs)), dur)/1e6, dur.Seconds())
	fmt.Printf("stages: decode=%.3fs simulate=%.3fs merge=%.3fs frames=%d workers=%d\n",
		sr.DecodeSeconds(), bank.SimulateSeconds(), bank.MergeSeconds(), sr.Frames(), bank.Workers())
	for _, c := range bank.Caches {
		fmt.Printf("%-24v misses: %d penalized, %d allocation claims, miss ratio %.5f, collector misses %d\n",
			c.Config(), c.S.Misses(), c.S.WriteAllocs, c.S.MissRatio(), c.S.GCMisses())
	}
	return nil
}

// nullSink consumes a replayed reference stream without simulating
// anything: `-cache none` measures pure trace-delivery throughput.
type nullSink struct{}

func (*nullSink) Ref(addr uint64, write, collector bool) {}
func (*nullSink) RefBatch(refs []mem.Ref)                {}

func refsPerSec(n uint64, dur time.Duration) float64 {
	return float64(n) / max(dur.Seconds(), 1e-9)
}
