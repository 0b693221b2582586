// Command gctrace captures a workload's data-reference trace to a file,
// or replays a captured trace into a cache configuration — the paper's
// trace-driven simulation methodology as standalone artifacts.
//
// Captures are written in trace format v2 (framed chunks, optionally
// flate-compressed with -compress; see internal/traceio). Replay accepts
// v2 files, legacy v1 files, and gzip-compressed legacy captures (the
// pre-v2 gctrace wrote gzip-wrapped v1), and decodes v2 frames on a
// goroutine pool (-parallel). Both modes report reference counts and
// host throughput; -timeout and SIGINT/SIGTERM cancel cleanly.
//
// Replay accepts comma-separated -cache and -block lists; the cross
// product is simulated in one pass. Multi-configuration replays of v2
// traces take the fused path — each frame is decoded exactly once and
// fanned out to every configuration, simulated on -parallel workers — and
// report the per-stage decode/simulate/merge breakdown.
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
	"bufio"
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
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
	r, err := sniffGzip(f)
	if err != nil {
		return err
	}
	rp, err := traceio.NewReplayer(r)
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
		fmt.Printf("replayed %d references into a null consumer (trace format v%d)\n", n, rp.Version())
		fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
			refsPerSec(n, dur)/1e6, dur.Seconds())
		return nil
	}
	fmt.Printf("replayed %d references into %v (trace format v%d)\n", n, c.Config(), rp.Version())
	fmt.Printf("throughput: %.1fM refs/s (%.2fs host time)\n",
		refsPerSec(n, dur)/1e6, dur.Seconds())
	fmt.Printf("misses: %d penalized, %d allocation claims, miss ratio %.5f\n",
		c.S.Misses(), c.S.WriteAllocs, c.S.MissRatio())
	fmt.Printf("collector misses: %d\n", c.S.GCMisses())
	return nil
}

// replaySweep replays one trace into several cache configurations in a
// single pass through the fused bank, its lanes sharded over the same
// -parallel worker count as the frame decoders. v2 traces take the fused
// path: each frame is decoded exactly once and fanned out to every
// configuration. Legacy v1 traces (no frame stamps) are replayed
// reference by reference into the same bank.
func replaySweep(ctx context.Context, path string, cfgs []cache.Config, parallel int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := sniffGzip(f)
	if err != nil {
		return err
	}

	bank := cache.NewFusedBankWorkers(cfgs, parallel)
	defer bank.Drain()
	sr, serr := traceio.NewSharedReplayer(r)
	var (
		n       uint64
		version int
	)
	start := time.Now()
	if serr == nil {
		sr.SetDecoders(parallel)
		n, err = sr.Run(ctx, bank)
		version = 2
	} else {
		// The shared replayer consumed the header probing the version;
		// reopen and feed the bank reference by reference.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r, err = sniffGzip(f)
		if err != nil {
			return err
		}
		rp, rerr := traceio.NewReplayer(r)
		if rerr != nil {
			return rerr
		}
		rp.SetDecoders(parallel)
		n, err = rp.Run(ctx, bank)
		version = rp.Version()
	}
	bank.Drain()
	dur := time.Since(start)
	if err != nil {
		return err
	}

	pathName := "fused single pass"
	if serr != nil {
		pathName = "fused bank, per-reference replay"
	}
	fmt.Printf("replayed %d references into %d configurations (trace format v%d, %s)\n",
		n, len(cfgs), version, pathName)
	fmt.Printf("throughput: %.1fM refs/s delivered, %.1fM cache accesses/s (%.2fs host time)\n",
		refsPerSec(n, dur)/1e6, refsPerSec(n*uint64(len(cfgs)), dur)/1e6, dur.Seconds())
	if serr == nil {
		fmt.Printf("stages: decode=%.3fs simulate=%.3fs merge=%.3fs frames=%d workers=%d\n",
			sr.DecodeSeconds(), bank.SimulateSeconds(), bank.MergeSeconds(), sr.Frames(), bank.Workers())
	}
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

// sniffGzip transparently unwraps gzip-compressed captures (the pre-v2
// gctrace wrote gzip-wrapped v1 traces) by peeking at the two-byte magic.
func sniffGzip(f *os.File) (io.Reader, error) {
	br := bufio.NewReaderSize(f, 1<<20)
	head, err := br.Peek(2)
	if err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		return zr, nil
	}
	return br, nil
}

func refsPerSec(n uint64, dur time.Duration) float64 {
	return float64(n) / max(dur.Seconds(), 1e-9)
}
