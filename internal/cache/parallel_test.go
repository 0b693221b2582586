package cache

import (
	"runtime"
	"testing"

	"gcsim/internal/mem"
)

// synthStream generates a deterministic reference stream with the shape
// the simulator actually sees: a linear allocation sweep through the
// dynamic area, stack-top churn, a busy static cell, and periodic
// collector-mode bursts.
func synthStream(n int) []mem.Ref {
	refs := make([]mem.Ref, 0, n)
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	frontier := mem.DynBase
	for len(refs) < n {
		switch next() % 8 {
		case 0, 1, 2: // allocation: write fresh dynamic words
			for i := 0; i < 4 && len(refs) < n; i++ {
				refs = append(refs, mem.MakeRef(frontier, true, false))
				frontier++
			}
		case 3, 4: // revisit recently allocated data
			if frontier == mem.DynBase {
				continue
			}
			back := next() % 4096
			addr := frontier - 1 - back%(frontier-mem.DynBase)
			refs = append(refs, mem.MakeRef(addr, next()%4 == 0, false))
		case 5: // stack churn
			refs = append(refs, mem.MakeRef(mem.StackBase+next()%256, next()%2 == 0, false))
		case 6: // busy static cell
			refs = append(refs, mem.MakeRef(mem.StaticBase+17, false, false))
		default: // collector-mode burst
			for i := 0; i < 3 && len(refs) < n; i++ {
				refs = append(refs, mem.MakeRef(mem.DynBase+next()%(1<<20), i == 0, true))
			}
		}
	}
	return refs
}

// benchConfigs is an 8-configuration sweep (the full size range at 64-byte
// blocks), the shape gcSweepConfigs feeds every Section 6 experiment.
func benchConfigs() []Config {
	var cfgs []Config
	for _, s := range Sizes {
		cfgs = append(cfgs, Config{SizeBytes: s, BlockBytes: 64, Policy: WriteValidate})
	}
	return cfgs
}

// feedChunks replays a stream through a BatchTracer in pipeline-sized
// chunks, as Memory does.
func feedChunks(t mem.BatchTracer, refs []mem.Ref) {
	for len(refs) > 0 {
		n := len(refs)
		if n > mem.ChunkRefs {
			n = mem.ChunkRefs
		}
		t.RefBatch(refs[:n])
		refs = refs[n:]
	}
}

func TestParallelBankMatchesSerialBank(t *testing.T) {
	stream := synthStream(300_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)

	par := NewFusedBankWorkers(cfgs, 3)
	feedChunks(par, stream)
	par.Drain()

	for i, sc := range serial.Caches {
		pc := par.Caches[i]
		if sc.S != pc.S {
			t.Errorf("config %v: serial stats %+v != parallel stats %+v",
				sc.Config(), sc.S, pc.S)
		}
	}
}

// TestParallelBankWorkerSharding pins the core-scaled scheduling: any
// worker-pool size must shard the configurations without changing a single
// counter, and the pool must never exceed the configuration count.
func TestParallelBankWorkerSharding(t *testing.T) {
	stream := synthStream(200_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)

	for _, n := range []int{1, 2, 3, len(cfgs), len(cfgs) + 5} {
		par := NewFusedBankWorkers(cfgs, n)
		if want := min(n, len(cfgs)); par.Workers() != want {
			t.Fatalf("workers=%d: pool has %d workers, want %d", n, par.Workers(), want)
		}
		feedChunks(par, stream)
		par.Drain()
		for i, sc := range serial.Caches {
			if pc := par.Caches[i]; sc.S != pc.S {
				t.Errorf("workers=%d config %v: serial %+v != parallel %+v",
					n, sc.Config(), sc.S, pc.S)
			}
		}
	}
}

func TestParallelBankPerRefTracer(t *testing.T) {
	stream := synthStream(10_000)
	cfgs := benchConfigs()

	serial := NewBank(cfgs)
	for _, r := range stream {
		serial.Ref(r.Addr(), r.Write(), r.Collector())
	}

	par := NewFusedBankWorkers(cfgs, 3)
	for _, r := range stream {
		par.Ref(r.Addr(), r.Write(), r.Collector())
	}
	par.Drain()

	for i, sc := range serial.Caches {
		if pc := par.Caches[i]; sc.S != pc.S {
			t.Errorf("config %v: serial %+v != parallel %+v", sc.Config(), sc.S, pc.S)
		}
	}
}

func TestParallelBankMissEventsMatchSerial(t *testing.T) {
	stream := synthStream(50_000)
	cfg := Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: WriteValidate}
	cfgs := []Config{cfg, {SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate}}

	serial := NewBank(cfgs)
	serialEvents := make([][]MissEvent, len(cfgs))
	for i, c := range serial.Caches {
		i := i
		c.OnMiss(func(e MissEvent) { serialEvents[i] = append(serialEvents[i], e) })
	}
	feedChunks(serial, stream)

	par := NewFusedBankWorkers(cfgs, 3)
	parEvents := make([][]MissEvent, len(cfgs))
	for i, c := range par.Caches {
		i := i
		// The hook runs on the cache's own worker goroutine; the slice is
		// touched by no one else until Drain.
		c.OnMiss(func(e MissEvent) { parEvents[i] = append(parEvents[i], e) })
	}
	feedChunks(par, stream)
	par.Drain()

	for i := range cfgs {
		if len(serialEvents[i]) == 0 {
			t.Fatalf("config %v: no miss events recorded", cfgs[i])
		}
		if len(serialEvents[i]) != len(parEvents[i]) {
			t.Fatalf("config %v: %d serial events vs %d parallel",
				cfgs[i], len(serialEvents[i]), len(parEvents[i]))
		}
		for j, se := range serialEvents[i] {
			if se != parEvents[i][j] {
				t.Fatalf("config %v event %d: serial %+v != parallel %+v",
					cfgs[i], j, se, parEvents[i][j])
			}
		}
	}
}

func TestParallelBankDrainIdempotentAndEmpty(t *testing.T) {
	par := NewFusedBankWorkers(benchConfigs(), 3)
	par.Drain()
	par.Drain()
	for _, c := range par.Caches {
		if c.S != (Stats{}) {
			t.Errorf("empty bank accumulated stats: %+v", c.S)
		}
	}
	// A bank with no caches must not deadlock or leak chunks.
	empty := NewFusedBankWorkers(nil, 3)
	empty.RefBatch(synthStream(10))
	empty.Drain()
}

// TestShardedChunkBatchMatchesInline is the replay-path equivalence check
// for the sharded bank: stamped chunks (including stamp-0 chunks, which
// take no snapshot, and an oversized chunk the bank must publish in
// pieces) give identical stats, snapshots and miss events on a one-worker
// and a three-worker bank, with one lane instrumented.
func TestShardedChunkBatchMatchesInline(t *testing.T) {
	stream := synthStream(72 * mem.ChunkRefs)
	cfgs := append(benchConfigs(), SweepConfigs(FetchOnWrite)[:3]...)

	// Chunk i carries 2 instructions per reference, so every chunk
	// crosses a sampling threshold of one full chunk: a stamp-0 chunk
	// would sample if it were allowed to. Chunk 7 is three chunks long.
	chunkLen := func(i int) int {
		if i == 7 {
			return 3 * mem.ChunkRefs
		}
		return mem.ChunkRefs
	}
	zeroStamp := func(i int) bool { return i%5 == 3 }

	type result struct {
		bank   *FusedBank
		events []MissEvent
	}
	run := func(workers int) *result {
		r := &result{bank: NewFusedBankWorkers(cfgs, workers)}
		for _, c := range r.bank.Caches {
			c.EnableSnapshots(2 * mem.ChunkRefs)
		}
		// The hook runs on the lane's worker goroutine; the slice is
		// touched by no one else until Drain.
		r.bank.Caches[2].OnMiss(func(e MissEvent) { r.events = append(r.events, e) })
		var insns uint64
		refs := stream
		for i := 0; len(refs) > 0; i++ {
			n := chunkLen(i)
			insns += uint64(2 * n)
			stamp := insns
			if zeroStamp(i) {
				stamp = 0
			}
			r.bank.ChunkBatch(refs[:n], stamp)
			refs = refs[n:]
		}
		r.bank.Drain()
		return r
	}
	inline, sharded := run(1), run(3)
	if sharded.bank.Workers() != 3 {
		t.Fatalf("sharded bank has %d workers, want 3", sharded.bank.Workers())
	}
	if sharded.bank.SimulateSeconds() <= 0 {
		t.Error("sharded bank reported no simulate time")
	}

	stamped := 0
	for i, left := 0, len(stream); left > 0; i++ {
		if !zeroStamp(i) {
			stamped++
		}
		left -= chunkLen(i)
	}
	for i, ic := range inline.bank.Caches {
		sc := sharded.bank.Caches[i]
		if ic.S != sc.S {
			t.Errorf("config %v: inline %+v != sharded %+v", ic.Config(), ic.S, sc.S)
		}
		is, ss := ic.Snapshots(), sc.Snapshots()
		if len(is) != stamped || len(ss) != stamped {
			t.Fatalf("config %v: %d inline and %d sharded snapshots, want one per stamped chunk (%d)",
				ic.Config(), len(is), len(ss), stamped)
		}
		for j := range is {
			if is[j] != ss[j] {
				t.Fatalf("config %v snapshot %d: inline %+v != sharded %+v", ic.Config(), j, is[j], ss[j])
			}
		}
	}
	if len(inline.events) == 0 || len(inline.events) != len(sharded.events) {
		t.Fatalf("%d inline miss events vs %d sharded", len(inline.events), len(sharded.events))
	}
	for i := range inline.events {
		if inline.events[i] != sharded.events[i] {
			t.Fatalf("event %d: inline %+v != sharded %+v", i, inline.events[i], sharded.events[i])
		}
	}
}

// TestShardedWorkerPanicReachesDrain: a panic inside a worker's lane must
// neither crash the process nor stall the producer; Drain re-raises it on
// the caller's goroutine, where the sweep's panic isolation can catch it.
func TestShardedWorkerPanicReachesDrain(t *testing.T) {
	bank := NewFusedBankWorkers(benchConfigs(), 2)
	bank.Caches[1].OnMiss(func(MissEvent) { panic("lane fault") })
	feedChunks(bank, synthStream(20*mem.ChunkRefs)) // far more chunks than the ring holds
	defer func() {
		if r := recover(); r != "lane fault" {
			t.Fatalf("Drain recovered %v, want the worker's panic", r)
		}
	}()
	bank.Drain()
	t.Fatal("Drain returned without re-raising the worker panic")
}

func TestAccessBatchMatchesAccess(t *testing.T) {
	stream := synthStream(100_000)
	one := New(Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate})
	for _, r := range stream {
		one.Access(r.Addr(), r.Write(), r.Collector())
	}
	batched := New(Config{SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate})
	feedChunks(batched, stream)
	if one.S != batched.S {
		t.Fatalf("per-ref stats %+v != batched stats %+v", one.S, batched.S)
	}
	if one.S.Misses() == 0 || one.S.Writebacks == 0 {
		t.Fatal("stream exercised no misses/writebacks; test is vacuous")
	}
}

// benchBank measures refs/sec through a bank over the 8-config sweep.
func benchBank(b *testing.B, mk func() interface {
	mem.BatchTracer
}, drain func(t mem.BatchTracer)) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := mk()
		feedChunks(bank, stream)
		if drain != nil {
			drain(bank)
		}
	}
	b.StopTimer()
	refs := float64(b.N) * float64(len(stream))
	b.ReportMetric(refs/b.Elapsed().Seconds(), "refs/s")
}

func BenchmarkSerialBank(b *testing.B) {
	benchBank(b, func() interface{ mem.BatchTracer } {
		return NewBank(benchConfigs())
	}, nil)
}

func BenchmarkParallelBank(b *testing.B) {
	benchBank(b, func() interface{ mem.BatchTracer } {
		return NewFusedBankWorkers(benchConfigs(), runtime.GOMAXPROCS(0))
	}, func(t mem.BatchTracer) { t.(*FusedBank).Drain() })
}

// BenchmarkSerialBankPerRef is the pre-pipeline baseline: one interface
// call per reference per bank, as mem.Memory used to issue.
func BenchmarkSerialBankPerRef(b *testing.B) {
	stream := synthStream(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := NewBank(benchConfigs())
		var tr mem.Tracer = bank
		for _, r := range stream {
			tr.Ref(r.Addr(), r.Write(), r.Collector())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(len(stream))/b.Elapsed().Seconds(), "refs/s")
}
