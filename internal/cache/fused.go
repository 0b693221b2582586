// The fused cache bank: one chunk of the reference stream is simulated
// against every direct-mapped configuration of a sweep in a single pass,
// with no per-reference interface calls and no per-config channel hops.
// Each configuration's tag state lives in a struct-of-arrays lane — a flat
// []uint64 tag array plus packed valid/dirty bitsets, one arena per config
// (the same arrays the Cache owns, aliased, so the fused and unfused paths
// share state and statistics) — and the hot loop keeps every miss counter
// in registers, merging into the cache's Stats once per chunk.
// Reference-kind totals (reads/writes, program/collector) depend only on
// the chunk itself, so they are histogrammed once per chunk and added to
// every lane instead of being branched on per reference per config.
//
// The bank is the one direct-mapped engine for live and replayed sweeps.
// Its worker count decides only where the lanes run: inline on the
// caller's goroutine, or sharded across core-scaled worker goroutines.
//
// Determinism: each lane consumes the chunk stream sequentially, in
// order, exactly as the serial Bank's per-cache loop does, and the
// per-chunk merge lands before any chunk-boundary snapshot is taken — so
// final statistics and periodic snapshots are bitwise identical to the
// serial Bank's at every worker count.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"gcsim/internal/mem"
)

// fusedLane is one configuration's slot in the fused store: the cache's
// flat tag/valid/dirty arrays plus its geometry, hoisted so the simulate
// loop touches no Cache fields, and the per-chunk miss-counter scratch the
// merge pass folds into the cache's Stats.
type fusedLane struct {
	c *Cache

	tags  []uint64 // aliases c.tags: current block number per cache block
	valid []uint64 // aliases c.valid: per-word valid bits per block
	dirty []uint64 // aliases c.dirty: dirty bits, packed 64 blocks per word

	shift3   uint // blockShift - log2(WordBytes): word address -> block number
	wordMask uint64
	fullMask uint64
	fow      bool // fetch-on-write policy

	// Per-chunk scratch, written by simulate and consumed by merge.
	readMiss, writeMiss, writeAllocs uint64
	gcReadMiss, gcWriteMiss          uint64
	wb, gcwb                         uint64
	fused                            bool // this chunk went through simulate
}

// newFusedLane hoists one cache's state and geometry into a lane.
func newFusedLane(c *Cache) fusedLane {
	return fusedLane{
		c:        c,
		tags:     c.tags,
		valid:    c.valid,
		dirty:    c.dirty,
		shift3:   c.blockShift - 3, // WordBytes == 8
		wordMask: c.wordMask,
		fullMask: c.fullMask,
		fow:      c.cfg.Policy == FetchOnWrite,
	}
}

// refKinds histograms a chunk by reference kind. The index is the packed
// ref's top two bits (write<<1 | collector): 0 = program read, 1 =
// collector read, 2 = program write, 3 = collector write. The totals are
// a property of the chunk alone, so one histogram serves every lane.
func refKinds(refs []mem.Ref) (k [4]uint64) {
	for _, r := range refs {
		k[r>>62]++
	}
	return k
}

// run simulates one chunk through this lane. Caches with live
// instrumentation hooks (block stats, miss events) take the cache's own
// instrumented path, which already maintains every counter itself; plain
// lanes take the fused register loop and defer counters to merge.
func (ln *fusedLane) run(refs []mem.Ref) {
	if c := ln.c; c.instrumented {
		for _, r := range refs {
			c.accessInstrumented(r.Addr(), r.Write(), r.Collector())
		}
		ln.fused = false
		return
	}
	ln.simulate(refs)
	ln.fused = true
}

// simulate is the fused hot loop: the direct-mapped write-validate /
// fetch-on-write simulation of accessPlain, restructured so the common
// case (tag match on a valid word) is a handful of ALU ops on flat
// arrays, and every event counter stays in a register until the chunk is
// done. It must remain semantically identical to Cache.accessPlain —
// the golden fused-vs-serial equivalence tests enforce this bit for bit.
func (ln *fusedLane) simulate(refs []mem.Ref) {
	tags := ln.tags
	if len(tags) == 0 {
		return
	}
	idxMask := uint64(len(tags) - 1)
	valid := ln.valid[:len(tags)]
	dirty := ln.dirty
	if len(dirty) == 0 {
		return
	}
	// len(dirty) is ceil(len(tags)/64), a power of two whenever len(tags)
	// is — masking the dirty-word index is a no-op that lets the compiler
	// drop the bounds check.
	dwMask := uint64(len(dirty) - 1)
	var (
		shift3               = ln.shift3
		wordMask             = ln.wordMask
		fullMask             = ln.fullMask
		fow                  = ln.fow
		readMiss, gcReadMiss uint64
		writeMiss, gcwMiss   uint64
		writeAllocs          uint64
		wb, gcwb             uint64
	)
	for _, r := range refs {
		addr := r.Addr()
		blockNum := addr >> shift3
		idx := blockNum & idxMask
		if tags[idx] == blockNum {
			if r&mem.RefWrite != 0 {
				// Write hit (or write to a claimed line): validate the
				// word, mark the block dirty, no event.
				valid[idx] |= 1 << (addr & wordMask)
				dirty[(idx>>6)&dwMask] |= 1 << (idx & 63)
				continue
			}
			if valid[idx]&(1<<(addr&wordMask)) != 0 {
				continue // read hit
			}
			// Read of a word not yet validated in a claimed line: fetch.
			valid[idx] = fullMask
			if r&mem.RefCollector != 0 {
				gcReadMiss++
			} else {
				readMiss++
			}
			continue
		}

		// Tag mismatch: evict, writing back a dirty occupant.
		dw := (idx >> 6) & dwMask
		db := uint64(1) << (idx & 63)
		if dirty[dw]&db != 0 && tags[idx] != tagEmpty {
			if r&mem.RefCollector != 0 {
				gcwb++
			} else {
				wb++
			}
		}
		tags[idx] = blockNum
		if r&mem.RefWrite == 0 {
			dirty[dw] &^= db
			valid[idx] = fullMask
			if r&mem.RefCollector != 0 {
				gcReadMiss++
			} else {
				readMiss++
			}
			continue
		}
		dirty[dw] |= db
		// The collector always fetches on write (paper, Section 6
		// footnote); the program fetches only under FetchOnWrite.
		if r&mem.RefCollector != 0 {
			valid[idx] = fullMask
			gcwMiss++
			continue
		}
		if fow {
			valid[idx] = fullMask
			writeMiss++
			continue
		}
		// Write-validate: claim the line, validate only the written word.
		valid[idx] = 1 << (addr & wordMask)
		writeAllocs++
	}
	ln.readMiss, ln.gcReadMiss = readMiss, gcReadMiss
	ln.writeMiss, ln.gcWriteMiss = writeMiss, gcwMiss
	ln.writeAllocs = writeAllocs
	ln.wb, ln.gcwb = wb, gcwb
}

// merge folds the chunk's scratch counters and the shared kind histogram
// into the cache's Stats. Instrumented lanes already counted themselves.
func (ln *fusedLane) merge(k *[4]uint64) {
	if !ln.fused {
		return
	}
	s := &ln.c.S
	s.Reads += k[0]
	s.GCReads += k[1]
	s.Writes += k[2]
	s.GCWrites += k[3]
	s.ReadMisses += ln.readMiss
	s.WriteMisses += ln.writeMiss
	s.WriteAllocs += ln.writeAllocs
	s.GCReadMisses += ln.gcReadMiss
	s.GCWriteMisses += ln.gcWriteMiss
	s.Writebacks += ln.wb
	s.GCWritebacks += ln.gcwb
}

// parallelRing is the number of in-flight chunks on a sharded bank. Deep
// enough to absorb skew between fast (small-cache) and slow (large-cache)
// workers, shallow enough that the working set of chunks stays
// cache-resident.
const parallelRing = 8

// parChunk is one sealed, shared chunk of the reference stream on a
// sharded bank.
type parChunk struct {
	refs    []mem.Ref
	kinds   [4]uint64    // reference-kind histogram (see refKinds)
	insnsAt uint64       // snapshot stamp (0 = take no snapshot)
	pending atomic.Int32 // workers that have not finished this chunk yet
}

// FusedBank simulates a whole direct-mapped sweep against one reference
// stream with the fused single-pass loop. Install it as the Memory's
// tracer for live runs (RefBatch), or feed it decoded trace chunks with
// their clock stamps (ChunkBatch, the traceio.ChunkSink contract) for
// replayed ones. Stats and snapshots are bitwise identical to Bank's
// either way, at any worker count.
//
// With one worker the bank simulates inline on the caller's goroutine.
// With n > 1 it deals the configurations round-robin over n worker
// goroutines (neighbouring sizes, whose simulation state competes for the
// same host cache levels, land on different workers); the caller publishes
// each chunk once into a small ring of sealed chunks, every worker
// simulates every chunk in publication order against its shard, and the
// last worker to finish a chunk returns it to the ring. The producer
// blocks when the ring is exhausted, bounding memory and applying back
// pressure to the VM or decoder.
//
// A bank is single-producer and single-shot: one goroutine feeds it, and
// Drain is the final barrier before any cache's Stats are read (a no-op
// when inline). Publishing after Drain panics.
type FusedBank struct {
	Caches []*Cache
	shards [][]fusedLane // one shard of lanes per worker

	// clock, when set, stamps live chunks for periodic snapshots. The
	// stamp is read on the producer goroutine while the VM is blocked in
	// RefBatch, so it equals what a serial bank's post-chunk clock read
	// returns (the replay path carries each frame's recorded stamp
	// instead).
	clock func() uint64

	// Sharded mode only (nil when inline).
	workers  []chan *parChunk
	free     chan *parChunk
	wg       sync.WaitGroup
	staged   []mem.Ref // buffer for the per-ref Tracer interface
	drained  bool
	panicked atomic.Pointer[workerPanic]

	// Time in the simulate loops and in stat merges plus snapshot checks,
	// summed over workers.
	simNs, mergeNs atomic.Int64
}

// workerPanic carries a worker goroutine's panic to Drain.
type workerPanic struct{ value any }

// NewFusedBank builds an inline (one-worker) fused bank with one lane per
// configuration. It panics on an invalid configuration, like New.
func NewFusedBank(cfgs []Config) *FusedBank { return NewFusedBankWorkers(cfgs, 1) }

// NewParallelBankWorkers is NewFusedBankWorkers under its former name,
// kept for callers outside this module.
func NewParallelBankWorkers(cfgs []Config, n int) *FusedBank { return NewFusedBankWorkers(cfgs, n) }

// NewFusedBankWorkers builds a fused bank whose lanes are sharded over
// min(n, len(cfgs)) workers (at least one); one worker simulates inline.
// Worker goroutines idle on empty channels until references arrive and
// exit at Drain.
func NewFusedBankWorkers(cfgs []Config, n int) *FusedBank {
	n = max(1, min(n, len(cfgs)))
	b := &FusedBank{Caches: make([]*Cache, len(cfgs)), shards: make([][]fusedLane, n)}
	for i, cfg := range cfgs {
		b.Caches[i] = New(cfg)
		b.shards[i%n] = append(b.shards[i%n], newFusedLane(b.Caches[i]))
	}
	if n == 1 {
		return b
	}
	b.free = make(chan *parChunk, parallelRing)
	for i := 0; i < parallelRing; i++ {
		b.free <- &parChunk{refs: make([]mem.Ref, 0, mem.ChunkRefs)}
	}
	for _, lanes := range b.shards {
		ch := make(chan *parChunk, parallelRing)
		b.workers = append(b.workers, ch)
		b.wg.Add(1)
		go b.work(lanes, ch)
	}
	return b
}

// RefBatch implements mem.BatchTracer: the live path, stamped by the
// bank's snapshot clock (the machine's instruction counter).
func (b *FusedBank) RefBatch(refs []mem.Ref) {
	var clockAt uint64
	if b.clock != nil {
		clockAt = b.clock()
	}
	b.chunk(refs, clockAt)
}

// ChunkBatch consumes one decoded trace chunk stamped with the recorded
// instruction clock — the replay path (traceio.ChunkSink). A zero stamp
// takes no snapshot.
func (b *FusedBank) ChunkBatch(refs []mem.Ref, insnsAt uint64) { b.chunk(refs, insnsAt) }

// chunk runs one chunk through every lane, inline or by publishing it to
// the workers. A chunk longer than a ring buffer is published in pieces;
// only the last carries the stamp, so snapshots see the whole chunk
// exactly as they do inline.
func (b *FusedBank) chunk(refs []mem.Ref, stamp uint64) {
	if len(b.Caches) == 0 || len(refs) == 0 {
		return
	}
	if b.workers == nil {
		kinds := refKinds(refs)
		b.simulateShard(b.shards[0], refs, &kinds, stamp)
		return
	}
	for len(refs) > 0 {
		n := min(len(refs), mem.ChunkRefs)
		ck := <-b.free
		ck.refs = append(ck.refs[:0], refs[:n]...)
		ck.kinds = refKinds(ck.refs)
		ck.insnsAt = 0
		if n == len(refs) {
			ck.insnsAt = stamp
		}
		ck.pending.Store(int32(len(b.workers)))
		for _, ch := range b.workers {
			ch <- ck
		}
		refs = refs[n:]
	}
}

// simulateShard runs one chunk through a shard of lanes, then merges each
// lane's counters and samples stamped snapshots: the per-chunk sequence
// of the serial Bank. The simulate pass and the merge pass are timed
// separately so sweeps can report a simulate/merge breakdown.
func (b *FusedBank) simulateShard(lanes []fusedLane, refs []mem.Ref, kinds *[4]uint64, stamp uint64) {
	t0 := time.Now()
	for i := range lanes {
		lanes[i].run(refs)
	}
	t1 := time.Now()
	for i := range lanes {
		ln := &lanes[i]
		ln.merge(kinds)
		if stamp != 0 && ln.c.snapInterval != 0 {
			ln.c.MaybeSnapshot(stamp)
		}
	}
	b.simNs.Add(int64(t1.Sub(t0)))
	b.mergeNs.Add(int64(time.Since(t1)))
}

// work simulates every published chunk against one shard, recycling each
// chunk once every worker has finished with it. A panic in a lane is
// handed to Drain, and the worker keeps consuming so the producer never
// blocks on it.
func (b *FusedBank) work(lanes []fusedLane, ch chan *parChunk) {
	defer b.wg.Done()
	for ck := range ch {
		b.workChunk(lanes, ck)
		if ck.pending.Add(-1) == 0 {
			b.free <- ck
		}
	}
}

func (b *FusedBank) workChunk(lanes []fusedLane, ck *parChunk) {
	if b.panicked.Load() != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			b.panicked.CompareAndSwap(nil, &workerPanic{r})
		}
	}()
	b.simulateShard(lanes, ck.refs, &ck.kinds, ck.insnsAt)
}

// Ref implements mem.Tracer for per-reference producers; it behaves
// exactly like Bank.Ref. A sharded bank stages the references into
// chunks (Memory prefers RefBatch).
func (b *FusedBank) Ref(addr uint64, write, collector bool) {
	if b.workers == nil {
		for _, c := range b.Caches {
			c.Access(addr, write, collector)
		}
		return
	}
	if b.staged == nil {
		b.staged = make([]mem.Ref, 0, mem.ChunkRefs)
	}
	b.staged = append(b.staged, mem.MakeRef(addr, write, collector))
	if len(b.staged) == cap(b.staged) {
		b.RefBatch(b.staged)
		b.staged = b.staged[:0]
	}
}

// Drain is the final barrier: it publishes any staged refs, waits for
// every worker to finish every chunk, and stops the workers. After Drain
// returns, the caches' Stats are complete and safe to read from any
// goroutine. If a worker panicked, Drain re-panics with its value on the
// caller's goroutine. Drain is idempotent and a no-op when inline.
func (b *FusedBank) Drain() {
	if b.workers == nil || b.drained {
		return
	}
	b.drained = true
	if len(b.staged) > 0 {
		b.RefBatch(b.staged)
		b.staged = b.staged[:0]
	}
	for _, ch := range b.workers {
		close(ch)
	}
	b.wg.Wait()
	if p := b.panicked.Load(); p != nil {
		panic(p.value)
	}
}

// SetSnapshotClock installs the instruction clock read once per live
// chunk for periodic snapshots (see Cache.EnableSnapshots). Must be set
// before the first reference is published.
func (b *FusedBank) SetSnapshotClock(clock func() uint64) { b.clock = clock }

// Workers returns the number of goroutines simulating the bank's lanes
// (1 when inline).
func (b *FusedBank) Workers() int { return len(b.shards) }

// Bank returns a serial-bank view sharing this bank's caches, for code
// that consumes *Bank results. On a sharded bank it is valid only after
// Drain.
func (b *FusedBank) Bank() *Bank { return &Bank{Caches: b.Caches} }

// Find returns the bank's cache with the given configuration, or nil.
func (b *FusedBank) Find(cfg Config) *Cache {
	for _, c := range b.Caches {
		if c.cfg == cfg {
			return c
		}
	}
	return nil
}

// SimulateSeconds returns the cumulative wall time spent in the fused
// simulate loops, and MergeSeconds the time in per-chunk stat merges and
// snapshot checks. Both are summed over workers, so on a sharded bank
// either can exceed the elapsed wall clock. Read them after Drain.
func (b *FusedBank) SimulateSeconds() float64 { return float64(b.simNs.Load()) / 1e9 }

// MergeSeconds returns the cumulative wall time spent merging per-chunk
// counters into cache Stats (see SimulateSeconds).
func (b *FusedBank) MergeSeconds() float64 { return float64(b.mergeNs.Load()) / 1e9 }

var _ mem.Tracer = (*FusedBank)(nil)
var _ mem.BatchTracer = (*FusedBank)(nil)
