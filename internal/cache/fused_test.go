package cache

import (
	"testing"

	"gcsim/internal/mem"
)

// TestFusedBankMatchesSerialBank is the golden equivalence check for the
// fused kernel: every configuration of a mixed write-validate /
// fetch-on-write sweep must accumulate bitwise-identical Stats whether the
// stream runs through the serial Bank or the fused single-pass loop.
func TestFusedBankMatchesSerialBank(t *testing.T) {
	stream := synthStream(300_000)
	cfgs := append(SweepConfigs(WriteValidate), SweepConfigs(FetchOnWrite)...)

	serial := NewBank(cfgs)
	feedChunks(serial, stream)

	fused := NewFusedBank(cfgs)
	feedChunks(fused, stream)

	for i, sc := range serial.Caches {
		fc := fused.Caches[i]
		if sc.S != fc.S {
			t.Errorf("config %v: serial stats %+v != fused stats %+v",
				sc.Config(), sc.S, fc.S)
		}
		if sc.S.Misses() == 0 {
			t.Errorf("config %v: no misses; equivalence is vacuous", sc.Config())
		}
	}
}

// TestFusedBankBlockSizes sweeps block geometries (including the 64-word
// valid-mask edge and block==8 where every word is its own block) so the
// fused loop's hoisted masks are checked against every shift they can take.
func TestFusedBankBlockSizes(t *testing.T) {
	stream := synthStream(200_000)
	var cfgs []Config
	for _, bs := range []int{8, 16, 32, 64, 256, 512} {
		for _, p := range []WritePolicy{WriteValidate, FetchOnWrite} {
			cfgs = append(cfgs, Config{SizeBytes: 64 << 10, BlockBytes: bs, Policy: p})
		}
	}

	serial := NewBank(cfgs)
	feedChunks(serial, stream)
	fused := NewFusedBank(cfgs)
	feedChunks(fused, stream)

	for i, sc := range serial.Caches {
		if fc := fused.Caches[i]; sc.S != fc.S {
			t.Errorf("config %v: serial %+v != fused %+v", sc.Config(), sc.S, fc.S)
		}
	}
}

// TestFusedBankSnapshotsMatchSerial drives both banks with the same
// instruction clock and requires identical snapshot sequences — stamps and
// sampled stats — since replayed telemetry depends on it.
func TestFusedBankSnapshotsMatchSerial(t *testing.T) {
	stream := synthStream(250_000)
	cfgs := benchConfigs()

	run := func(bank interface {
		mem.BatchTracer
		SetSnapshotClock(func() uint64)
	}, caches []*Cache) {
		var insns uint64
		bank.SetSnapshotClock(func() uint64 { return insns })
		for _, c := range caches {
			c.EnableSnapshots(10_000)
		}
		refs := stream
		for len(refs) > 0 {
			n := len(refs)
			if n > mem.ChunkRefs {
				n = mem.ChunkRefs
			}
			// The synthetic "machine" retires 3 instructions per reference.
			insns += uint64(3 * n)
			bank.RefBatch(refs[:n])
			refs = refs[n:]
		}
	}

	serial := NewBank(cfgs)
	run(serial, serial.Caches)
	fused := NewFusedBank(cfgs)
	run(fused, fused.Caches)

	for i, sc := range serial.Caches {
		fc := fused.Caches[i]
		ss, fs := sc.Snapshots(), fc.Snapshots()
		if len(ss) == 0 {
			t.Fatalf("config %v: no snapshots recorded", sc.Config())
		}
		if len(ss) != len(fs) {
			t.Fatalf("config %v: %d serial snapshots vs %d fused",
				sc.Config(), len(ss), len(fs))
		}
		for j := range ss {
			if ss[j] != fs[j] {
				t.Fatalf("config %v snapshot %d: serial %+v != fused %+v",
					sc.Config(), j, ss[j], fs[j])
			}
		}
	}
}

// TestFusedBankChunkBatchStamps feeds pre-stamped chunks (the replay path)
// and checks snapshots land exactly where the serial bank's clock puts
// them.
func TestFusedBankChunkBatchStamps(t *testing.T) {
	stream := synthStream(200_000)
	cfgs := benchConfigs()

	want := NewBank(cfgs)
	var insns uint64
	want.SetSnapshotClock(func() uint64 { return insns })
	for _, c := range want.Caches {
		c.EnableSnapshots(8_192)
	}
	fused := NewFusedBank(cfgs)
	for _, c := range fused.Caches {
		c.EnableSnapshots(8_192)
	}

	refs := stream
	for len(refs) > 0 {
		n := len(refs)
		if n > mem.ChunkRefs {
			n = mem.ChunkRefs
		}
		insns += uint64(2 * n)
		want.RefBatch(refs[:n])
		fused.ChunkBatch(refs[:n], insns)
		refs = refs[n:]
	}

	for i, sc := range want.Caches {
		fc := fused.Caches[i]
		if sc.S != fc.S {
			t.Errorf("config %v: stats diverge: %+v != %+v", sc.Config(), sc.S, fc.S)
		}
		ss, fs := sc.Snapshots(), fc.Snapshots()
		if len(ss) == 0 || len(ss) != len(fs) {
			t.Fatalf("config %v: %d serial snapshots vs %d fused", sc.Config(), len(ss), len(fs))
		}
		for j := range ss {
			if ss[j] != fs[j] {
				t.Fatalf("config %v snapshot %d: %+v != %+v", sc.Config(), j, ss[j], fs[j])
			}
		}
	}
}

// TestFusedBankInstrumentedLane checks that a lane with live hooks takes
// the instrumented path inside the fused bank: identical miss events and
// per-block counters to the serial cache, while uninstrumented lanes stay
// fused.
func TestFusedBankInstrumentedLane(t *testing.T) {
	stream := synthStream(50_000)
	cfg := Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: WriteValidate}
	cfgs := []Config{cfg, {SizeBytes: 64 << 10, BlockBytes: 64, Policy: WriteValidate}}

	serial := NewBank(cfgs)
	var wantEvents []MissEvent
	serial.Caches[0].OnMiss(func(e MissEvent) { wantEvents = append(wantEvents, e) })
	serial.Caches[0].EnableBlockStats()
	feedChunks(serial, stream)

	fused := NewFusedBank(cfgs)
	var gotEvents []MissEvent
	fused.Caches[0].OnMiss(func(e MissEvent) { gotEvents = append(gotEvents, e) })
	fused.Caches[0].EnableBlockStats()
	feedChunks(fused, stream)

	if len(wantEvents) == 0 || len(wantEvents) != len(gotEvents) {
		t.Fatalf("%d serial events vs %d fused", len(wantEvents), len(gotEvents))
	}
	for i := range wantEvents {
		if wantEvents[i] != gotEvents[i] {
			t.Fatalf("event %d: serial %+v != fused %+v", i, wantEvents[i], gotEvents[i])
		}
	}
	wantRefs, wantMisses := serial.Caches[0].BlockStats()
	gotRefs, gotMisses := fused.Caches[0].BlockStats()
	for i := range wantRefs {
		if wantRefs[i] != gotRefs[i] || wantMisses[i] != gotMisses[i] {
			t.Fatalf("block %d: serial (%d,%d) != fused (%d,%d)",
				i, wantRefs[i], wantMisses[i], gotRefs[i], gotMisses[i])
		}
	}
	for i, sc := range serial.Caches {
		if fc := fused.Caches[i]; sc.S != fc.S {
			t.Errorf("config %v: serial %+v != fused %+v", sc.Config(), sc.S, fc.S)
		}
	}
}

// TestFusedBankPerRefTracer exercises the mem.Tracer fallback.
func TestFusedBankPerRefTracer(t *testing.T) {
	stream := synthStream(10_000)
	cfgs := benchConfigs()

	serial := NewBank(cfgs)
	for _, r := range stream {
		serial.Ref(r.Addr(), r.Write(), r.Collector())
	}
	fused := NewFusedBank(cfgs)
	for _, r := range stream {
		fused.Ref(r.Addr(), r.Write(), r.Collector())
	}
	for i, sc := range serial.Caches {
		if fc := fused.Caches[i]; sc.S != fc.S {
			t.Errorf("config %v: serial %+v != fused %+v", sc.Config(), sc.S, fc.S)
		}
	}
}

// TestFusedBankEmpty covers the degenerate shapes: no configs, and empty
// chunks, neither of which may panic or record anything.
func TestFusedBankEmpty(t *testing.T) {
	empty := NewFusedBank(nil)
	empty.RefBatch(synthStream(10))
	empty.ChunkBatch(nil, 42)

	bank := NewFusedBank(benchConfigs())
	bank.RefBatch(nil)
	for _, c := range bank.Caches {
		if c.S != (Stats{}) {
			t.Errorf("empty input accumulated stats: %+v", c.S)
		}
	}
	if bank.Find(benchConfigs()[0]) == nil {
		t.Error("Find failed on a bank config")
	}
	if bank.Find(Config{SizeBytes: 1 << 10, BlockBytes: 16}) != nil {
		t.Error("Find matched a config the bank does not hold")
	}
	if bank.Bank() == nil || len(bank.Bank().Caches) != len(bank.Caches) {
		t.Error("Bank() view does not share the caches")
	}
}
