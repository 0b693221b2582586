package traceio

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/mem"
)

func sweepConfigs8() []cache.Config {
	var cfgs []cache.Config
	for _, s := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		for _, bb := range []int{32, 64} {
			cfgs = append(cfgs, cache.Config{SizeBytes: s, BlockBytes: bb, Policy: cache.WriteValidate})
		}
	}
	return cfgs
}

// TestSharedReplayerMatchesReplayer is the decode-once golden check: one
// SharedReplayer pass into a FusedBank must produce exactly the stats and
// snapshots of a classic Replayer pass into a serial Bank — same trace,
// same clock stamps, bit for bit.
func TestSharedReplayerMatchesReplayer(t *testing.T) {
	in := makeRefs(12*mem.ChunkRefs + 123)
	var tick uint64
	data := writeV2(t, in, WriterOpts{Compress: true}, func() uint64 { tick += 5_000; return tick })
	cfgs := sweepConfigs8()

	serial := cache.NewBank(cfgs)
	rp, err := NewReplayer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rp.SetDecoders(1)
	serial.SetSnapshotClock(rp.Clock)
	for _, c := range serial.Caches {
		c.EnableSnapshots(7_000)
	}
	want, err := rp.Run(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	if want != uint64(len(in)) {
		t.Fatalf("serial replay delivered %d refs, want %d", want, len(in))
	}

	for _, nd := range []int{1, 4} {
		sr, err := NewSharedReplayer(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sr.SetDecoders(nd)
		fused := cache.NewFusedBank(cfgs)
		for _, c := range fused.Caches {
			c.EnableSnapshots(7_000)
		}
		got, err := sr.Run(context.Background(), fused)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("decoders=%d: shared replay delivered %d refs, want %d", nd, got, want)
		}
		wantFrames := uint64((len(in) + mem.ChunkRefs - 1) / mem.ChunkRefs)
		if sr.Frames() != wantFrames {
			t.Fatalf("decoders=%d: Frames = %d, want %d", nd, sr.Frames(), wantFrames)
		}
		if sr.DecodeSeconds() <= 0 {
			t.Errorf("decoders=%d: DecodeSeconds = %v, want > 0", nd, sr.DecodeSeconds())
		}
		for i, sc := range serial.Caches {
			fc := fused.Caches[i]
			if sc.S != fc.S {
				t.Errorf("decoders=%d config %v: serial %+v != fused %+v",
					nd, sc.Config(), sc.S, fc.S)
			}
			ss, fs := sc.Snapshots(), fc.Snapshots()
			if len(ss) == 0 || len(ss) != len(fs) {
				t.Fatalf("decoders=%d config %v: %d serial snapshots vs %d fused",
					nd, sc.Config(), len(ss), len(fs))
			}
			for j := range ss {
				if ss[j] != fs[j] {
					t.Fatalf("decoders=%d config %v snapshot %d: %+v != %+v",
						nd, sc.Config(), j, ss[j], fs[j])
				}
			}
		}
	}
}

// TestSharedReplayerRejectsV1 pins the v2-only rule: v1 traces have no
// frame stamps and must be refused, not silently degraded.
func TestSharedReplayerRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range makeRefs(100) {
		w.Ref(r.Addr(), r.Write(), r.Collector())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSharedReplayer(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("NewSharedReplayer accepted a v1 trace")
	}
	if _, err := NewSharedReplayer(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("NewSharedReplayer accepted junk")
	}
}

type countSink struct {
	n      uint64
	chunks int
	cancel func()
	at     int
}

func (s *countSink) ChunkBatch(refs []mem.Ref, insnsAt uint64) {
	s.n += uint64(len(refs))
	s.chunks++
	if s.cancel != nil && s.chunks == s.at {
		s.cancel()
	}
}

// TestSharedReplayerCancelAndSingleShot covers context cancellation at a
// frame boundary and the single-shot contract.
func TestSharedReplayerCancelAndSingleShot(t *testing.T) {
	in := makeRefs(50 * mem.ChunkRefs)
	data := writeV2(t, in, WriterOpts{}, nil)

	for _, nd := range []int{1, 4} {
		sr, err := NewSharedReplayer(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sr.SetDecoders(nd)
		ctx, cancel := context.WithCancel(context.Background())
		sink := &countSink{cancel: cancel, at: 3}
		n, err := sr.Run(ctx, sink)
		cancel()
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("decoders=%d: cancelled shared replay: err=%v", nd, err)
		}
		if n >= uint64(len(in)) {
			t.Fatalf("decoders=%d: replay did not stop early (%d refs)", nd, n)
		}
	}

	sr, err := NewSharedReplayer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Run(context.Background(), &countSink{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Run(context.Background(), &countSink{}); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestSharedReplayerCorruptionDetected: the shared path keeps the framing
// integrity checks (CRC, trailer totals).
func TestSharedReplayerCorruptionDetected(t *testing.T) {
	valid := writeV2(t, makeRefs(2*mem.ChunkRefs), WriterOpts{}, nil)
	data := append([]byte(nil), valid...)
	data[len(Magic2)+20] ^= 0x40
	for _, nd := range []int{1, 4} {
		sr, err := NewSharedReplayer(bytes.NewReader(data))
		if err != nil {
			continue
		}
		sr.SetDecoders(nd)
		if _, err := sr.Run(context.Background(), &countSink{}); err == nil {
			t.Errorf("decoders=%d: corruption not detected", nd)
		}
	}
}
