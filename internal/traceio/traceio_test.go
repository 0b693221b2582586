package traceio

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/vm"
)

type refRec struct {
	addr             uint64
	write, collector bool
}

type recorder struct{ refs []refRec }

func (r *recorder) Ref(addr uint64, write, collector bool) {
	r.refs = append(r.refs, refRec{addr, write, collector})
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	in := []refRec{
		{mem.DynBase, true, false},
		{mem.DynBase + 1, true, false},
		{mem.StackBase, false, false},
		{mem.DynBase + 100, false, true},
		{mem.StaticBase, true, true},
	}
	for _, r := range in {
		w.Ref(r.addr, r.write, r.collector)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(in))
	}
	var out recorder
	n, err := Replay(context.Background(), &buf, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(in)) {
		t.Errorf("replayed %d, want %d", n, len(in))
	}
	for i, r := range in {
		if out.refs[i] != r {
			t.Errorf("record %d: got %+v, want %+v", i, out.refs[i], r)
		}
	}
}

// A sequential allocation sweep is one-word steps on the heap chain: one
// payload byte per reference, plus a frame header per chunk.
func TestSequentialSweepCompresses(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10000; i++ {
		w.Ref(mem.DynBase+i, true, false)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()-len(Magic2)) / 10000
	if perRef > 1.1 {
		t.Errorf("sequential trace uses %.2f bytes/ref, want ~1", perRef)
	}
}

func TestRejectsGarbage(t *testing.T) {
	var out recorder
	for _, tc := range []struct{ name, data string }{
		{"garbage", "not a trace"},
		{"empty input", ""},
		{"truncated frame after a valid header", Magic2 + "\x01"},
		{"format-v1 trace", "GCSIMTRACE1\n\x00\x80\x40"},
	} {
		if _, err := Replay(context.Background(), strings.NewReader(tc.data), &out); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// Property: arbitrary reference sequences round-trip exactly.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(addrs []uint64, bits []bool) bool {
		var buf bytes.Buffer
		w, err := NewBatchWriter(&buf, WriterOpts{})
		if err != nil {
			return false
		}
		var in []refRec
		for i, a := range addrs {
			r := refRec{a & (1<<50 - 1), i < len(bits) && bits[i], i%3 == 0}
			in = append(in, r)
			w.Ref(r.addr, r.write, r.collector)
		}
		if w.Close() != nil {
			return false
		}
		var out recorder
		n, err := Replay(context.Background(), &buf, &out)
		if err != nil || n != uint64(len(in)) {
			return false
		}
		for i := range in {
			if out.refs[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// End-to-end through the per-reference path: a machine whose tracer is a
// plain mem.Tracer (the BatchWriter behind it stages references into
// frames itself) records a trace that replays to exactly the statistics
// of simulating live.
func TestCaptureAndReplayMatchesLive(t *testing.T) {
	prog := `
		(define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
		(let loop ((i 0) (acc 0))
		  (if (= i 30) acc (loop (+ i 1) (+ acc (length (build 200))))))`
	cfg := cache.Config{SizeBytes: 32 << 10, BlockBytes: 64, Policy: cache.WriteValidate}

	// Live simulation.
	live := cache.New(cfg)
	m1 := vm.NewLoaded(live, gc.NewCheney(64<<10))
	m1.MaxInsns = 500_000_000
	m1.MustEval(prog)

	// Captured trace, one Ref call per reference.
	var buf bytes.Buffer
	w, err := NewBatchWriter(&buf, WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := vm.NewLoaded(struct{ mem.Tracer }{w}, gc.NewCheney(64<<10))
	m2.MaxInsns = 500_000_000
	m2.MustEval(prog)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh cache.
	replayed := cache.New(cfg)
	n, err := Replay(context.Background(), &buf, replayed)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	if live.S != replayed.S {
		t.Errorf("replayed stats differ:\nlive:     %+v\nreplayed: %+v", live.S, replayed.S)
	}
}
