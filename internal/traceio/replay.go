// Trace replay: the consumer side of the record-once / replay-many
// engine. A Replayer reads either trace format (v1 flat records, v2
// frames) and feeds the reference stream to any mem.Tracer; a
// batch-capable tracer (a cache, a Bank, a FusedBank) receives whole
// chunks, reproducing exactly the chunk boundaries of the recorded run.
// A SharedReplayer is the decode-once variant: it hands each decoded
// frame, together with its recorded instruction-clock stamp, to a
// ChunkSink exactly once — the feed for the fused cache bank, where one
// decode serves every configuration of a sweep.
//
// For v2 traces both replayers decode frames on a pool of goroutines:
// frames are self-contained, so decoding parallelizes, while delivery
// stays strictly in frame order — the consumer observes the identical
// reference stream (and identical chunk boundaries) the recording run
// produced, which is what makes replayed cache statistics bitwise equal
// to live ones.
package traceio

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"gcsim/internal/mem"
)

// ChunkSink consumes decoded trace chunks with their recorded
// instruction-clock stamps. The stamp is the value a live run's (paused)
// machine would have published at the chunk boundary; a stamp of 0 means
// the recording run had no clock. The chunk is only valid for the
// duration of the call.
type ChunkSink interface {
	ChunkBatch(refs []mem.Ref, insnsAt uint64)
}

// Replayer streams one trace into a tracer. It is single-shot: create,
// optionally SetDecoders, then Run once.
type Replayer struct {
	br       *bufio.Reader
	version  int
	decoders int
	stamp    uint64
	ran      bool

	frames uint64       // frames delivered
	decNs  atomic.Int64 // cumulative frame-decode time across the pool
}

// NewReplayer opens a trace stream, consuming and validating the magic
// header. Both format versions are accepted; Version reports which.
func NewReplayer(r io.Reader) (*Replayer, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	head := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("traceio: reading header: %w", err)
	}
	rp := &Replayer{br: br, decoders: runtime.GOMAXPROCS(0)}
	switch string(head) {
	case Magic:
		rp.version = 1
	case Magic2:
		rp.version = 2
	default:
		return nil, fmt.Errorf("traceio: not a gcsim trace file")
	}
	return rp, nil
}

// Version returns the trace format version (1 or 2).
func (rp *Replayer) Version() int { return rp.version }

// SetDecoders bounds the frame-decoding goroutine pool (default
// GOMAXPROCS). With n <= 1, Run decodes inline with no goroutines at
// all. v1 traces always replay inline (the flat record stream has no
// frame boundaries to parallelize over).
func (rp *Replayer) SetDecoders(n int) {
	if n < 1 {
		n = 1
	}
	rp.decoders = n
}

// Clock returns the instruction-clock stamp of the frame currently being
// delivered. Wire it to a bank's snapshot clock to make replayed cache
// snapshots land on the same instruction counts as a live run's: the
// stamp is updated on the delivery goroutine immediately before each
// chunk is handed to the tracer, exactly where a live run's (paused)
// machine would publish its instruction count.
func (rp *Replayer) Clock() uint64 { return rp.stamp }

// Frames returns the number of trace frames delivered so far.
func (rp *Replayer) Frames() uint64 { return rp.frames }

// DecodeSeconds returns the cumulative wall time spent decoding frames
// (varint expansion and decompression, excluding I/O and delivery). With
// a decoder pool the per-goroutine times are summed, so the total can
// exceed the elapsed wall clock.
func (rp *Replayer) DecodeSeconds() float64 { return float64(rp.decNs.Load()) / 1e9 }

// emitFunc receives each decoded chunk with its clock stamp, strictly in
// frame order, on the Run caller's goroutine.
type emitFunc func(refs []mem.Ref, insnsAt uint64)

// Run replays the whole trace into tracer, returning the number of
// references delivered. The context cancels the replay at the next frame
// boundary (v1: every mem.ChunkRefs records); the returned error then
// matches ctx.Err() under errors.Is.
func (rp *Replayer) Run(ctx context.Context, tracer mem.Tracer) (uint64, error) {
	if rp.version == 1 {
		if rp.ran {
			return 0, fmt.Errorf("traceio: Replayer is single-shot")
		}
		rp.ran = true
		return rp.runV1(ctx, tracer)
	}
	bt, _ := tracer.(mem.BatchTracer)
	return rp.run(ctx, func(refs []mem.Ref, insnsAt uint64) {
		rp.stamp = insnsAt
		deliver(tracer, bt, refs)
	})
}

// run replays a v2 trace through emit, inline or via the decoder pool.
func (rp *Replayer) run(ctx context.Context, emit emitFunc) (uint64, error) {
	if rp.ran {
		return 0, fmt.Errorf("traceio: Replayer is single-shot")
	}
	rp.ran = true
	if rp.decoders > 1 {
		return rp.runParallel(ctx, emit)
	}
	return rp.runSerial(ctx, emit)
}

// deliver hands one decoded chunk to the tracer, batch-wise if possible.
func deliver(tracer mem.Tracer, bt mem.BatchTracer, refs []mem.Ref) {
	if bt != nil {
		bt.RefBatch(refs)
		return
	}
	for _, r := range refs {
		tracer.Ref(r.Addr(), r.Write(), r.Collector())
	}
}

func interrupted(ctx context.Context, count uint64) error {
	return fmt.Errorf("traceio: replay interrupted after %d refs: %w", count, ctx.Err())
}

// runV1 replays the flat v1 record stream.
func (rp *Replayer) runV1(ctx context.Context, tracer mem.Tracer) (uint64, error) {
	var addr, count uint64
	for {
		if count%mem.ChunkRefs == 0 && ctx.Err() != nil {
			return count, interrupted(ctx, count)
		}
		flags, err := rp.br.ReadByte()
		if err == io.EOF {
			return count, nil
		}
		if err != nil {
			return count, fmt.Errorf("traceio: %w", err)
		}
		delta, err := binary.ReadVarint(rp.br)
		if err != nil {
			return count, fmt.Errorf("traceio: truncated record %d: %w", count, err)
		}
		addr = uint64(int64(addr) + delta)
		tracer.Ref(addr, flags&flagWrite != 0, flags&flagCollector != 0)
		count++
	}
}

// runSerial replays a v2 trace inline: one goroutine reads, decodes, and
// delivers, reusing a single payload buffer and chunk.
func (rp *Replayer) runSerial(ctx context.Context, emit emitFunc) (uint64, error) {
	var (
		dec    frameDecoder
		f      frame
		chunk  = make([]mem.Ref, 0, mem.ChunkRefs)
		buf    []byte
		count  uint64
		runCRC uint32
	)
	for {
		if err := ctx.Err(); err != nil {
			return count, interrupted(ctx, count)
		}
		trailer, total, wantCRC, err := readFrame(rp.br, &f, buf)
		if err != nil {
			return count, err
		}
		if trailer {
			if total != count {
				return count, fmt.Errorf("traceio: trailer claims %d refs, replayed %d", total, count)
			}
			if wantCRC != runCRC {
				return count, fmt.Errorf("traceio: running CRC mismatch")
			}
			return count, nil
		}
		buf = f.payload[:cap(f.payload)]
		runCRC = crc32.Update(runCRC, crc32.IEEETable, f.payload)
		t0 := time.Now()
		refs, err := dec.decode(&f, chunk[:0])
		rp.decNs.Add(int64(time.Since(t0)))
		if err != nil {
			return count, err
		}
		rp.frames++
		emit(refs, f.insnsAt)
		count += uint64(len(refs))
		chunk = refs // keep the buffer if decode grew it
	}
}

// decodeJob carries one frame through the decoder pool. out is buffered,
// so a decoder never blocks publishing its result.
type decodeJob struct {
	f   frame
	out chan decodeResult
}

type decodeResult struct {
	refs []mem.Ref
	err  error
}

// readerOutcome is the frame reader's final word: its error (nil on a
// clean trailer) after it has verified the trailer's totals itself.
type readerOutcome struct{ err error }

// runParallel replays a v2 trace with a decoder pool. The reader
// goroutine streams frames (verifying the running CRC and trailer), the
// pool decodes them concurrently, and the calling goroutine delivers
// decoded chunks strictly in frame order.
func (rp *Replayer) runParallel(ctx context.Context, emit emitFunc) (uint64, error) {
	nd := rp.decoders

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	work := make(chan *decodeJob, nd)
	order := make(chan *decodeJob, 2*nd)
	outcome := make(chan readerOutcome, 1)

	// Reader: frame headers and payloads are consumed sequentially (the
	// stream dictates it), but that is cheap — the varint decode and
	// decompression, where the time goes, happen in the pool.
	go func() {
		defer close(order)
		defer close(work)
		var (
			runCRC uint32
			total  uint64
		)
		for {
			j := &decodeJob{out: make(chan decodeResult, 1)}
			trailer, want, wantCRC, err := readFrame(rp.br, &j.f, nil)
			if err != nil {
				outcome <- readerOutcome{err}
				return
			}
			if trailer {
				switch {
				case want != total:
					err = fmt.Errorf("traceio: trailer claims %d refs, trace frames carry %d", want, total)
				case wantCRC != runCRC:
					err = fmt.Errorf("traceio: running CRC mismatch")
				}
				outcome <- readerOutcome{err}
				return
			}
			runCRC = crc32.Update(runCRC, crc32.IEEETable, j.f.payload)
			total += uint64(j.f.refs)
			select {
			case work <- j:
			case <-ctx.Done():
				outcome <- readerOutcome{interrupted(ctx, 0)}
				return
			}
			select {
			case order <- j:
			case <-ctx.Done():
				outcome <- readerOutcome{interrupted(ctx, 0)}
				return
			}
		}
	}()

	for i := 0; i < nd; i++ {
		go func() {
			var dec frameDecoder
			for j := range work {
				refs := make([]mem.Ref, 0, j.f.refs)
				t0 := time.Now()
				refs, err := dec.decode(&j.f, refs)
				rp.decNs.Add(int64(time.Since(t0)))
				j.out <- decodeResult{refs, err}
			}
		}()
	}

	// Delivery, on the calling goroutine, in frame order. On error we
	// cancel and keep draining order so the reader and pool shut down
	// without blocking.
	var (
		count uint64
		derr  error
	)
	for j := range order {
		res := <-j.out
		if derr != nil {
			continue
		}
		if res.err != nil {
			derr = res.err
			cancel()
			continue
		}
		if err := ctx.Err(); err != nil {
			derr = interrupted(ctx, count)
			cancel()
			continue
		}
		rp.frames++
		emit(res.refs, j.f.insnsAt)
		count += uint64(len(res.refs))
	}
	oc := <-outcome
	if derr == nil {
		derr = oc.err
	}
	if derr == nil && ctx.Err() != nil {
		derr = interrupted(ctx, count)
	}
	return count, derr
}

// SharedReplayer replays one v2 trace into a ChunkSink, decoding each
// frame exactly once no matter how many cache configurations the sink
// fans the chunk out to. It refuses v1 traces — they carry no frame
// stamps, so a shared replay could not reproduce snapshot clocks; a
// caller that must read v1 uses a Replayer. Like Replayer, it is
// single-shot.
type SharedReplayer struct {
	rp *Replayer
}

// NewSharedReplayer opens a v2 trace stream for decode-once replay.
func NewSharedReplayer(r io.Reader) (*SharedReplayer, error) {
	rp, err := NewReplayer(r)
	if err != nil {
		return nil, err
	}
	if rp.version != 2 {
		return nil, fmt.Errorf("traceio: shared replay requires a v2 trace (got format v%d)", rp.version)
	}
	return &SharedReplayer{rp: rp}, nil
}

// SetDecoders bounds the frame-decoding pool (see Replayer.SetDecoders).
func (s *SharedReplayer) SetDecoders(n int) { s.rp.SetDecoders(n) }

// Run replays the whole trace into sink, returning the number of
// references delivered. Chunks arrive strictly in frame order on the
// calling goroutine, each stamped with its recorded instruction clock.
func (s *SharedReplayer) Run(ctx context.Context, sink ChunkSink) (uint64, error) {
	return s.rp.run(ctx, sink.ChunkBatch)
}

// Frames returns the number of frames decoded and delivered so far —
// with the fused bank downstream, each counts as one decode serving the
// whole sweep.
func (s *SharedReplayer) Frames() uint64 { return s.rp.Frames() }

// DecodeSeconds reports cumulative frame-decode time (see
// Replayer.DecodeSeconds).
func (s *SharedReplayer) DecodeSeconds() float64 { return s.rp.DecodeSeconds() }

// Replay streams a trace from r into tracer, returning the number of
// references replayed. Both format versions are accepted. The context
// cancels the replay at the next frame boundary. Replay decodes inline;
// use a Replayer directly for pooled decoding of v2 traces.
func Replay(ctx context.Context, r io.Reader, tracer mem.Tracer) (uint64, error) {
	rp, err := NewReplayer(r)
	if err != nil {
		return 0, err
	}
	rp.SetDecoders(1)
	return rp.Run(ctx, tracer)
}
