package core

import (
	"fmt"
	"io"

	"gcsim/internal/mem"
	"gcsim/internal/traceio"
)

// recordRing is the number of chunks in flight between the VM goroutine
// and the trace writer goroutine: deep enough to absorb a slow frame
// write (a flush of the 1 MiB write buffer, a hashed disk write) without
// stalling the VM, shallow enough that the copies stay cache-resident.
const recordRing = 8

// recChunk is one copied chunk of the reference stream on its way to the
// writer, stamped with the machine's instruction count at publish time.
type recChunk struct {
	refs    []mem.Ref
	insnsAt uint64
}

// pipedWriter records a trace off the VM goroutine. The VM goroutine
// copies each chunk into a free ring slot, stamped with the clock, and
// moves on; one writer goroutine feeds the slots, in order, to a
// traceio.BatchWriter, so encoding, CRCs, buffering and whatever the
// underlying io.Writer does (hashing, the blob file write) overlap the
// VM and the cache simulation. The bytes are those of a BatchWriter
// installed directly on the machine: same frames, same stamps.
//
// Like a BatchWriter it is single-producer. Close completes the trace;
// stop abandons it. Both wait for the writer goroutine to exit.
type pipedWriter struct {
	bw    *traceio.BatchWriter
	clock func() uint64

	free chan *recChunk
	work chan *recChunk
	done chan struct{} // closed when the writer goroutine exits

	stamp   uint64 // stamp of the chunk being written; writer goroutine only
	werr    error  // writer goroutine panic, read after done
	stopped bool
}

// newPipedWriter starts a format-v2 trace on w and its writer goroutine.
func newPipedWriter(w io.Writer) (*pipedWriter, error) {
	bw, err := traceio.NewBatchWriter(w, traceio.WriterOpts{})
	if err != nil {
		return nil, err
	}
	p := &pipedWriter{
		bw:   bw,
		free: make(chan *recChunk, recordRing),
		work: make(chan *recChunk, recordRing),
		done: make(chan struct{}),
	}
	for i := 0; i < recordRing; i++ {
		p.free <- &recChunk{refs: make([]mem.Ref, 0, mem.ChunkRefs)}
	}
	bw.SetClock(func() uint64 { return p.stamp })
	go p.write()
	return p, nil
}

// SetClock installs the instruction clock read as each chunk is
// published (see traceio.BatchWriter.SetClock). Must be set before the
// first reference.
func (p *pipedWriter) SetClock(clock func() uint64) { p.clock = clock }

// Count returns the number of references written. Read it after Close.
func (p *pipedWriter) Count() uint64 { return p.bw.Count() }

// RefBatch implements mem.BatchTracer: the chunk is copied, stamped and
// queued; the VM blocks only when every ring slot is still queued.
func (p *pipedWriter) RefBatch(refs []mem.Ref) {
	if len(refs) == 0 {
		return
	}
	ck := <-p.free
	ck.refs = append(ck.refs[:0], refs...)
	ck.insnsAt = 0
	if p.clock != nil {
		ck.insnsAt = p.clock()
	}
	p.work <- ck // never blocks: the ring holds recordRing chunks in all
}

// Ref implements mem.Tracer as a one-reference chunk. The machine
// publishes whole chunks through RefBatch whenever its tracer is
// batch-capable, as the MultiTracer a recording installs is.
func (p *pipedWriter) Ref(addr uint64, write, collector bool) {
	p.RefBatch([]mem.Ref{mem.MakeRef(addr, write, collector)})
}

// write is the writer goroutine. It recycles every chunk, also after a
// panic, so the producer never blocks on it.
func (p *pipedWriter) write() {
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			p.werr = fmt.Errorf("core: trace writer panicked: %v", r)
			for ck := range p.work {
				p.free <- ck
			}
		}
	}()
	for ck := range p.work {
		p.stamp = ck.insnsAt
		p.bw.RefBatch(ck.refs)
		p.free <- ck
	}
}

// stop closes the queue and waits for the writer goroutine to write what
// is queued and exit. Alone it abandons the trace: the caller discards
// its destination. It is idempotent.
func (p *pipedWriter) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	close(p.work)
	<-p.done
}

// Close waits for the writer to finish every queued chunk and completes
// the trace (trailer and flush). The trace is complete only if Close
// returns nil.
func (p *pipedWriter) Close() error {
	p.stop()
	if p.werr != nil {
		return p.werr
	}
	return p.bw.Close()
}

var _ mem.BatchTracer = (*pipedWriter)(nil)
