// Package traceio captures and replays reference traces, supporting the
// paper's methodology — trace-driven cache simulation — without re-running
// the virtual machine. A BatchWriter records every reference a Memory
// emits in format v2, one self-contained frame per chunk (see
// format2.go); a trace can later be replayed into any tracer (a cache, a
// bank, a behaviour analyzer) with Replay or a Replayer, or into a
// ChunkSink with a SharedReplayer. Format v2 is the only format: the
// flat per-reference v1 format of earlier versions is no longer read or
// written.
package traceio
