package core

import "sync/atomic"

// Process-wide fused-replay counters, exported by gcsimd's /metrics next
// to the trace-cache hit rate: together they show how many sweeps were
// replayed and how many frame decodes were shared across a whole sweep's
// configurations.
var (
	fusedSweepCount  atomic.Uint64
	decodeOnceFrames atomic.Uint64
)

// FusedReplayStats counts this process's replayed sweeps.
type FusedReplayStats struct {
	// FusedSweeps is the number of replayed sweeps that decoded the trace
	// once and fanned each chunk out to every configuration.
	FusedSweeps uint64 `json:"fused_sweeps"`
	// DecodeOnceFrames is the total number of trace frames decoded on the
	// fused path — each decoded exactly once for the whole sweep.
	DecodeOnceFrames uint64 `json:"decode_once_frames"`
}

// FusedStats returns the fused-replay counters accumulated so far.
func FusedStats() FusedReplayStats {
	return FusedReplayStats{
		FusedSweeps:      fusedSweepCount.Load(),
		DecodeOnceFrames: decodeOnceFrames.Load(),
	}
}
