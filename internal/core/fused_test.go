package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcsim/internal/gc"
	"gcsim/internal/workloads"
)

// The /metrics counters behind the fused path are process-wide, so the
// test asserts deltas. A cold sweep records its trace while simulating
// the live stream and is not a replay; the next sweep over the same key
// is a fused replay that decodes every frame once.
func TestFusedReplayCounters(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	setParallelismForTest(t, 1)
	tc := installTraceCache(t)

	sweep := func(pass string) (fusedSweeps, frames uint64) {
		before := FusedStats()
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatalf("%s sweep: %v", pass, err)
		}
		after := FusedStats()
		return after.FusedSweeps - before.FusedSweeps, after.DecodeOnceFrames - before.DecodeOnceFrames
	}

	if n, frames := sweep("cold"); n != 0 || frames != 0 {
		t.Errorf("cold sweep: %d fused replays, %d frames decoded, want none (it simulates while recording)", n, frames)
	}
	if got := tc.Stats().Recorded; got != 1 {
		t.Errorf("cold sweep recorded %d traces, want 1", got)
	}
	if n, frames := sweep("warm"); n != 1 || frames == 0 {
		t.Errorf("warm sweep: %d fused replays, %d frames decoded, want 1 replay decoding every frame", n, frames)
	}
	if got := tc.Stats().Recorded; got != 1 {
		t.Errorf("warm sweep re-recorded: %d traces recorded, want 1", got)
	}
}

// The trace cache holds only v2 traces: its identity includes the code
// shape version, so no lookup can reach a v1 blob, and replay has no v1
// path. A sidecar pointing at a v1 blob (a corrupt or tampered entry)
// must fail loudly, naming the blob, rather than replay through anything
// else.
func TestReplayRejectsV1Blob(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	tc := installTraceCache(t)
	ctx := context.Background()
	if _, err := RunSweep(ctx, w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
		t.Fatalf("priming sweep: %v", err)
	}

	// A format-v1 trace: its magic, then one flat record (flag byte,
	// zigzag-varint address delta).
	v1 := []byte("GCSIMTRACE1\n\x00\x80\x40")
	id, err := tc.LocalBlobs().Post(ctx, v1)
	if err != nil {
		t.Fatal(err)
	}
	sidecars, err := filepath.Glob(filepath.Join(tc.Dir(), "*.json"))
	if err != nil || len(sidecars) != 1 {
		t.Fatalf("want one sidecar after priming, got %v (%v)", sidecars, err)
	}
	key := strings.TrimSuffix(filepath.Base(sidecars[0]), ".json")
	idx := &dirTraceIndex{dir: tc.Dir()}
	meta, err := idx.Load(key)
	if err != nil || meta == nil {
		t.Fatalf("load sidecar: %v", err)
	}
	meta.SHA256 = id.String()
	if err := idx.Save(key, meta); err != nil {
		t.Fatal(err)
	}

	before := FusedStats()
	_, err = RunSweep(ctx, w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
	if err == nil {
		t.Fatal("replay of a v1 blob succeeded")
	}
	if !strings.Contains(err.Error(), id.String()) || !strings.Contains(err.Error(), "v2") {
		t.Errorf("error does not name the v1 blob and the required format: %v", err)
	}
	if got := FusedStats().FusedSweeps - before.FusedSweeps; got != 0 {
		t.Errorf("a rejected blob counted as %d replayed sweeps", got)
	}
	if _, err := os.Stat(sidecars[0]); err != nil {
		t.Errorf("the corrupt entry was removed instead of reported: %v", err)
	}
}
