package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcsim/internal/gc"
	"gcsim/internal/traceio"
	"gcsim/internal/workloads"
)

// The /metrics counters behind the fused path are process-wide, so the
// test asserts deltas: every trace-cached sweep takes the fused path and
// decodes at least one frame.
func TestFusedReplayCounters(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	setParallelismForTest(t, 1)
	installTraceCache(t)

	before := FusedStats()
	// First sweep records then replays; the second replays from the cache
	// alone. Both replays must take the fused path.
	for pass := 0; pass < 2; pass++ {
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	after := FusedStats()

	if got := after.FusedSweeps - before.FusedSweeps; got != 2 {
		t.Errorf("fused sweeps: got %d, want 2", got)
	}
	if got := after.DecodeOnceFrames - before.DecodeOnceFrames; got == 0 {
		t.Error("decode-once frames did not advance across two fused sweeps")
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

	var v1 bytes.Buffer
	tw, err := traceio.NewWriter(&v1)
	if err != nil {
		t.Fatal(err)
	}
	tw.Ref(0x1000, false, false)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	id, err := tc.LocalBlobs().Post(ctx, v1.Bytes())
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
