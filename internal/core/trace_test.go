package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/telemetry"
	"gcsim/internal/workloads"
)

// installTraceCache points the engine at a fresh cache directory for the
// duration of the test.
func installTraceCache(t *testing.T) *TraceCache {
	t.Helper()
	tc, err := NewTraceCache(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	SetTraceCache(tc)
	t.Cleanup(func() { SetTraceCache(nil) })
	return tc
}

func setParallelismForTest(t *testing.T, n int) {
	t.Helper()
	old := Parallelism()
	SetParallelism(n)
	t.Cleanup(func() { SetParallelism(old) })
}

// Golden equivalence: a sweep driven by a recorded-then-replayed trace
// must be indistinguishable from a live sweep — bitwise-identical cache
// statistics and identical run-level results — for both the serial bank
// (parallelism 1) and the parallel bank.
func TestTraceCacheSweepMatchesLive(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()

	for _, par := range []int{1, 4} {
		setParallelismForTest(t, par)

		SetTraceCache(nil)
		live, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
		if err != nil {
			t.Fatal(err)
		}

		installTraceCache(t)
		// First trace-cached sweep records (one VM run) then replays;
		// the second replays from the cache alone.
		for _, pass := range []string{"record+replay", "pure replay"} {
			sw, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, pass, err)
			}
			if !reflect.DeepEqual(sw.Stats, live.Stats) {
				t.Errorf("par=%d %s: cache stats differ from live sweep", par, pass)
			}
			lr, rr := live.Run, sw.Run
			if rr.Checksum != lr.Checksum || rr.Insns != lr.Insns || rr.GCInsns != lr.GCInsns ||
				rr.Collector != lr.Collector || rr.Workload != lr.Workload {
				t.Errorf("par=%d %s: run results differ:\nlive:   %+v\nreplay: %+v", par, pass, lr, rr)
			}
			if rr.GCStats != lr.GCStats {
				t.Errorf("par=%d %s: GC stats differ", par, pass)
			}
			if rr.Counters != lr.Counters {
				t.Errorf("par=%d %s: memory counters differ", par, pass)
			}
		}
		SetTraceCache(nil)
	}
}

// The headline acceptance property: with a trace cache installed, a
// per-config resilient sweep over N configurations executes the VM exactly
// once — every configuration beyond the recording replays the trace.
func TestTraceCachePerConfigSweepRunsVMOnce(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	if len(cfgs) < 4 {
		t.Fatalf("want a multi-config sweep, got %d", len(cfgs))
	}
	setParallelismForTest(t, 4)

	SetTraceCache(nil)
	live, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
	if err != nil {
		t.Fatal(err)
	}

	installTraceCache(t)
	before := VMRunsStarted()
	sweep, err := RunSweepPerConfig(context.Background(), w, w.SmallScale, cfgs, PerConfigSweepOpts{
		MakeCollector: func() gc.Collector { return gc.NewCheney(256 << 10) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := VMRunsStarted() - before; got != 1 {
		t.Errorf("per-config sweep started %d VM runs, want exactly 1", got)
	}
	if len(sweep.Results) != len(cfgs) {
		t.Fatalf("%d results, want %d", len(sweep.Results), len(cfgs))
	}
	for _, r := range sweep.Results {
		if r.CacheStats != live.Stats[r.Config] {
			t.Errorf("config %s: replayed stats differ from live", r.Config)
		}
		if r.Checksum != live.Run.Checksum || r.Insns != live.Run.Insns || r.GCInsns != live.Run.GCInsns {
			t.Errorf("config %s: run results differ from live", r.Config)
		}
	}
}

// Telemetry equivalence: replayed sweeps take periodic cache snapshots at
// the same instruction counts as live ones (the trace carries each chunk's
// clock stamp), and the run record carries trace provenance.
func TestTraceCacheSnapshotAndProvenance(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()[:2]
	setParallelismForTest(t, 1)

	record := func() []*telemetry.RunRecord {
		sess := telemetry.NewSession("test", 1)
		sess.SnapshotInsns = 200_000
		EnableTelemetry(sess)
		defer EnableTelemetry(nil)
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatal(err)
		}
		return sess.Records()
	}

	SetTraceCache(nil)
	liveRecs := record()
	if len(liveRecs) != 1 {
		t.Fatalf("live: %d records, want 1", len(liveRecs))
	}
	if liveRecs[0].Trace != nil {
		t.Errorf("live record has trace provenance %+v, want none", liveRecs[0].Trace)
	}

	installTraceCache(t)
	recordRecs := record() // recording run + replayed sweep
	if len(recordRecs) != 2 {
		t.Fatalf("record pass: %d records, want 2 (recording run + replay)", len(recordRecs))
	}
	rec, rep := recordRecs[0], recordRecs[1]
	if rec.Trace == nil || rec.Trace.Source != "record" {
		t.Fatalf("recording run provenance = %+v, want source=record", rec.Trace)
	}
	if rep.Trace == nil || rep.Trace.Source != "replay" {
		t.Fatalf("replayed run provenance = %+v, want source=replay", rep.Trace)
	}
	if rec.Trace.SHA256 == "" || rec.Trace.SHA256 != rep.Trace.SHA256 {
		t.Errorf("trace hashes: record %q vs replay %q", rec.Trace.SHA256, rep.Trace.SHA256)
	}
	if rep.Trace.Refs == 0 || rep.Trace.Refs != rec.Trace.Refs {
		t.Errorf("trace ref counts: record %d vs replay %d", rec.Trace.Refs, rep.Trace.Refs)
	}

	// Snapshots: identical insns_at sequences, cache by cache.
	if len(rep.Caches) != len(liveRecs[0].Caches) {
		t.Fatalf("replay has %d cache records, live %d", len(rep.Caches), len(liveRecs[0].Caches))
	}
	for i, lc := range liveRecs[0].Caches {
		rc := rep.Caches[i]
		if !reflect.DeepEqual(lc, rc) {
			t.Errorf("cache record %d (%s) differs between live and replay:\nlive:   %+v\nreplay: %+v",
				i, lc.Config.Name, lc, rc)
		}
	}

	// The record is still schema-valid with the trace block attached.
	for _, r := range recordRecs {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateRecordJSON(data); err != nil {
			t.Errorf("record fails schema validation: %v", err)
		}
	}
}

// Sharded replay equivalence: one primed trace replayed with the sweep
// bank inline (parallelism 1) and sharded over 2 and 4 workers gives
// bitwise-identical cache statistics, periodic snapshots at the same
// insns_at values, cache records and rendered report.
func TestShardedReplayMatchesInline(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()
	tc := installTraceCache(t)
	setParallelismForTest(t, 1)
	if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
		t.Fatalf("priming sweep: %v", err)
	}

	type replayed struct {
		sw     *SweepResult
		rec    *telemetry.RunRecord
		report string
	}
	replay := func(par int) replayed {
		setParallelismForTest(t, par)
		sess := telemetry.NewSession("test", par)
		sess.SnapshotInsns = 200_000
		EnableTelemetry(sess)
		defer EnableTelemetry(nil)
		spans := telemetry.NewSpanRecorder(0)
		SetSpans(spans)
		defer SetSpans(nil)
		sw, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		// The replay span names the bank's worker count, and the
		// simulate stage is timed on the sharded path too.
		var workers string
		var simulate int64
		for _, sp := range spans.Spans() {
			switch sp.Name {
			case telemetry.StageReplay:
				workers = sp.Attrs["workers"]
			case telemetry.StageSimulate:
				simulate = sp.DurationNanos
			}
		}
		if want := fmt.Sprint(min(par, len(cfgs))); workers != want {
			t.Errorf("parallelism %d: replay span workers=%q, want %s", par, workers, want)
		}
		if simulate <= 0 {
			t.Errorf("parallelism %d: replay reported no simulate time", par)
		}
		recs := sess.Records()
		if len(recs) != 1 || recs[0].Trace == nil || recs[0].Trace.Source != "replay" {
			t.Fatalf("parallelism %d: want one replay record, got %d", par, len(recs))
		}
		var out bytes.Buffer
		report.Render(&out, report.Run{Name: w.Name, Collector: sw.Run.Collector, GCStats: sw.Run.GCStats,
			Checksum: sw.Run.Checksum, Insns: sw.Run.Insns, GCInsns: sw.Run.GCInsns}, sw.Bank.Caches, true)
		return replayed{sw, recs[0], out.String()}
	}

	inline := replay(1)
	for _, par := range []int{2, 4} {
		got := replay(par)
		for i, ic := range inline.sw.Bank.Caches {
			sc := got.sw.Bank.Caches[i]
			if ic.S != sc.S {
				t.Errorf("parallelism %d, %v: stats %+v != inline %+v", par, ic.Config(), sc.S, ic.S)
			}
			is, gs := ic.Snapshots(), sc.Snapshots()
			if len(is) < 2 {
				t.Fatalf("%v: %d snapshots; equivalence is vacuous", ic.Config(), len(is))
			}
			if !reflect.DeepEqual(is, gs) {
				t.Errorf("parallelism %d, %v: snapshots differ from inline", par, ic.Config())
			}
		}
		if !reflect.DeepEqual(inline.rec.Caches, got.rec.Caches) {
			t.Errorf("parallelism %d: cache records differ from inline", par)
		}
		if got.report != inline.report {
			t.Errorf("parallelism %d: report differs from inline:\n%s\nvs\n%s", par, got.report, inline.report)
		}
	}
	if n := tc.Stats().Recorded; n != 1 {
		t.Errorf("%d traces recorded, want 1 (every sweep after the first replays)", n)
	}
}
