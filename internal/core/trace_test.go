package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/report"
	"gcsim/internal/telemetry"
	"gcsim/internal/traceio"
	"gcsim/internal/vm"
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

// Telemetry equivalence: a cold sweep records its trace while simulating
// the live stream and yields one run record with source=record; the warm
// sweep replays it and yields one with source=replay. Both take periodic
// cache snapshots at the same instruction counts as a live sweep (the
// trace carries each chunk's clock stamp), so all three sets of cache
// records are equal.
func TestTraceCacheSnapshotAndProvenance(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := gcSweepConfigs()[:2]
	setParallelismForTest(t, 1)

	record := func(pass string) *telemetry.RunRecord {
		sess := telemetry.NewSession("test", 1)
		sess.SnapshotInsns = 200_000
		EnableTelemetry(sess)
		defer EnableTelemetry(nil)
		if _, err := RunSweep(context.Background(), w, w.SmallScale, gc.NewCheney(256<<10), cfgs); err != nil {
			t.Fatal(err)
		}
		recs := sess.Records()
		if len(recs) != 1 {
			t.Fatalf("%s: %d records, want 1", pass, len(recs))
		}
		data, err := json.Marshal(recs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateRecordJSON(data); err != nil {
			t.Errorf("%s record fails schema validation: %v", pass, err)
		}
		return recs[0]
	}

	SetTraceCache(nil)
	live := record("live")
	if live.Trace != nil {
		t.Errorf("live record has trace provenance %+v, want none", live.Trace)
	}

	installTraceCache(t)
	cold := record("cold")
	warm := record("warm")
	if cold.Trace == nil || cold.Trace.Source != "record" {
		t.Fatalf("cold sweep provenance = %+v, want source=record", cold.Trace)
	}
	if warm.Trace == nil || warm.Trace.Source != "replay" {
		t.Fatalf("warm sweep provenance = %+v, want source=replay", warm.Trace)
	}
	if cold.Trace.SHA256 == "" || cold.Trace.SHA256 != warm.Trace.SHA256 {
		t.Errorf("trace hashes: record %q vs replay %q", cold.Trace.SHA256, warm.Trace.SHA256)
	}
	if warm.Trace.Refs == 0 || warm.Trace.Refs != cold.Trace.Refs {
		t.Errorf("trace ref counts: record %d vs replay %d", cold.Trace.Refs, warm.Trace.Refs)
	}

	// Caches with their snapshots: identical insns_at sequences and
	// statistics, cache by cache.
	for pass, rec := range map[string]*telemetry.RunRecord{"cold": cold, "warm": warm} {
		if len(rec.Caches) != len(live.Caches) {
			t.Fatalf("%s sweep has %d cache records, live %d", pass, len(rec.Caches), len(live.Caches))
		}
		for i, lc := range live.Caches {
			if len(lc.Snapshots) < 2 {
				t.Fatalf("%s: %d snapshots; equivalence is vacuous", lc.Config.Name, len(lc.Snapshots))
			}
			if !reflect.DeepEqual(lc, rec.Caches[i]) {
				t.Errorf("cache record %d (%s) differs between live and %s:\nlive: %+v\n%s: %+v",
					i, lc.Config.Name, pass, lc, pass, rec.Caches[i])
			}
		}
	}
}

// Cold, warm and live sweeps are one engine seen three ways. At every
// parallelism, for a one-config and an eight-config sweep, a cold sweep
// (recorded while simulated), a warm replay of the same key and a live
// sweep with no trace cache give identical statistics, snapshots and
// rendered reports. The cold blob is byte-identical to a synchronous
// BatchWriter capture of the same run, and the cold and warm sweeps
// together run the VM exactly once.
func TestColdSweepMatchesWarmAndLive(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	mkCol := func() gc.Collector { return gc.NewCheney(256 << 10) }

	// The reference capture: the engine's pre-pipelining recording, a
	// BatchWriter on the VM goroutine stamped by the machine's clock.
	h := sha256.New()
	bw, err := traceio.NewBatchWriter(h, traceio.WriterOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), RunSpec{Workload: w, Scale: w.SmallScale, Collector: mkCol(), Tracer: bw,
		OnMachine: func(m *vm.Machine) { bw.SetClock(m.Insns) }}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	wantSHA := hex.EncodeToString(h.Sum(nil))

	type swept struct {
		sw     *SweepResult
		rec    *telemetry.RunRecord
		report string
	}

	for _, par := range []int{1, 2, 4} {
		setParallelismForTest(t, par)
		for _, cfgs := range [][]cache.Config{gcSweepConfigs()[:1], gcSweepConfigs()} {
			run := func(pass string) swept {
				sess := telemetry.NewSession("test", par)
				sess.SnapshotInsns = 200_000
				EnableTelemetry(sess)
				defer EnableTelemetry(nil)
				sw, err := RunSweep(context.Background(), w, w.SmallScale, mkCol(), cfgs)
				if err != nil {
					t.Fatalf("par=%d configs=%d %s: %v", par, len(cfgs), pass, err)
				}
				recs := sess.Records()
				if len(recs) != 1 {
					t.Fatalf("par=%d configs=%d %s: %d records, want 1", par, len(cfgs), pass, len(recs))
				}
				var out bytes.Buffer
				report.Render(&out, report.Run{Name: w.Name, Collector: sw.Run.Collector, GCStats: sw.Run.GCStats,
					Checksum: sw.Run.Checksum, Insns: sw.Run.Insns, GCInsns: sw.Run.GCInsns}, sw.Bank.Caches, true)
				return swept{sw, recs[0], out.String()}
			}

			SetTraceCache(nil)
			live := run("live")
			tc := installTraceCache(t)
			before := VMRunsStarted()
			cold := run("cold")
			warm := run("warm")
			SetTraceCache(nil)
			if got := VMRunsStarted() - before; got != 1 {
				t.Errorf("par=%d configs=%d: cold+warm started %d VM runs, want 1", par, len(cfgs), got)
			}
			if st := tc.Stats(); st.Recorded != 1 || st.Hits != 1 {
				t.Errorf("par=%d configs=%d: trace cache stats %+v, want one recording and one hit", par, len(cfgs), st)
			}
			if cold.rec.Trace == nil || cold.rec.Trace.Source != "record" || cold.rec.Trace.SHA256 != wantSHA {
				t.Errorf("par=%d configs=%d: cold provenance %+v, want source=record sha256=%s", par, len(cfgs), cold.rec.Trace, wantSHA)
			}
			if warm.rec.Trace == nil || warm.rec.Trace.Source != "replay" {
				t.Errorf("par=%d configs=%d: warm provenance %+v, want source=replay", par, len(cfgs), warm.rec.Trace)
			}
			for pass, got := range map[string]swept{"cold": cold, "warm": warm} {
				if !reflect.DeepEqual(got.sw.Stats, live.sw.Stats) {
					t.Errorf("par=%d configs=%d %s: stats differ from live", par, len(cfgs), pass)
				}
				for i, lc := range live.sw.Bank.Caches {
					ls, gs := lc.Snapshots(), got.sw.Bank.Caches[i].Snapshots()
					if len(ls) < 2 {
						t.Fatalf("%v: %d snapshots; equivalence is vacuous", lc.Config(), len(ls))
					}
					if !reflect.DeepEqual(ls, gs) {
						t.Errorf("par=%d configs=%d %s, %v: snapshots differ from live", par, len(cfgs), pass, lc.Config())
					}
				}
				if !reflect.DeepEqual(got.rec.Caches, live.rec.Caches) {
					t.Errorf("par=%d configs=%d %s: cache records differ from live", par, len(cfgs), pass)
				}
				if got.report != live.report {
					t.Errorf("par=%d configs=%d %s: report differs from live:\n%s\nvs\n%s", par, len(cfgs), pass, got.report, live.report)
				}
			}
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
