package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gcsim/internal/analysis"
	"gcsim/internal/cache"
	"gcsim/internal/gc"
	"gcsim/internal/mem"
	"gcsim/internal/vm"
	"gcsim/internal/workloads"
)

// goldenConfigs is an 8-configuration sweep, the acceptance shape for
// serial/parallel equivalence.
func goldenConfigs() []cache.Config {
	return gcSweepConfigs()
}

// TestParallelBankGoldenEquivalence runs a real workload (with a real
// collector, so collector-mode references flow through the pipeline too)
// against the serial bank and a three-worker fused bank, and requires bitwise
// identical Stats and identical MissEvent sequences for every cache.
func TestParallelBankGoldenEquivalence(t *testing.T) {
	w, err := workloads.ByName("tc")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := goldenConfigs()
	if len(cfgs) < 8 {
		t.Fatalf("golden sweep has %d configs, want >= 8", len(cfgs))
	}

	serial := cache.NewBank(cfgs)
	serialEvents := make([][]cache.MissEvent, len(cfgs))
	for i, c := range serial.Caches {
		i := i
		c.OnMiss(func(e cache.MissEvent) { serialEvents[i] = append(serialEvents[i], e) })
	}
	sRun, err := Run(context.Background(), RunSpec{Workload: w, Scale: w.SmallScale,
		Collector: gc.NewCheney(256 << 10), Tracer: serial})
	if err != nil {
		t.Fatal(err)
	}

	par := cache.NewFusedBankWorkers(cfgs, 3)
	parEvents := make([][]cache.MissEvent, len(cfgs))
	for i, c := range par.Caches {
		i := i
		// Runs on cache i's worker goroutine; read only after Drain.
		c.OnMiss(func(e cache.MissEvent) { parEvents[i] = append(parEvents[i], e) })
	}
	pRun, err := Run(context.Background(), RunSpec{Workload: w, Scale: w.SmallScale,
		Collector: gc.NewCheney(256 << 10), Tracer: par})
	par.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if sRun.Checksum != pRun.Checksum || sRun.Counters != pRun.Counters {
		t.Fatalf("runs diverged before the caches: checksums %d/%d, counters %+v/%+v",
			sRun.Checksum, pRun.Checksum, sRun.Counters, pRun.Counters)
	}
	for i, sc := range serial.Caches {
		pc := par.Caches[i]
		if sc.S != pc.S {
			t.Errorf("config %v: serial stats != parallel stats\n  serial:   %+v\n  parallel: %+v",
				sc.Config(), sc.S, pc.S)
		}
		if sc.S.Misses() == 0 {
			t.Errorf("config %v saw no misses; equivalence is vacuous", sc.Config())
		}
		if len(serialEvents[i]) != len(parEvents[i]) {
			t.Errorf("config %v: %d serial miss events vs %d parallel",
				sc.Config(), len(serialEvents[i]), len(parEvents[i]))
			continue
		}
		for j, se := range serialEvents[i] {
			if se != parEvents[i][j] {
				t.Errorf("config %v: miss event %d differs: %+v vs %+v",
					sc.Config(), j, se, parEvents[i][j])
				break
			}
		}
	}
}

// TestRunSweepParallelMatchesSerial checks that RunSweep produces the
// same statistics whether the parallel pipeline is enabled or not.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	w, err := workloads.ByName("prover")
	if err != nil {
		t.Fatal(err)
	}
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	serial, err := RunSweep(context.Background(), w, w.SmallScale, nil, goldenConfigs())
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := RunSweep(context.Background(), w, w.SmallScale, nil, goldenConfigs())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Stats, par.Stats) {
		t.Fatalf("sweep stats differ:\nserial:   %+v\nparallel: %+v", serial.Stats, par.Stats)
	}
}

// perRefTracer hides a tracer's batch capability, forcing Memory onto the
// synchronous per-reference path.
type perRefTracer struct{ t mem.Tracer }

func (p perRefTracer) Ref(addr uint64, write, collector bool) { p.t.Ref(addr, write, collector) }

// TestBehaviourBatchMatchesPerRef validates the pipeline's ordering
// guarantee around allocation events: the chunked Behaviour run must
// produce exactly the per-ref analyzer's report.
func TestBehaviourBatchMatchesPerRef(t *testing.T) {
	w, err := workloads.ByName("nbody")
	if err != nil {
		t.Fatal(err)
	}
	batched := analysis.New(64<<10, 64)
	if _, err := Run(context.Background(), RunSpec{Workload: w, Scale: w.SmallScale, Behaviour: batched}); err != nil {
		t.Fatal(err)
	}

	// Replicate Run's wiring by hand, but hide the analyzer's batch
	// capability behind a per-ref wrapper so Memory takes the old
	// synchronous path.
	perRef := analysis.New(64<<10, 64)
	m := vm.NewLoaded(perRefTracer{t: perRef}, nil)
	m.MaxInsns = maxRunInsns
	m.OnAlloc = perRef.OnAlloc
	if _, err := w.Run(m, w.SmallScale); err != nil {
		t.Fatal(err)
	}

	if batched.TotalRefs() != perRef.TotalRefs() {
		t.Fatalf("total refs differ: batched %d vs per-ref %d",
			batched.TotalRefs(), perRef.TotalRefs())
	}
	if !reflect.DeepEqual(batched.Summarize(), perRef.Summarize()) {
		t.Fatalf("behaviour reports differ between batched and per-ref pipelines")
	}
}

func TestForEachParBoundsAndErrors(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(3)
	wantErr := errors.New("boom")
	got := forEachPar(context.Background(), 8, func(i int) error {
		if i == 5 {
			return wantErr
		}
		return nil
	})
	if got != wantErr {
		t.Fatalf("forEachPar error = %v, want %v", got, wantErr)
	}

	SetParallelism(1)
	order := []int{}
	if err := forEachPar(context.Background(), 4, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("serial forEachPar order = %v", order)
	}

	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(1)", Parallelism())
	}
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatalf("SetParallelism(0) must clamp to 1, got %d", Parallelism())
	}
}
