package main

import (
	"context"
	"fmt"
	"time"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/workloads"
)

// The replay-sweep workload: the ROADMAP's reference sweep over all five
// programs, replayed from an on-disk trace cache.

const replayCollector = "cheney"

// replayUnits is the least number of timed replay units per run.
const replayUnits = 2

// sweepConfigs is the reference sweep: {32k,64k,128k,256k} × {32,64}b,
// write-validate, in gcsim's report order.
func sweepConfigs() []cache.Config {
	var cfgs []cache.Config
	for _, size := range []int{32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		for _, block := range []int{32, 64} {
			cfgs = append(cfgs, cache.Config{SizeBytes: size, BlockBytes: block, Policy: cache.WriteValidate})
		}
	}
	return cfgs
}

func newCollector(name string) gc.Collector {
	col, err := gc.New(name, gc.Options{})
	if err != nil {
		panic(err) // names are constants of this file
	}
	return col
}

// sweepOutput is one program's sweep as the expected-output check sees
// it: the run's exact counts and every configuration's cache statistics.
type sweepOutput struct {
	Scale    int                    `json:"scale"`
	Checksum int64                  `json:"checksum"`
	Insns    uint64                 `json:"insns"`
	GCInsns  uint64                 `json:"gc_insns"`
	GCStats  gc.Stats               `json:"gc_stats"`
	Configs  map[string]cache.Stats `json:"configs"`
}

func sweepOutputOf(scale int, sw *core.SweepResult) sweepOutput {
	out := sweepOutput{
		Scale:    scale,
		Checksum: sw.Run.Checksum,
		Insns:    sw.Run.Insns,
		GCInsns:  sw.Run.GCInsns,
		GCStats:  sw.Run.GCStats,
		Configs:  map[string]cache.Stats{},
	}
	for cfg, st := range sw.Stats {
		out.Configs[cfg.String()] = st
	}
	return out
}

// replayUnitOutput is what one replay unit prints.
type replayUnitOutput struct {
	Programs []replayProgram `json:"programs"`
	Recorded uint64          `json:"recorded"`
}

type replayProgram struct {
	Name    string      `json:"name"`
	Seconds float64     `json:"seconds"`
	Output  sweepOutput `json:"output"`
}

// replayUnit is one timed unit: every program's sweep replayed from the
// primed trace cache in dir.
func replayUnit(ctx context.Context, dir string) (*replayUnitOutput, error) {
	tc, err := core.NewTraceCache(dir)
	if err != nil {
		return nil, err
	}
	core.SetTraceCache(tc)
	defer core.SetTraceCache(nil)
	cfgs := sweepConfigs()
	out := &replayUnitOutput{}
	for _, w := range workloads.All() {
		start := time.Now()
		sw, err := core.RunSweep(ctx, w, w.DefaultScale, newCollector(replayCollector), cfgs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		out.Programs = append(out.Programs, replayProgram{
			Name:    w.Name,
			Seconds: time.Since(start).Seconds(),
			Output:  sweepOutputOf(w.DefaultScale, sw),
		})
	}
	out.Recorded = tc.Stats().Recorded
	return out, nil
}

// primeTraceCache records every program's trace into dir. core records
// only on a sweep's first lookup, so each recording ends with a
// one-configuration replay of the fresh trace.
func primeTraceCache(ctx context.Context, dir string) (map[string]sweepOutput, error) {
	tc, err := core.NewTraceCache(dir)
	if err != nil {
		return nil, err
	}
	core.SetTraceCache(tc)
	defer core.SetTraceCache(nil)
	outs := map[string]sweepOutput{}
	for _, w := range workloads.All() {
		sw, err := core.RunSweep(ctx, w, w.DefaultScale, newCollector(replayCollector), sweepConfigs()[:1])
		if err != nil {
			return nil, fmt.Errorf("recording %s: %w", w.Name, err)
		}
		outs[w.Name] = sweepOutputOf(w.DefaultScale, sw)
	}
	if st := tc.Stats(); st.Recorded != uint64(len(outs)) {
		return nil, fmt.Errorf("set-up recorded %d traces, want %d", st.Recorded, len(outs))
	}
	return outs, nil
}

func replaySweep(ctx context.Context, o opts) (*outcome, error) {
	want, err := loadExpectedSweeps(o.root)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	dir := o.work + "/trace-cache"

	start := time.Now()
	primed, err := primeTraceCache(ctx, dir)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()
	for name, got := range primed {
		out.attempted++
		if err := checkSweepSubset(name, got, want[name]); err != nil {
			out.failed++
			out.problem("set-up: %v", err)
		}
	}

	var rss []float64
	var parts fastestParts
	err = timedUnits(o, replayUnits, func() error {
		var u replayUnitOutput
		run, err := runUnit(ctx, o, "replay", dir, 0, &u)
		if err != nil {
			return err
		}
		if u.Recorded != 0 {
			out.problem("a replay unit recorded %d traces; the set-up should have recorded them all", u.Recorded)
		}
		for _, p := range u.Programs {
			out.attempted++
			if err := checkSweep(p.Name, p.Output, want[p.Name]); err != nil {
				out.failed++
				out.problem("%v", err)
			}
			parts.add(p.Name, p.Seconds)
		}
		if len(u.Programs) != len(want) {
			out.problem("a replay unit swept %d programs, want %d", len(u.Programs), len(want))
		}
		rss = append(rss, run.maxRSS)
		return nil
	})
	if err != nil {
		return nil, err
	}
	setJobQuantiles(out, parts.times(), "program sweep")
	out.set("wall_s", "s", parts.total())
	out.set("setup_s", "s", setup)
	out.set("peak_rss_mb", "MB", median(rss))
	return out, nil
}
