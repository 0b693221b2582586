package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/gc"
	"gcsim/internal/workloads"
)

// Expected outputs, committed under perfbench/expected. The simulated
// statistics are deterministic, so every unit's output is checked against
// them; a mismatch fails the unit and counts as a failed operation.
//
//	replay-sweep.json  each program's run counts and per-config cache stats
//	paper-quick.sha256 the quick suite's report and metric lines, timing
//	                   lines removed
//	service-jobs.json  a digest of every result a generated job can ask
//	                   for: (program, scale, collector, config)
//
// perfbench -write-expected regenerates all three from live runs.

func expectedPath(root, name string) string {
	return filepath.Join(root, "perfbench", "expected", name)
}

// ---- replay-sweep ----------------------------------------------------

type expectedSweeps struct {
	Collector string                 `json:"collector"`
	Programs  map[string]sweepOutput `json:"programs"`
}

func loadExpectedSweeps(root string) (map[string]sweepOutput, error) {
	var e expectedSweeps
	if err := readJSON(expectedPath(root, "replay-sweep.json"), &e); err != nil {
		return nil, err
	}
	if e.Collector != replayCollector || len(e.Programs) != len(workloads.All()) {
		return nil, fmt.Errorf("expected replay-sweep outputs describe %d programs under %q, want %d under %q",
			len(e.Programs), e.Collector, len(workloads.All()), replayCollector)
	}
	return e.Programs, nil
}

// checkSweep compares a program's sweep with its expected output, field
// by field through their canonical JSON.
func checkSweep(name string, got, want sweepOutput) error {
	if len(want.Configs) == 0 {
		return fmt.Errorf("%s: no expected output", name)
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if bytes.Equal(g, w) {
		return nil
	}
	for cfg, ws := range want.Configs {
		if gs, ok := got.Configs[cfg]; !ok || gs != ws {
			return fmt.Errorf("%s %s: cache stats %+v, want %+v", name, cfg, gs, ws)
		}
	}
	return fmt.Errorf("%s: sweep output %s, want %s", name, g, w)
}

// checkSweepSubset checks a sweep over a subset of the reference configs
// (the set-up's one-config replay).
func checkSweepSubset(name string, got, want sweepOutput) error {
	sub := want
	sub.Configs = map[string]cache.Stats{}
	for cfg := range got.Configs {
		sub.Configs[cfg] = want.Configs[cfg]
	}
	return checkSweep(name, got, sub)
}

// ---- paper-quick -------------------------------------------------------

// timingLine matches gcbench's "(T1 completed in 0.2s)" lines, the only
// host-dependent lines of the suite's output.
func timingLine(line string) bool {
	return strings.HasPrefix(line, "(") && strings.Contains(line, " completed in ") && strings.HasSuffix(line, "s)")
}

// paperDigest is the sha256 of the suite's output without its timing
// lines.
func paperDigest(text []byte) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(string(text), "\n") {
		if !timingLine(strings.TrimSuffix(line, "\n")) {
			h.Write([]byte(line))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func loadExpectedPaperDigest(root string) (string, error) {
	b, err := os.ReadFile(expectedPath(root, "paper-quick.sha256"))
	if err != nil {
		return "", err
	}
	d := strings.TrimSpace(string(b))
	if len(d) != 64 {
		return "", fmt.Errorf("expected paper-quick digest %q is not a sha256", d)
	}
	return d, nil
}

// ---- service-jobs ------------------------------------------------------

// jobConfigOutput is one configuration of a job result, without the
// fields that describe how it was delivered (from_checkpoint).
type jobConfigOutput struct {
	Checksum   int64       `json:"checksum"`
	Insns      uint64      `json:"insns"`
	GCInsns    uint64      `json:"gc_insns"`
	GCStats    gc.Stats    `json:"gc_stats"`
	CacheStats cache.Stats `json:"cache_stats"`
}

// jobOutput is one configuration's result: the run's exact counts and the
// configuration's cache statistics.
func jobOutput(checksum int64, insns, gcInsns uint64, gcStats gc.Stats, cacheStats cache.Stats) jobConfigOutput {
	return jobConfigOutput{Checksum: checksum, Insns: insns, GCInsns: gcInsns, GCStats: gcStats, CacheStats: cacheStats}
}

func jobResultKey(program string, scale int, collector, config string) string {
	return fmt.Sprintf("%s/s%d/%s/%s", program, scale, collector, config)
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain data structs always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

type expectedJobs struct {
	Results map[string]string `json:"results"`
}

func loadExpectedJobs(root string) (map[string]string, error) {
	var e expectedJobs
	if err := readJSON(expectedPath(root, "service-jobs.json"), &e); err != nil {
		return nil, err
	}
	if len(e.Results) == 0 {
		return nil, fmt.Errorf("expected service-jobs results are empty")
	}
	return e.Results, nil
}

// ---- files -------------------------------------------------------------

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeExpectedFiles regenerates the expected outputs from live runs (no
// trace cache), so they pin the simulator, not the replay engine.
func writeExpectedFiles(ctx context.Context, root string) error {
	if err := os.MkdirAll(filepath.Dir(expectedPath(root, "x")), 0o755); err != nil {
		return err
	}
	sweeps := expectedSweeps{Collector: replayCollector, Programs: map[string]sweepOutput{}}
	for _, w := range workloads.All() {
		sw, err := core.RunSweep(ctx, w, w.DefaultScale, newCollector(replayCollector), sweepConfigs())
		if err != nil {
			return err
		}
		sweeps.Programs[w.Name] = sweepOutputOf(w.DefaultScale, sw)
	}
	if err := writeJSON(expectedPath(root, "replay-sweep.json"), sweeps); err != nil {
		return err
	}

	jobs := expectedJobs{Results: map[string]string{}}
	for _, p := range servicePrograms {
		w, err := workloads.ByName(p.name)
		if err != nil {
			return err
		}
		for _, colName := range serviceCollectors {
			sw, err := core.RunSweep(ctx, w, p.scale, newCollector(colName), serviceConfigs())
			if err != nil {
				return err
			}
			for cfg, st := range sw.Stats {
				jobs.Results[jobResultKey(p.name, p.scale, colName, cfg.String())] = digestJSON(
					jobOutput(sw.Run.Checksum, sw.Run.Insns, sw.Run.GCInsns, sw.Run.GCStats, st))
			}
		}
	}
	if err := writeJSON(expectedPath(root, "service-jobs.json"), jobs); err != nil {
		return err
	}

	pu, err := paperUnit(ctx)
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedPath(root, "paper-quick.sha256"), []byte(pu.Digest+"\n"), 0o644); err != nil {
		return err
	}
	keys := make([]string, 0, len(jobs.Results))
	for k := range jobs.Results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("wrote %d sweeps, %d job results (%s .. %s), paper digest %s\n",
		len(sweeps.Programs), len(keys), keys[0], keys[len(keys)-1], pu.Digest)
	return nil
}
