package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gcsim/internal/cache"
	"gcsim/internal/core"
	"gcsim/internal/workloads"
)

// flipDigits calls fn with a copy of b for every position holding a
// decimal digit, that digit replaced by another one.
func flipDigits(b []byte, fn func(pos int, flipped []byte)) {
	for i, c := range b {
		if c < '0' || c > '9' {
			continue
		}
		f := append([]byte(nil), b...)
		f[i] = '0' + (c-'0'+1)%10
		fn(i, f)
	}
}

func TestSweepCheckCatchesOneFlippedByte(t *testing.T) {
	want, err := loadExpectedSweeps("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tc", "nbody"} {
		w := want[name]
		if err := checkSweep(name, w, w); err != nil {
			t.Fatalf("%s: the expected output fails its own check: %v", name, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		flips := 0
		flipDigits(b, func(pos int, f []byte) {
			var got sweepOutput
			if json.Unmarshal(f, &got) != nil {
				return
			}
			flips++
			if checkSweep(name, got, w) == nil {
				t.Errorf("%s: flipping byte %d (%s) passed the check", name, pos, f[max(0, pos-20):pos+1])
			}
		})
		if flips < 100 {
			t.Fatalf("%s: only %d flips tried", name, flips)
		}
	}
}

func TestPaperDigestCatchesOneFlippedByte(t *testing.T) {
	text := []byte("==== T1: Section 3: test program characteristics ====\n" +
		"program  insns\ntc       97812794\n\n" +
		"metric T1.tc.insns = 9.7812794e+07\n" +
		"(T1 completed in 0.2s)\n\n")
	want := paperDigest(text)
	tStart := strings.Index(string(text), "(T1 completed")
	tEnd := tStart + strings.IndexByte(string(text[tStart:]), '\n')
	for i := range text {
		if i >= tStart && i < tEnd {
			continue // the timing line is host-dependent and left out
		}
		f := append([]byte(nil), text...)
		f[i] ^= 0x01
		if paperDigest(f) == want {
			t.Errorf("flipping byte %d (%q) left the digest unchanged", i, text[i])
		}
	}
	timing := strings.Replace(string(text), "0.2s", "13.7s", 1)
	if paperDigest([]byte(timing)) != want {
		t.Error("a different timing line changed the digest")
	}
}

func TestJobCheckCatchesOneFlippedByte(t *testing.T) {
	want, err := loadExpectedJobs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec := jobList(1, 1)[0]
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := spec.CacheConfigs()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := core.RunSweep(context.Background(), w, spec.Scale, newCollector(spec.GC), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	outs := map[string]jobConfigOutput{}
	for cfg, st := range sw.Stats {
		outs[cfg.String()] = jobOutput(sw.Run.Checksum, sw.Run.Insns, sw.Run.GCInsns, sw.Run.GCStats, st)
	}
	if err := checkJobOutputs(spec, outs, want); err != nil {
		t.Fatalf("a live run fails the check: %v", err)
	}
	b, err := json.Marshal(outs)
	if err != nil {
		t.Fatal(err)
	}
	flipDigits(b, func(pos int, f []byte) {
		var got map[string]jobConfigOutput
		if json.Unmarshal(f, &got) != nil || len(got) != len(outs) {
			return
		}
		if checkJobOutputs(spec, got, want) == nil {
			t.Errorf("flipping byte %d passed the check", pos)
		}
	})

	// A result under a configuration the job did not ask for fails too,
	// even when its stats are right for that configuration.
	var other cache.Config
	for _, cfg := range serviceConfigs() {
		if _, asked := outs[cfg.String()]; !asked {
			other = cfg
			break
		}
	}
	osw, err := core.RunSweep(context.Background(), w, spec.Scale, newCollector(spec.GC), []cache.Config{other})
	if err != nil {
		t.Fatal(err)
	}
	renamed := map[string]jobConfigOutput{}
	for name, o := range outs {
		renamed[name] = o
	}
	delete(renamed, cfgs[0].String())
	renamed[other.String()] = jobOutput(osw.Run.Checksum, osw.Run.Insns, osw.Run.GCInsns, osw.Run.GCStats, osw.Stats[other])
	if checkJobOutputs(spec, renamed, want) == nil {
		t.Errorf("a result renamed from %s to %s passed the check", cfgs[0], other)
	}
}

func TestJobListIsBalancedAndSeeded(t *testing.T) {
	a, b := jobList(7, 1), jobList(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job lists")
	}
	if reflect.DeepEqual(a, jobList(8, 1)) || reflect.DeepEqual(a, jobList(7, 2)) {
		t.Fatal("different seeds or units gave the same job list")
	}
	pairs := map[string]int{}
	counts := map[string]int{}
	for _, s := range a {
		pairs[traceTriple(s)]++
		counts[fmt.Sprintf("%s/%d", s.Workload, len(s.Configs))]++
	}
	if len(pairs) != len(servicePrograms)*len(serviceCollectors) {
		t.Fatalf("%d distinct traces, want %d", len(pairs), len(servicePrograms)*len(serviceCollectors))
	}
	for p, n := range pairs {
		if n != serviceRepeats {
			t.Errorf("%s appears %d times, want %d", p, n, serviceRepeats)
		}
	}
	for _, p := range servicePrograms {
		for k := 1; k <= 4; k++ {
			if n, want := counts[fmt.Sprintf("%s/%d", p.name, k)], len(a)/len(servicePrograms)/4; n != want {
				t.Errorf("%s: %d jobs with %d configs, want %d", p.name, n, k, want)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 91)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p90 of 0..90 is exactly 81: only 82..90 (nine samples) lie beyond.
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 91 samples (9 beyond) was reported")
	}
	xs = append(xs, 91)
	p, err := percentile(xs, 0.9)
	if err != nil || p <= 81 || p >= 82 {
		t.Errorf("p90 of 0..91 = %g, %v", p, err)
	}
}

func TestServiceUnitRecordsEachTraceOnce(t *testing.T) {
	out, err := serviceUnit(context.Background(), t.TempDir(), "..", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 || len(out.Problems) != 0 {
		t.Fatalf("%d failed jobs, problems %v", out.Failed, out.Problems)
	}
	distinct := map[string]bool{}
	for _, s := range jobList(3, 0)[:warmupJobs] {
		distinct[traceTriple(s)] = true
	}
	if out.Jobs != warmupJobs || len(out.Latencies) != warmupJobs || out.Recorded != uint64(len(distinct)) {
		t.Fatalf("%d jobs, %d latencies, %d traces recorded; want %d, %d, %d",
			out.Jobs, len(out.Latencies), out.Recorded, warmupJobs, warmupJobs, len(distinct))
	}
}
