package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"gcsim/internal/core"
)

// The paper-quick workload: the whole gcbench -quick suite, live, one
// fresh process per unit.

// paperUnitOutput is what one paper-quick unit prints.
type paperUnitOutput struct {
	Experiments []paperTimed `json:"experiments"`
	Digest      string       `json:"digest"`
	text        []byte
}

type paperTimed struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// paperSetupProbe starts like a unit and exits where the first
// experiment would begin.
func paperSetupProbe() *probeOutput {
	return &probeOutput{ReadyUnixNs: time.Now().UnixNano()}
}

// paperUnit runs every experiment at quick scale in suite order and
// renders the output exactly as gcbench -quick -metrics prints it.
func paperUnit(ctx context.Context) (*paperUnitOutput, error) {
	cfg := core.ExpConfig{Quick: true, ScalePercent: 100}
	out := &paperUnitOutput{}
	var text bytes.Buffer
	for _, e := range core.Experiments() {
		start := time.Now()
		fmt.Fprintf(&text, "==== %s: %s ====\n", e.ID, e.Title)
		r, err := e.Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(&text, r.Report)
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&text, "metric %s.%s = %g\n", e.ID, k, r.Metrics[k])
		}
		secs := time.Since(start).Seconds()
		fmt.Fprintf(&text, "(%s completed in %.1fs)\n\n", e.ID, secs)
		out.Experiments = append(out.Experiments, paperTimed{ID: e.ID, Seconds: secs})
	}
	out.text = text.Bytes()
	out.Digest = paperDigest(out.text)
	return out, nil
}

func paperQuick(ctx context.Context, o opts) (*outcome, error) {
	want, err := loadExpectedPaperDigest(o.root)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	var rss []float64
	var parts fastestParts
	setup := &setupProbe{o: o, name: "paper-setup"}
	if err := setup.batch(ctx); err != nil {
		return nil, err
	}
	err = timedUnits(o, 2, func() error {
		var u paperUnitOutput
		run, err := runUnit(ctx, o, "paper", o.work, 0, &u)
		if err != nil {
			return err
		}
		out.attempted++
		if u.Digest != want {
			out.failed++
			out.problem("paper-quick output digest %s, want %s", u.Digest, want)
		}
		rss = append(rss, run.maxRSS)
		for _, e := range u.Experiments {
			parts.add(e.ID, e.Seconds)
		}
		if len(rss) == 1 {
			return setup.batch(ctx)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := setup.batch(ctx); err != nil {
		return nil, err
	}
	setupS, err := setup.seconds()
	if err != nil {
		return nil, err
	}
	setJobQuantiles(out, parts.times(), "experiment")
	out.set("wall_s", "s", parts.total())
	out.set("setup_s", "s", setupS)
	out.set("peak_rss_mb", "MB", median(rss))
	return out, nil
}
