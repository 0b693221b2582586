#!/bin/sh
# Benchmarks the record-once/replay-many trace engine on the tc workload:
# how fast a recorded reference stream replays compared to producing it
# live, and what the replay costs on disk. Four measurements feed the
# summary:
#
#   capture     one VM run recording a format-v2 trace (gctrace -capture):
#               the one-time cost of priming a trace cache.
#   replay      trace -> consumer delivery rate (gctrace -replay -cache
#               none, best of $REPEATS): the rate every extra cache
#               configuration pays once a trace exists.
#   sweep       the same 8-configuration gcsim sweep run three ways —
#               live single pass, live per-config (8 independent VM runs,
#               what resilient/checkpointed sweeps and gcsimd jobs pay),
#               and fused replay from a -trace-cache directory (decode
#               each frame once, fan out to all 8 configurations) — with
#               byte-identical stdout enforced across all of them and run
#               records schema-validated.
#   stages      the fused sweep's per-stage breakdown (decode / simulate /
#               merge seconds and frame count), parsed from the -progress
#               stderr so stdout stays byte-identical.
#   spans       the same fused sweep once more with -spans span recording
#               enabled: the recorder's self-measured overhead (from the
#               "spans: total=... overhead=..." stderr summary) must stay
#               within SPAN_MAX_OVERHEAD (default 2%) of that run's wall
#               time — the always-on-cheap budget for the tracing layer.
#
# Two speedups are gated, both against live_refs_per_sec — the live
# engine's end-to-end reference throughput from BENCH_parallel.json
# (serial_refs_per_sec; seed value if absent):
#   speedup        replay delivery rate vs live_refs_per_sec (the PR-4
#                  record-once/replay-many headline). >= MIN_SPEEDUP.
#   sweep_speedup  the fused sweep's aggregate simulation-serving rate —
#                  sweep_configs x refs / sweep_replay_seconds, since each
#                  decoded reference is applied to every configuration in
#                  the single fused pass — vs live_refs_per_sec.
#                  >= MIN_SWEEP_SPEEDUP.
# Wall-clock ratios for the same sweep are reported (not gated) alongside:
# sweep_perconfig_speedup (per-config live vs fused replay — what a
# resilient checkpointed sweep or gcsimd job pays) and
# sweep_single_pass_speedup (single-pass live vs fused replay).
#
# Outputs (under $BENCH_DIR, default bench-out/, which is gitignored;
# the committed BENCH_replay.json at the repository root is the seed
# baseline, refreshed deliberately, not on every run):
#   BENCH_replay.json                summary consumed by CI trend tracking
#   BENCH_replay_live_record.json    run record of the live sweep
#   BENCH_replay_cached_record.json  run record of the fused replay sweep
set -eu

cd "$(dirname "$0")/.."
bench_dir="${BENCH_DIR:-bench-out}"
mkdir -p "$bench_dir"
out="${1:-$bench_dir/BENCH_replay.json}"
live_record="$bench_dir/BENCH_replay_live_record.json"
cached_record="$bench_dir/BENCH_replay_cached_record.json"
workload="${WORKLOAD:-tc}"
collector="${COLLECTOR:-cheney}"
caches="32k,64k,128k,256k"
blocks="32,64" # 4 sizes x 2 blocks = 8 configurations
repeats="${REPEATS:-3}"
min_speedup="${MIN_SPEEDUP:-5}"
min_sweep_speedup="${MIN_SWEEP_SPEEDUP:-8}"
span_max_overhead="${SPAN_MAX_OVERHEAD:-0.02}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# wall NAME CMD...: run CMD, recording its wall-clock seconds in $tmp/NAME.wall.
wall() {
    _name="$1"
    shift
    _t0=$(date +%s%N)
    "$@"
    _t1=$(date +%s%N)
    awk -v a="$_t0" -v b="$_t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }' \
        > "$tmp/$_name.wall"
}

echo "building gcsim and gctrace"
go build -o "$tmp/gcsim" ./cmd/gcsim
go build -o "$tmp/gctrace" ./cmd/gctrace

# --- capture: one-time trace recording cost -------------------------------
"$tmp/gctrace" -capture "$tmp/trace.v2" -workload "$workload" -gc "$collector" \
    > "$tmp/capture.txt"
cat "$tmp/capture.txt"
refs=$(sed -n 's/^captured \([0-9]*\) references.*/\1/p' "$tmp/capture.txt")
capture_mrefs=$(sed -n 's/^throughput: \([0-9.]*\)M refs\/s.*/\1/p' "$tmp/capture.txt")
if [ -z "$refs" ] || [ -z "$capture_mrefs" ]; then
    echo "FAIL: could not parse reference count / throughput from the capture output" >&2
    cat "$tmp/capture.txt" >&2
    exit 1
fi
trace_bytes=$(wc -c < "$tmp/trace.v2" | tr -d ' ')

# --- replay: trace -> consumer delivery rate (best of $repeats) -----------
replay_mrefs=0
i=0
while [ "$i" -lt "$repeats" ]; do
    "$tmp/gctrace" -replay "$tmp/trace.v2" -cache none > "$tmp/replay.txt"
    m=$(sed -n 's/^throughput: \([0-9.]*\)M refs\/s.*/\1/p' "$tmp/replay.txt")
    replay_mrefs=$(awk -v a="$replay_mrefs" -v b="$m" 'BEGIN { print (b > a) ? b : a }')
    i=$((i + 1))
done
echo "replay delivery: ${replay_mrefs}M refs/s (best of $repeats)"

# --- sweep: live single-pass, live per-config, fused replay ---------------
sweep="-workload $workload -gc $collector -cache $caches -block $blocks -parallel 1"
wall live "$tmp/gcsim" $sweep -json "$live_record" > "$tmp/live_stdout.txt"
wall perconfig "$tmp/gcsim" $sweep -checkpoint "$tmp/ck" > "$tmp/perconfig_stdout.txt"
"$tmp/gcsim" $sweep -trace-cache "$tmp/tcache" > "$tmp/prime_stdout.txt"
wall cached "$tmp/gcsim" $sweep -trace-cache "$tmp/tcache" -progress \
    -json "$cached_record" > "$tmp/cached_stdout.txt" 2> "$tmp/cached_progress.txt"
wall spanned "$tmp/gcsim" $sweep -trace-cache "$tmp/tcache" -progress \
    -spans "$tmp/spans.jsonl" > "$tmp/spanned_stdout.txt" 2> "$tmp/spanned_progress.txt"

for pass in perconfig prime cached spanned; do
    if ! cmp -s "$tmp/live_stdout.txt" "$tmp/${pass}_stdout.txt"; then
        echo "FAIL: $pass sweep stdout differs from the live single-pass sweep" >&2
        diff "$tmp/live_stdout.txt" "$tmp/${pass}_stdout.txt" >&2 || true
        exit 1
    fi
done
echo "stdout: live, per-config, priming, and fused replay sweeps byte-identical"

"$tmp/gcsim" -check-record "$live_record"
"$tmp/gcsim" -check-record "$cached_record"
echo "records: schema-valid"

# The fused sweep's stage breakdown, from the -progress stderr:
#   gcsim: replay stages: decode=0.123s simulate=0.456s merge=0.007s frames=N configs=N path=fused workers=N
# simulate and merge are summed over the bank's workers.
stages=$(grep 'replay stages:' "$tmp/cached_progress.txt" | head -1)
if [ -z "$stages" ]; then
    echo "FAIL: fused replay emitted no stage breakdown" >&2
    cat "$tmp/cached_progress.txt" >&2
    exit 1
fi
case $stages in
*path=fused*) ;;
*)
    echo "FAIL: cached sweep did not take the fused path: $stages" >&2
    exit 1
    ;;
esac
decode_s=$(echo "$stages" | sed -n 's/.*decode=\([0-9.]*\)s.*/\1/p')
simulate_s=$(echo "$stages" | sed -n 's/.*simulate=\([0-9.]*\)s.*/\1/p')
merge_s=$(echo "$stages" | sed -n 's/.*merge=\([0-9.]*\)s.*/\1/p')
frames=$(echo "$stages" | sed -n 's/.*frames=\([0-9]*\).*/\1/p')
workers=$(echo "$stages" | sed -n 's/.*workers=\([0-9]*\).*/\1/p')
echo "fused stages: decode=${decode_s}s simulate=${simulate_s}s merge=${merge_s}s ($frames frames, $workers workers)"

# The span-enabled run's recorder summary, from the -progress stderr:
#   gcsim: spans: total=N dropped=N overhead=0.000123s
spanline=$(grep 'spans: total=' "$tmp/spanned_progress.txt" | head -1)
if [ -z "$spanline" ]; then
    echo "FAIL: span-enabled sweep emitted no recorder summary" >&2
    cat "$tmp/spanned_progress.txt" >&2
    exit 1
fi
span_total=$(echo "$spanline" | sed -n 's/.*total=\([0-9]*\).*/\1/p')
span_dropped=$(echo "$spanline" | sed -n 's/.*dropped=\([0-9]*\).*/\1/p')
span_overhead=$(echo "$spanline" | sed -n 's/.*overhead=\([0-9.]*\)s.*/\1/p')
if [ ! -s "$tmp/spans.jsonl" ] || [ "${span_total:-0}" -lt 1 ]; then
    echo "FAIL: span-enabled sweep recorded no spans ($spanline)" >&2
    exit 1
fi
echo "spans: total=$span_total dropped=$span_dropped overhead=${span_overhead}s"

live_dur=$(cat "$tmp/live.wall")
perconfig_dur=$(cat "$tmp/perconfig.wall")
cached_dur=$(cat "$tmp/cached.wall")
spanned_dur=$(cat "$tmp/spanned.wall")

# field FILE KEY: extract the first numeric value of "key": N from a record.
field() {
    sed -n "s/^ *\"$2\": \([0-9.e+-]*\),*$/\1/p" "$1" | head -1
}

# Baseline: a fresh same-host measurement from this run's bench dir if one
# exists, else the committed repository-root summary, else the seed value.
# A summary file that exists but lacks the field is a hard failure, not a
# silent fall-through: an empty baseline would make awk divide by zero and
# both gated speedups would pass or fail meaninglessly.
baseline=11071524 # seed BENCH_parallel.json serial_refs_per_sec
for summary in "$bench_dir/BENCH_parallel.json" BENCH_parallel.json; do
    if [ -f "$summary" ]; then
        baseline=$(field "$summary" serial_refs_per_sec)
        if [ -z "$baseline" ]; then
            echo "FAIL: $summary has no numeric \"serial_refs_per_sec\" field" >&2
            echo "      (the live-engine baseline both speedup gates divide by;" >&2
            echo "      re-run scripts/bench_parallel.sh or delete the stale file)" >&2
            exit 1
        fi
        break
    fi
done
echo "baseline: live engine at $baseline refs/s (from ${summary:-seed})"

awk -v refs="$refs" -v bytes="$trace_bytes" -v cap="$capture_mrefs" \
    -v rep="$replay_mrefs" -v base="$baseline" -v ldur="$live_dur" \
    -v pdur="$perconfig_dur" -v cdur="$cached_dur" \
    -v dec="$decode_s" -v sim="$simulate_s" -v mrg="$merge_s" \
    -v frames="$frames" -v minsp="$min_speedup" -v minsw="$min_sweep_speedup" \
    -v sdur="$spanned_dur" -v stotal="$span_total" -v sdrop="$span_dropped" \
    -v sover="$span_overhead" -v smax="$span_max_overhead" \
    -v wl="$workload" -v col="$collector" -v lrec="$live_record" \
    -v crec="$cached_record" '
BEGIN {
    repps = rep * 1e6
    speedup = repps / base
    configs = 8
    sweep_rate = configs * refs / cdur
    sweep_speedup = sweep_rate / base
    printf "{\n"
    printf "  \"workload\": \"%s\",\n", wl
    printf "  \"collector\": \"%s\",\n", col
    printf "  \"refs\": %d,\n", refs
    printf "  \"trace_bytes\": %d,\n", bytes
    printf "  \"trace_bytes_per_ref\": %.2f,\n", bytes / refs
    printf "  \"vm_capture_refs_per_sec\": %.0f,\n", cap * 1e6
    printf "  \"replay_refs_per_sec\": %.0f,\n", repps
    printf "  \"live_refs_per_sec\": %.0f,\n", base
    printf "  \"speedup\": %.2f,\n", speedup
    printf "  \"sweep_configs\": %d,\n", configs
    printf "  \"sweep_live_seconds\": %.3f,\n", ldur
    printf "  \"sweep_perconfig_seconds\": %.3f,\n", pdur
    printf "  \"sweep_replay_seconds\": %.3f,\n", cdur
    printf "  \"sweep_replay_config_refs_per_sec\": %.0f,\n", sweep_rate
    printf "  \"sweep_speedup\": %.3f,\n", sweep_speedup
    printf "  \"sweep_perconfig_speedup\": %.3f,\n", pdur / cdur
    printf "  \"sweep_single_pass_speedup\": %.3f,\n", ldur / cdur
    printf "  \"replay_decode_seconds\": %.3f,\n", dec
    printf "  \"replay_simulate_seconds\": %.3f,\n", sim
    printf "  \"replay_merge_seconds\": %.3f,\n", mrg
    printf "  \"replay_frames\": %d,\n", frames
    over_frac = sover / sdur
    printf "  \"span_total\": %d,\n", stotal
    printf "  \"span_dropped\": %d,\n", sdrop
    printf "  \"span_overhead_seconds\": %.6f,\n", sover
    printf "  \"span_overhead_fraction\": %.6f,\n", over_frac
    printf "  \"span_max_overhead\": %s,\n", smax
    printf "  \"stdout_identical\": true,\n"
    printf "  \"records\": [\"%s\", \"%s\"],\n", lrec, crec
    printf "  \"note\": \"replay_refs_per_sec: trace->consumer delivery rate (gctrace -replay -cache none). live_refs_per_sec: the live engine end-to-end throughput from BENCH_parallel.json serial_refs_per_sec — the shared baseline for both gated speedups. vm_capture_refs_per_sec: the recording run (VM + v2 encode) on the same workload. sweep_*_seconds: the same 8-config sweep run live single-pass, live per-config (8 VM runs, the resilient/gcsimd cost), and as a fused replay from a -trace-cache directory (decode each frame once, fan out to all configs), stdout byte-identical across all of them. sweep_speedup: aggregate simulation-serving rate of the fused sweep (sweep_configs x refs / sweep_replay_seconds, each decoded reference applied to every configuration) over live_refs_per_sec. sweep_perconfig_speedup and sweep_single_pass_speedup: plain wall-clock ratios of the same three sweeps. replay_*_seconds: the fused sweep stage breakdown parsed from -progress stderr. span_*: the same fused sweep re-run with -spans recording every stage span to JSONL; span_overhead_seconds is the recorder self-measured cost, gated at span_max_overhead of that run wall time.\"\n"
    printf "}\n"
    if (speedup < minsp) {
        printf "FAIL: replay speedup %.2fx below minimum %sx\n", speedup, minsp > "/dev/stderr"
        exit 1
    }
    if (sweep_speedup < minsw) {
        printf "FAIL: fused sweep speedup %.2fx below minimum %sx (%.0f config-refs/s fused vs %.0f refs/s live)\n", \
            sweep_speedup, minsw, sweep_rate, base > "/dev/stderr"
        exit 1
    }
    if (pdur <= cdur) {
        printf "FAIL: fused replay (%.3fs) no faster than the per-config live sweep (%.3fs)\n", \
            cdur, pdur > "/dev/stderr"
        exit 1
    }
    if (repps <= cap * 1e6) {
        printf "FAIL: replay (%.0f refs/s) no faster than re-recording (%.0f refs/s)\n", \
            repps, cap * 1e6 > "/dev/stderr"
        exit 1
    }
    if (over_frac > smax) {
        printf "FAIL: span recording overhead %.4fs is %.2f%% of the %.3fs sweep, above the %.0f%% budget\n", \
            sover, over_frac * 100, sdur, smax * 100 > "/dev/stderr"
        exit 1
    }
}' > "$out"

cat "$out"
