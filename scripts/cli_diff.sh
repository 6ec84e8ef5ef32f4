#!/bin/sh
# Output-identity check for CLI refactors: run a fixed invocation matrix
# (every scripts/check.sh invocation, a set of reporting commands, and
# --help=plain of every subcommand) through two tracevm binaries and
# compare stdout, stderr and exit status byte for byte.
#
#   scripts/cli_diff.sh OLD_BINARY NEW_BINARY
#
# Run from the repo root (bench-diff reads BENCH_smoke.json).  Two
# differences are masked: export --format json's wall_seconds value,
# and the seconds column warm printed before it stopped timing runs.
# Exits 1 when any invocation differs.
set -eu
old=$1
new=$2
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_diff.XXXXXX")
trap 'rm -rf "$work"' EXIT
failures=0
cases=0

norm() {
  sed -e 's/ [0-9]*\.[0-9][0-9][0-9]s$//' \
    -e 's/"wall_seconds":[0-9.eE+-]*/"wall_seconds":_/'
}

# run BIN TAG ARGS...: record stdout, stderr and status under $work/TAG
run() {
  bin=$1
  tag=$2
  shift 2
  status=0
  (cd "$work/files" && "$bin" "$@") > "$work/$tag.out" 2> "$work/$tag.err" \
    || status=$?
  echo "$status" > "$work/$tag.status"
  for f in out err; do norm < "$work/$tag.$f" > "$work/$tag.$f.n"; done
}

check() {
  cases=$((cases + 1))
  rm -rf "$work/files"
  mkdir "$work/files"
  cp BENCH_smoke.json "$work/files/"
  sed 's/"value":[0-9.eE+-]*/"value":99999999/g' BENCH_smoke.json \
    > "$work/files/BENCH_stomped.json"
  run "$old" old "$@"
  # file-writing cases see the same paths and inputs in both runs
  rm -rf "$work/files.old"
  mv "$work/files" "$work/files.old"
  mkdir "$work/files"
  cp "$work/files.old/BENCH_smoke.json" "$work/files.old/BENCH_stomped.json" \
    "$work/files/"
  run "$new" new "$@"
  for f in out.n err.n status; do
    if ! cmp -s "$work/old.$f" "$work/new.$f"; then
      echo "DIFF ($f): tracevm $*" >&2
      diff "$work/old.$f" "$work/new.$f" | head -20 >&2 || true
      failures=$((failures + 1))
      return
    fi
  done
}

# a sequence that threads files through several invocations
check_seq() {
  cases=$((cases + 1))
  for side in old new; do
    eval bin=\$$side
    rm -rf "$work/seq"
    mkdir "$work/seq"
    (
      cd "$work/seq"
      for step in "$@"; do
        status=0
        # shellcheck disable=SC2086
        "$bin" $step > step.log 2>&1 || status=$?
        norm < step.log
        echo "status=$status"
      done
    ) > "$work/$side.seq" 2>&1
  done
  if ! cmp -s "$work/old.seq" "$work/new.seq"; then
    echo "DIFF (sequence): $*" >&2
    diff "$work/old.seq" "$work/new.seq" | head -20 >&2 || true
    failures=$((failures + 1))
  fi
}

subs="run events table disasm export list lint backends session chaos \
top warm postmortem explain bench-diff"

check --help=plain
for s in $subs; do check "$s" --help=plain; done

# the scripts/check.sh invocations
check lint --traces
check chaos --seed 42 --quick
check chaos --spec 'guard_flip@0.05,budget=24' --schedules 25 --seed 42 \
  --quick --osr
check backends --tier
check chaos --spec 'guard_flip@0.05,budget=24' --schedules 25 --seed 42 \
  --quick --osr --tier
check top compress
check list
for w in compress javac raytrace mpegaudio soot scimark; do
  check events "$w" --stats-only --osr --tier --self-heal \
    --fault-spec 'corrupt-trace@0.005,budget=20'
done
check explain compress --osr --tier --self-heal \
  --fault-spec 'corrupt-trace@0.005,budget=20'
check session --workloads javac,soot,mpegaudio --users 2 \
  --fault-spec 'alloc-pressure@0.001,budget=20'
check session --workloads javac,soot,mpegaudio --users 2 --self-heal \
  --fault-spec 'corrupt-trace@0.005,budget=20'
check_seq "chaos compress --quick --schedules 2 --dump-dir ." \
  "postmortem flightrec_invariant_violation.jsonl"
check bench-diff BENCH_smoke.json BENCH_smoke.json
check bench-diff BENCH_smoke.json BENCH_stomped.json
check_seq "warm compress --save snap.tcsnap" "warm compress --load snap.tcsnap"
check_seq "run compress --self-heal --fault-spec corrupt-trace@0.01,budget=12 \
--dump-flightrec fr.jsonl" "postmortem fr.jsonl"

# reporting commands
check run compress --size 500 --traces --bcg
check events compress --size 500
check events compress --size 500 --snapshot-period 250 --osr --self-heal \
  --fault-spec 'corrupt-trace@0.005,budget=20'
# OSR and ladder counters in every snapshot and in Stats.pp
check events compress --size 500 --snapshot-period 250 --osr \
  --fault-spec 'guard_flip@0.05,budget=24'
# the compiled tier's mi_* counters, folded in at trace exit, in every
# snapshot, with and without OSR deopts
check events compress --size 500 --snapshot-period 250 --tier
check events mpegaudio --size 500 --snapshot-period 250 --tier --osr
check run compress --size 500 --osr --self-heal \
  --fault-spec 'guard_flip@0.05,budget=24'
# failed installs and pressure evictions, counted by the engine
check run compress --self-heal \
  --fault-spec 'fail-install@0.01,alloc-pressure@0.001,budget=20'
# the full timeline of every workload: the hot kinds, the resync and
# the exit-time counter folds under side exits, deopts and skewed
# per-block instruction counts
for w in compress javac raytrace mpegaudio soot scimark; do
  check events "$w"
  check events "$w" --osr --fault-spec 'guard_flip@0.05,budget=24'
  check events "$w" --self-heal \
    --fault-spec 'corrupt-instrs@0.01,budget=20'
done
# the histogram table folded from a deopt-heavy stream
check events compress --size 500 --stats-only --osr \
  --fault-spec 'guard_flip@0.05,budget=24'
# the hot report of every workload: its block rows are each block's
# executions in a counted plain run split into self and inlined
for w in compress javac raytrace mpegaudio soot scimark; do
  check top "$w"
  check top "$w" --json
done
check top compress --size 500
check top compress --size 500 --json
check top mpegaudio --size 500 --tier
# a corrupted trace body in the --traces dump
check run compress --size 500 --traces \
  --fault-spec 'corrupt-trace@0.005,budget=20'
check explain compress --size 500 --trace 1
check backends --size 500
check session --workloads compress,raytrace --size 500
check table 1 --scale 0.05
# the optimizer and the prover read each method's facts from the memo
check table optimizer --scale 0.1
check export --format csv --scale 0.05
check export --format json --workload compress --scale 0.05
check disasm scimark --method fft
check chaos --catalogue

# usage errors
check run nosuch
check run compress --threshold 2.0 --size 200
check run compress --size 500 --threshold=nan
check run compress --size 200 --fault-spec bogus
check warm compress --size 200
check postmortem missing.jsonl
check bench-diff missing.json BENCH_smoke.json
check run compress --size=200 --traces --top=-3
check top compress --top 0
check table 1 --scale=-1
check export --scale nan

echo "cli_diff: $failures of $cases invocation(s) differ"
test "$failures" -eq 0
