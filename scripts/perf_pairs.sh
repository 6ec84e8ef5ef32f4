#!/bin/sh
# Alternating-pair timing of perfbench: a base revision against the
# working tree.
#
#   scripts/perf_pairs.sh [-b REV] [-n PAIRS] [-s SECONDS] [-o FILE]
#                         [WORKLOAD...]
#
# Run from the repo root.  REV defaults to HEAD~1, PAIRS to 10, SECONDS
# (each perfbench run's budget) to BENCHMARK.json's run_seconds, FILE
# to BENCH_perf.json and the workloads to loops, calls and churn.  The
# base revision is exported with `git archive` into a directory under
# $TMPDIR (default /tmp) and
# both trees are built as perfbench/run.py builds them (release
# profile, dune cache off).  For each workload the script runs PAIRS
# pairs, alternating which tree goes first, with the pair's index as
# the seed of both runs, and reads each run's final JSON line.
#
# It prints each pair's timing metrics and their delta, then per metric
# the median and quartiles of each side and of the per-pair deltas.
# FILE gets the same figures in the BENCH_*.json schema (one section
# per workload and side, metrics named METRIC.median, METRIC.q1 and
# METRIC.q3, the deltas as METRIC.delta_pct.*), with both revisions in
# its env.  Deterministic metrics are checked equal within each pair.
#
# Code placement alone moves these timings by several percent, so for
# each side the script reads with nm where the hottest functions start
# within a 64-byte line (their address mod 64), prints a line for each
# that differs between the sides, and records them in FILE's env as
# line_offset.SIDE.SYMBOL.
set -eu
base_rev=HEAD~1
pairs=10
seconds=$(python3 -c \
  'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=BENCH_perf.json
while getopts b:n:s:o: opt; do
  case $opt in
  b) base_rev=$OPTARG ;;
  n) pairs=$OPTARG ;;
  s) seconds=$OPTARG ;;
  o) out=$OPTARG ;;
  *)
    echo "usage: $0 [-b REV] [-n PAIRS] [-s SECONDS] [-o FILE] [WORKLOAD...]" \
      >&2
    exit 2
    ;;
  esac
done
shift $((OPTIND - 1))
test $# -gt 0 || set -- loops calls churn

repo=$PWD
work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
base_sha=$(git rev-parse "$base_rev")
head_sha=$(git rev-parse HEAD)
if test -n "$(git status --porcelain --untracked-files=no)"; then
  head_sha="$head_sha+dirty"
fi

# build ROOT BUILD_DIR: perfbench/main.exe as perfbench/run.py builds it
build() {
  mkdir -p "$2/tmp"
  DUNE_CACHE=disabled XDG_CACHE_HOME="$2/xdg-cache" TMPDIR="$2/tmp" \
    dune build --root "$1" --build-dir "$2" --profile release -j 2 \
    ./perfbench/main.exe >&2
}
mkdir "$work/base"
git archive "$base_sha" | tar -x -C "$work/base"
build "$work/base" "$work/base/_build"
build "$repo" "$work/head_build"
base_exe=$work/base/_build/default/perfbench/main.exe
head_exe=$work/head_build/default/perfbench/main.exe

# line_offsets EXE: "SYMBOL OFFSET" for each hot function, OFFSET its
# address mod 64 in hex ("none" when EXE lacks it)
hot_syms="camlVm__Interp.exec_block camlTracegen__Profiler.dispatch"
hot_syms="$hot_syms camlTracegen__Engine.paper_follow"
line_offsets() {
  nm "$1" > "$work/nm.txt"
  for sym in $hot_syms; do
    addr=$(sed -n "s/^\([0-9a-f]*\) [Tt] ${sym}_[0-9]*\$/\1/p" \
      "$work/nm.txt" | head -n 1)
    if test -n "$addr"; then
      printf '%s 0x%02x\n' "$sym" $((0x$addr % 64))
    else
      printf '%s none\n' "$sym"
    fi
  done
}
line_offsets "$base_exe" > "$work/base.offsets"
line_offsets "$head_exe" > "$work/head.offsets"
paste -d ' ' "$work/base.offsets" "$work/head.offsets" |
  while read -r sym b _ h; do
    test "$b" = "$h" ||
      echo "perf_pairs: $sym starts at line offset $b in base, $h in head" >&2
  done

# run SIDE WORKLOAD SEED: one perfbench run's final line, appended to
# $work/SIDE.WORKLOAD.jsonl
run() {
  if test "$1" = base; then exe=$base_exe; else exe=$head_exe; fi
  (cd "$work" && "$exe" --workload "$2" --seed "$3" --seconds "$seconds" \
    --trace 0) | tail -n 1 >> "$work/$1.$2.jsonl"
}

for w in "$@"; do
  i=1
  while test "$i" -le "$pairs"; do
    if test $((i % 2)) -eq 1; then
      run base "$w" "$i"
      run head "$w" "$i"
    else
      run head "$w" "$i"
      run base "$w" "$i"
    fi
    echo "perf_pairs: $w pair $i of $pairs" >&2
    i=$((i + 1))
  done
done

python3 - "$work" "$out" "$base_sha" "$head_sha" "$pairs" "$seconds" "$@" <<'EOF'
import json
import sys

work, out, base_sha, head_sha, pairs, seconds = sys.argv[1:7]
workloads = sys.argv[7:]
offsets = {}
for side in ("base", "head"):
    with open("%s/%s.offsets" % (work, side)) as f:
        for line in f:
            sym, off = line.split()
            offsets["line_offset.%s.%s" % (side, sym)] = off
TIMING = ("setup_s", "plain_ms", "profile_ms", "trace_ms", "trace_ms_tail",
          "microir_ms")
EXACT = ("alloc_words_per_kinstr", "dispatches_per_kinstr", "coverage_pct",
         "completion_pct", "correct_pct")


def quartiles(xs):
    xs = sorted(xs)
    def at(q):
        k = q * (len(xs) - 1)
        lo = int(k)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return at(0.25), at(0.5), at(0.75)


def load(side, w):
    with open("%s/%s.%s.jsonl" % (work, side, w)) as f:
        return [json.loads(line)["metrics"] for line in f]


with open("BENCH_smoke.json") as f:
    schema = json.load(f)["schema_version"]
sections = []
status = 0
for w in workloads:
    base, head = load("base", w), load("head", w)
    print("\n%s: %d pairs (base %s, head %s)" % (w, len(base), base_sha[:10],
                                                 head_sha[:10]))
    print("%-4s %-14s %10s %10s %8s" % ("pair", "metric", "base", "head",
                                        "delta%"))
    deltas = {m: [] for m in TIMING}
    for i, (b, h) in enumerate(zip(base, head), 1):
        for m in TIMING:
            bv, hv = b[m]["value"], h[m]["value"]
            d = 100.0 * (hv - bv) / bv
            deltas[m].append(d)
            print("%-4d %-14s %10.3f %10.3f %+8.1f" % (i, m, bv, hv, d))
        for m in EXACT:
            if b[m]["value"] != h[m]["value"]:
                print("pair %d: %s differs: %r vs %r" % (i, m, b[m]["value"],
                                                         h[m]["value"]))
                status = 1
    print("%-14s %-26s %-26s %-22s %s" % ("metric", "base q1/median/q3",
                                         "head q1/median/q3",
                                         "delta% q1/median/q3", "head better"))
    for side, runs in (("head", head), ("base", base)):
        metrics = []
        for m in TIMING:
            q1, med, q3 = quartiles([r[m]["value"] for r in runs])
            unit = runs[0][m]["unit"]
            metrics += [{"name": m + suffix, "value": v, "unit": unit}
                        for suffix, v in ((".median", med), (".q1", q1),
                                          (".q3", q3))]
            if side == "head":
                dq1, dmed, dq3 = quartiles(deltas[m])
                metrics += [{"name": m + ".delta_pct" + suffix, "value": v,
                             "unit": "%"}
                            for suffix, v in ((".median", dmed), (".q1", dq1),
                                              (".q3", dq3))]
        for m in EXACT:
            metrics.append({"name": m, "value": runs[0][m]["value"],
                            "unit": runs[0][m]["unit"]})
        sections.append({"section": w if side == "head" else w + ".base",
                         "metrics": metrics})
    for m in TIMING:
        bq = quartiles([r[m]["value"] for r in base])
        hq = quartiles([r[m]["value"] for r in head])
        dq = quartiles(deltas[m])
        better = sum(1 for d in deltas[m] if d < 0)
        print("%-14s %8.3f/%8.3f/%8.3f %8.3f/%8.3f/%8.3f "
              "%6.1f/%6.1f/%6.1f %d of %d"
              % ((m,) + bq + hq + dq + (better, len(deltas[m]))))

doc = {
    "schema_version": schema,
    "bench": "perf",
    "env": dict({"revision": head_sha, "base_revision": base_sha,
                 "pairs": pairs, "seconds": seconds}, **offsets),
    "sections": sections,
}
with open(out, "w") as f:
    json.dump(doc, f, separators=(",", ":"))
    f.write("\n")
print("\nwrote %s" % out)
sys.exit(status)
EOF
