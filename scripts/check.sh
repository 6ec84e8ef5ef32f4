#!/bin/sh
# Repo health check: full build (warnings fatal), test suite, the linter
# over every registered workload, and (when odoc is available) the
# documentation build.  Run from anywhere.
set -eu
cd "$(dirname "$0")/.."

# Export gate: every value a lib/**/*.mli exports needs a production
# use (in an .ml under lib, bin, bench, perfbench or examples outside
# its own module; tests do not count) or a line in
# scripts/export_allowlist.txt giving the reason it stays, and no line
# there may be stale.  A use is resolved by module: `M.v` or `Lib.M.v`,
# `X.v` after `module X = [Lib.]M`, or a bare `v` in a file that opens
# `M`; nested modules by full path, and a `val` in a module type is no
# export.
if ! command -v python3 > /dev/null 2>&1; then
  echo "check.sh: python3 not found; the export gate needs it" >&2
  exit 1
fi
python3 scripts/export_gate.py

# Promote every compiler warning to an error for this build; the dune
# profile keeps warnings non-fatal for day-to-day iteration.
dune build --profile release 2>&1 | tee /tmp/check_build.$$ || {
  rm -f /tmp/check_build.$$
  exit 1
}
if grep -q "Warning" /tmp/check_build.$$; then
  echo "check.sh: build produced warnings (shown above); failing" >&2
  rm -f /tmp/check_build.$$
  exit 1
fi
rm -f /tmp/check_build.$$

# Allocation gate under the release profile, the one perfbench builds
# with: the dispatch path must stay allocation-free in the optimised
# build too, not only in the dev build runtest uses.  Its "trace
# construction" group checks exactly, in this build only, that trace
# construction allocates just what it keeps (a cached signal its
# events, a capped eviction its Trace_evicted event, a decay pass
# nothing) and bounds the words per Trace_builder.on_signal call.
dune exec --profile release -- ./test/test_alloc.exe

# Inlining gates on the same release build.  The interpreter's
# per-instruction path, the straight-line match exec_ordinary, the
# typed stack's slot helpers and the array length included, must
# compile without calls (DESIGN.md §22).
# Vm.Interp.exec_block may not call or jump to any hot helper below;
# the trap raisers those helpers call out of line are allowed, and so
# is store_boxed, the cold path of an ill-typed array store.
if ! command -v objdump > /dev/null 2>&1; then
  echo "check.sh: objdump not found; the inlining gate needs it" >&2
  exit 1
fi
alloc_exe=_build/default/test/test_alloc.exe
alloc_dis=$(mktemp /tmp/check_dis.XXXXXX)
objdump -d --no-show-raw-insn "$alloc_exe" > "$alloc_dis"
# function_body NAME: the disassembly of the OCaml function NAME (e.g.
# Vm__Interp.exec_block) in the release test_alloc.exe
function_body() {
  awk -v name="$1" '
    /^[0-9a-f]+ </ {
      sym = $2
      sub(/^<caml/, "", sym)
      sub(/_[0-9]+>:$/, "", sym)
      gsub(/\$/, ".", sym)
      p = (sym == name)
      next
    }
    p' "$alloc_dis"
}
exec_block=$(function_body 'Vm__Interp.exec_block')
if test -z "$exec_block"; then
  echo "check.sh: no Vm.Interp.exec_block in $alloc_exe" >&2
  rm -f "$alloc_dis"
  exit 1
fi
hot='Vm__Interp[.$](push_slot|push_int|push_float|push_ref|push_value'
hot="$hot|push_copy|pop_slot|pop_int|pop_float|pop_value|pop_obj|pop_arr"
hot="$hot|top_int|top_float|copy_slot|set_value|local|check_bounds"
hot="$hot|step_budget|exec_ordinary)"
hot="$hot|Vm__Value[.$]length"
hot="$hot|Cfg__Method_cfg[.$]block_index_at_pc"
hot="$hot|Cfg__Layout[.$](gid|cfg_of_method)|Bytecode__Instr[.$]eval_cond"
hot_calls=$(printf '%s\n' "$exec_block" | grep -E "<caml($hot)_[0-9]+>") || true
if test -n "$hot_calls"; then
  printf '%s\n' "$hot_calls" >&2
  echo "check.sh: Vm.Interp.exec_block calls the hot helpers above" >&2
  rm -f "$alloc_dis"
  exit 1
fi

# reachable NAME: every function the OCaml function NAME reaches by
# direct calls and jumps, NAME's own symbol included, one a line
reachable() {
  awk -v name="$1" '
    /^[0-9a-f]+ </ {
      fn = substr($2, 2, length($2) - 3)
      sym = fn
      sub(/^caml/, "", sym)
      sub(/_[0-9]+$/, "", sym)
      gsub(/\$/, ".", sym)
      if (sym == name) root = fn
      next
    }
    fn != "" && match($0, /(call|j[a-z]+) +[0-9a-f]+ <[^>+]+/) {
      callee = substr($0, RSTART, RLENGTH)
      sub(/.*</, "", callee)
      if (callee != fn) edges[fn] = edges[fn] " " callee
    }
    END {
      if (root == "") exit
      seen[root] = 1
      todo[1] = root
      n = 1
      while (n > 0) {
        f = todo[n--]
        k = split(edges[f], out, " ")
        for (i = 1; i <= k; i++)
          if (!(out[i] in seen)) {
            seen[out[i]] = 1
            todo[++n] = out[i]
          }
      }
      for (f in seen) print f
    }' "$alloc_dis"
}
# The profiled dispatch's write barrier: Profiler.dispatch has four
# caml_modify call sites (the branch context, stored on a visit, a new
# edge and a known edge, and the inline cache's best edge when another
# edge overtakes it) and Profiler.resync two (the context and the memo
# on a miss).  A pointer store added to either adds a call site here.
for barrier in dispatch:4 resync:2; do
  fn=Tracegen__Profiler.${barrier%:*}
  body=$(function_body "$fn")
  if test -z "$body"; then
    echo "check.sh: no $fn in $alloc_exe" >&2
    rm -f "$alloc_dis"
    exit 1
  fi
  sites=$(printf '%s\n' "$body" | grep -c '<caml_modify>') || true
  if test "$sites" -gt "${barrier#*:}"; then
    printf '%s\n' "$body" | grep '<caml_modify>' >&2
    echo "check.sh: $fn has $sites caml_modify call sites (limit ${barrier#*:})" >&2
    rm -f "$alloc_dis"
    exit 1
  fi
done
# The paper's dispatch path (DESIGN.md §14): Engine.paper_follow, the
# function the default configuration runs for every block, inside a
# trace or not, and Engine.paper_profile, the one the Profile kind runs
# (profile_ms and Table VI), may not reach an optional subsystem through
# any chain of direct calls and jumps (closures, such as the profiler's
# signal callback, are not followed), nor call Events.set_now or
# note_executed themselves.  Those two are single stores when inlined,
# which this symbol check cannot see.  Both functions instantiate the
# engine's one dispatch definition with ~general:false, so this gate is
# what shows that every `if general` hook was folded away.
optional='Tracegen__(Faults|Health|Osr|Tier|Microir|Invariants)[.$]'
own='Tracegen__(Events[.$]set_now|Engine[.$]note_executed)'
for fn in paper_follow paper_profile; do
  paper=$(function_body "Tracegen__Engine.$fn")
  if test -z "$paper"; then
    echo "check.sh: no Tracegen.Engine.$fn in $alloc_exe" >&2
    rm -f "$alloc_dis"
    exit 1
  fi
  optional_calls=$(reachable "Tracegen__Engine.$fn" |
    grep -E "^caml($optional)") || true
  own_calls=$(printf '%s\n' "$paper" | grep -E "<caml($own)_[0-9]+>") || true
  if test -n "$optional_calls$own_calls"; then
    printf '%s\n' "$optional_calls" "$own_calls" | grep . >&2
    echo "check.sh: Tracegen.Engine.$fn reaches the code above" >&2
    rm -f "$alloc_dis"
    exit 1
  fi
done
rm -f "$alloc_dis"

dune build
dune runtest

# Every gate below calls the binary just built, so none can wait on
# another dune's build lock.
cli=$PWD/_build/default/bin/repro_cli.exe

# Static dataflow lint + dynamic invariant sweep over every registered
# workload, plus the translation-validation gate: every trace the
# sweep's engine installed must prove observationally equivalent to its
# source blocks (TL21x clean).  Exits non-zero on any error-severity
# finding.
"$cli" lint --traces

# Chaos gate: every workload under 50 seeded fault schedules must yield
# VM results identical to the no-tracing baseline and recover to full
# tracing; exits non-zero on any FT901/FT902 verdict.
"$cli" chaos --seed 42 --quick

# Deopt-transparency gate: with on-stack replacement armed, guard-flip
# schedules (FT008) force mid-trace deoptimization at pseudo-random
# positions on every workload — results must stay bit-identical and the
# ladder must still end the run at full tracing.
"$cli" chaos --spec 'guard_flip@0.05,budget=24' \
  --schedules 25 --seed 42 --quick --osr

# Tier-transparency gate: with the compiled micro-IR tier armed, every
# workload pinned to every backend must stay bit-identical to the plain
# interpreter, and the pinned trace backend must actually compile at
# least one trace — the tier is part of trace dispatch, and a
# transparency pass over an idle tier proves nothing.
"$cli" backends --tier > /dev/null

# Compiled-tier chaos: guard-flip schedules force mid-trace deopt while
# traces are dispatched from the micro-IR tier (--tier --osr), putting
# the deopt-from-compiled-tier path under the FT901/FT902 gate.
"$cli" chaos --spec 'guard_flip@0.05,budget=24' \
  --schedules 25 --seed 42 --quick --osr --tier

# Hot-path attribution: the ranked report's every column must reconcile
# exactly with the end-of-run statistics; exits non-zero on mismatch.
"$cli" top compress > /dev/null

# Counter oracle: on every registered workload, a run with OSR,
# self-healing and a fault schedule must reconcile its event stream,
# end-of-run statistics and decision ledger exactly; exits non-zero on
# any mismatch.  One trace step serves both tiers, so the loop runs once
# with the compiled tier off and once with it on.
for tier in "" --tier; do
  for w in $("$cli" list | cut -d' ' -f1); do
    # $tier is unquoted on purpose: empty means no flag
    report=$("$cli" events "$w" --stats-only --osr $tier \
      --self-heal --fault-spec 'corrupt-trace@0.005,budget=20' \
      2>&1 > /dev/null) || {
      echo "$report" >&2
      echo "check.sh: counter oracle failed on $w ${tier:-without --tier}" >&2
      exit 1
    }
  done
done

# Decision-ledger gate: replay a run with OSR, the compiled tier,
# self-healing and a fault schedule, narrate its decision ledger, and
# reconcile the ledger's per-kind counts against the end-of-run
# statistics; exits non-zero on any mismatch.
"$cli" explain compress --osr --tier --self-heal \
  --fault-spec 'corrupt-trace@0.005,budget=20' > /dev/null

# Shared-cache gate: two members per workload interleaved over one
# trace cache per layout, first under injected pressure evictions, then
# with self-healing against corrupted traces.  Every member's result
# must equal a solo interpreter run, and the evictions the members
# sharing a cache counted must sum to that cache's; exits non-zero
# otherwise.
"$cli" session --workloads javac,soot,mpegaudio \
  --users 2 --fault-spec 'alloc-pressure@0.001,budget=20' > /dev/null
"$cli" session --workloads javac,soot,mpegaudio \
  --users 2 --self-heal --fault-spec 'corrupt-trace@0.005,budget=20' \
  > /dev/null

# Post-mortem sink gate: chaos runs armed with --dump-dir must leave at
# least one flightrec_<reason>.jsonl there, and every dump must read
# back through postmortem; exits non-zero otherwise.
dump_dir=$(mktemp -d /tmp/check_dumps.XXXXXX)
"$cli" chaos compress --quick --schedules 2 --dump-dir "$dump_dir" \
  > /dev/null || { rm -rf "$dump_dir"; exit 1; }
set -- "$dump_dir"/flightrec_*.jsonl
if ! test -e "$1"; then
  echo "check.sh: chaos --dump-dir wrote no flightrec_*.jsonl" >&2
  rm -rf "$dump_dir"
  exit 1
fi
for dump in "$@"; do
  "$cli" postmortem "$dump" > /dev/null || {
    echo "check.sh: postmortem rejected $dump" >&2
    rm -rf "$dump_dir"
    exit 1
  }
done
rm -rf "$dump_dir"

# Warm-start gate: save a snapshot, load it back, and require the warm
# run to report a bit-identical VM result; then corrupt one byte and
# require the loader to reject the file with a non-zero exit.
snap_out=$(mktemp /tmp/check_snap.XXXXXX.tcsnap)
"$cli" warm compress --save "$snap_out" > /dev/null
warm_report=$("$cli" warm compress --load "$snap_out") || {
  echo "check.sh: warm --load failed" >&2
  rm -f "$snap_out"
  exit 1
}
case "$warm_report" in
*"identical to cold"*) ;;
*)
  echo "check.sh: warm run did not report an identical result" >&2
  rm -f "$snap_out"
  exit 1
  ;;
esac
# stomp 4 bytes of the stored MD5 (header offset 36-51), guaranteeing a
# checksum mismatch
printf '\377\377\377\377' | dd of="$snap_out" bs=1 seek=40 count=4 conv=notrunc 2> /dev/null
if "$cli" warm compress --load "$snap_out" \
  > /dev/null 2>&1; then
  echo "check.sh: corrupted snapshot was accepted" >&2
  rm -f "$snap_out"
  exit 1
fi
rm -f "$snap_out"

# Bench smoke: the deterministic counter rows (event, recorder and
# ledger counts, OSR deopts, the compiled tier, the shared trace cache,
# warm starts), no paper tables and no wall-clock timing.  Two fresh
# --smoke --json runs must write byte-identical BENCH_smoke.json files,
# and a fresh run must diff clean against the committed BENCH_smoke.json.
# bench-diff compares exactly: a counter that moved either way, or a
# metric missing or added, fails until the change regenerates the
# committed baseline.
dune build bench/main.exe
bench_dir=$(mktemp -d /tmp/check_bench.XXXXXX)
repo=$PWD
for run in 1 2; do
  mkdir "$bench_dir/$run"
  (cd "$bench_dir/$run" && "$repo/_build/default/bench/main.exe" --smoke --json) \
    > /dev/null
  if ! test -s "$bench_dir/$run/BENCH_smoke.json"; then
    echo "check.sh: bench --json wrote no BENCH_smoke.json" >&2
    rm -rf "$bench_dir"
    exit 1
  fi
done
if ! cmp "$bench_dir/1/BENCH_smoke.json" "$bench_dir/2/BENCH_smoke.json"; then
  echo "check.sh: two bench --smoke --json runs differ" >&2
  rm -rf "$bench_dir"
  exit 1
fi
bench_report=$("$cli" bench-diff \
  BENCH_smoke.json "$bench_dir/1/BENCH_smoke.json" 2>&1) || {
  echo "$bench_report" >&2
  echo "check.sh: bench counters differ from the committed BENCH_smoke.json" >&2
  rm -rf "$bench_dir"
  exit 1
}

# Stomped metrics must make bench-diff exit nonzero, whichever way they
# moved.  The file is one line, so each substitution is global: every
# value is raised to 99999999 in one copy and lowered to 0 in the other.
for stomp in 99999999 0; do
  sed "s/\"value\":[0-9.eE+-]*/\"value\":$stomp/g" \
    "$bench_dir/1/BENCH_smoke.json" > "$bench_dir/BENCH_stomped.json"
  if "$cli" bench-diff \
    "$bench_dir/1/BENCH_smoke.json" "$bench_dir/BENCH_stomped.json" \
    > /dev/null 2>&1; then
    echo "check.sh: bench-diff accepted a baseline stomped to $stomp" >&2
    rm -rf "$bench_dir"
    exit 1
  fi
done
rm -rf "$bench_dir"

# Flight-recorder round trip: a faulted self-healing run forced to dump
# its ring must produce a JSONL artifact the postmortem reader accepts.
fr_out=$(mktemp /tmp/check_flightrec.XXXXXX.jsonl)
"$cli" run compress --self-heal \
  --fault-spec 'corrupt-trace@0.01,budget=12' \
  --dump-flightrec "$fr_out" > /dev/null
"$cli" postmortem "$fr_out" > /dev/null
rm -f "$fr_out"

if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "check.sh: odoc not installed; skipping 'dune build @doc'" >&2
fi

echo "check.sh: all checks passed"
