#!/usr/bin/env bash
# Pre-merge static-contract gate.  Run from the repo root:
#
#   scripts/ci_checks.sh
#
# Stages (in order; the final summary names each stage PASS/FAIL/SKIP so
# a failed stage is identifiable from the last lines of CI output):
#
#    1. grb_lint       — fast regex spec-conformance tier (pure Python)
#    2. grb_analyze    — AST/call-graph conformance tier: no-alloc-under-
#                        lock zones, barrier-before-read, fusion grant
#                        coverage, atomic memory-order explicitness,
#                        entry-point parity (libclang when available,
#                        self-contained text frontend otherwise)
#    3. build+ctest    — default preset, full tier-1 suite
#    4. format-ablate  — the differential suites rerun under each forced
#                        GRB_FORMAT=csr|hyper|bitmap|dense: every matrix
#                        storage format must reproduce the CSR baseline
#                        bitwise (DESIGN.md §15; vectors have one layout)
#    5. telemetry      — obs-labeled tests: counter oracles plus the
#                        GRB_TRACE → grb_trace_summarize.py pipeline
#    6. observability  — quickstart under GRB_FLIGHT_RECORDER + GRB_METRICS;
#                        the Prometheus exposition must parse and carry the
#                        per-op quantiles + memory gauges (grb_prom_check.py)
#    7. attribution    — per-context tenant attribution: the watchdog
#                        suite (a synthetic stall must trip a flight-
#                        recorder dump naming the owning context) plus the
#                        multitenant_scrape example, whose exposition must
#                        carry two distinct context="..." label sets
#                        (grb_prom_check.py --require-contexts 2)
#    8. explain        — decision audit + profiler degradation: the
#                        explain_demo pipeline runs with perf events
#                        forced unavailable (GRB_PERF_EVENTS=0); the
#                        GxB_Explain output must carry a plan, the
#                        GRB_STATS_JSON dump must join cleanly in
#                        grb_prof_report.py, the exposition must carry
#                        the decision families and a degraded (non-perf)
#                        profiler backend (grb_prom_check.py
#                        --require-decisions --require-prof-backend),
#                        and the forced-fallback profiler test must pass
#    9. thread-safety  — Clang -Wthread-safety -Werror=thread-safety build
#                        (skipped when clang++ is absent; the annotations
#                        compile as no-ops elsewhere)
#   10. clang-tidy     — bugprone-*/concurrency-*/performance-* profile
#                        gated by the per-check warning-count baseline
#                        (tools/grb_tidy_check.py; skipped when clang-tidy
#                        is absent)
#   11. bench          — every bench binary runs from bench_artifacts/ so
#                        each BENCH_*.json is archived (previously only the
#                        m4/m5/m6 gate trio ran here and every other
#                        bench's JSON landed in whatever cwd it was run
#                        from and was lost).  The gate benches (m4/m5/m6/m7)
#                        run 3 repetitions; the rest run with a short
#                        min-time just to refresh their trajectories.
#                        tools/bench_compare.py diffs against
#                        bench_artifacts/baseline/ when present (advisory:
#                        shared boxes are noisy)
#   12. perfbench-smoke — one 1 s run of each end-to-end benchmark
#                        workload (pagerank, ktruss, ingest; perfbench/
#                        run.py); fails unless every run reports
#                        "correct": true and "failed": 0, so a rank
#                        mismatch, a wrong truss or a pending-tuple fold
#                        that breaks the full-graph check is caught
#                        before the benchmark runs
#   13. asan           — AddressSanitizer build + tsan-labeled tests
#                        (skipped unless GRB_CI_ASAN=1)
#   14. ubsan          — UndefinedBehaviorSanitizer build + tsan-labeled
#                        tests (skipped unless GRB_CI_UBSAN=1)
#   15. tsan           — ThreadSanitizer build + tsan-labeled tests
#                        (skipped unless GRB_CI_TSAN=1; the slowest stage,
#                        and the tsan preset also runs in its own lane)
#
# Any stage that runs and fails fails the gate.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
failed=0

stage_names=()
stage_results=()

note() { printf '\n== stage %s ==\n' "$*"; }

# record <name> <status>  where status is PASS, FAIL, or SKIP
record() {
  stage_names+=("$1")
  stage_results+=("$2")
  if [ "$2" = FAIL ]; then failed=1; fi
}

note "1/15 grb_lint (regex spec conformance)"
if python3 tools/grb_lint.py --json grb_lint_report.json; then
  record grb_lint PASS
else
  record grb_lint FAIL
fi

note "2/15 grb_analyze (AST/call-graph conformance)"
if python3 tools/grb_analyze.py --json grb_analyze_report.json; then
  record grb_analyze PASS
else
  record grb_analyze FAIL
fi

note "3/15 default build + tests"
cmake --preset default >/dev/null
cmake --build build -j "$JOBS"
if (cd build && ctest --output-on-failure -j "$JOBS"); then
  record build+ctest PASS
else
  record build+ctest FAIL
fi

note "4/15 format ablation (differential suites under each GRB_FORMAT)"
# Every forced matrix storage format must reproduce the CSR baseline
# bitwise (GRB_FORMAT governs matrices only; vectors are always sparse).
# The differential suites build their own inputs, so the env override
# genuinely changes what the publishes store.
ablate_ok=1
for fmt in csr hyper bitmap dense; do
  echo "-- GRB_FORMAT=$fmt"
  GRB_FORMAT=$fmt ./build/tests/grb_parallel_tests \
      --gtest_filter='DiffOracle.*:SpgemmDiff.*:FusionDiff.*:FormatDiff.*:DescTranspose.*' \
      --gtest_brief=1 || ablate_ok=0
done
if [ "$ablate_ok" = 1 ]; then record format-ablate PASS; else record format-ablate FAIL; fi

note "5/15 telemetry (obs-labeled tests: counters + trace pipeline)"
if (cd build && ctest -L obs --output-on-failure); then
  record telemetry PASS
else
  record telemetry FAIL
fi

note "6/15 observability (flight recorder + GRB_METRICS exposition)"
obs_ok=1
obs_dir=$(mktemp -d)
GRB_FLIGHT_RECORDER=1024 GRB_METRICS="$obs_dir/metrics.prom" \
  ./build/examples/quickstart >/dev/null || obs_ok=0
if [ -s "$obs_dir/metrics.prom" ]; then
  python3 tools/grb_prom_check.py "$obs_dir/metrics.prom" \
      --require-op GrB_mxm || obs_ok=0
else
  echo "FAILED: GRB_METRICS produced no exposition at $obs_dir/metrics.prom"
  obs_ok=0
fi
rm -rf "$obs_dir"
if [ "$obs_ok" = 1 ]; then record observability PASS; else record observability FAIL; fi

note "7/15 attribution (watchdog stall report + two-tenant scrape)"
attr_ok=1
# Synthetic stalls must trip the watchdog and name the owning context.
(cd build && ctest -R WatchdogTest --output-on-failure) || attr_ok=0
# Two concurrent tenants must surface as distinct context="..." labels.
attr_dir=$(mktemp -d)
GRB_METRICS="$attr_dir/metrics.prom" \
  ./build/examples/multitenant_scrape >/dev/null || attr_ok=0
if [ -s "$attr_dir/metrics.prom" ]; then
  python3 tools/grb_prom_check.py "$attr_dir/metrics.prom" \
      --require-op GrB_mxm --require-contexts 2 || attr_ok=0
else
  echo "FAILED: multitenant_scrape produced no exposition at" \
       "$attr_dir/metrics.prom"
  attr_ok=0
fi
rm -rf "$attr_dir"
if [ "$attr_ok" = 1 ]; then record attribution PASS; else record attribution FAIL; fi

note "8/15 explain (decision audit + profiler forced degradation)"
# GRB_PERF_EVENTS=0 models a locked-down box (perf_event_open denied):
# the profiler must come up on the CPU-time fallback, the decision
# audit must still explain the plan, and every downstream consumer —
# the stats-JSON join, the Prometheus exposition — must hold together.
exp_ok=1
exp_dir=$(mktemp -d)
GRB_PERF_EVENTS=0 GRB_PROF=1 \
  GRB_STATS_JSON="$exp_dir/stats.json" GRB_METRICS="$exp_dir/metrics.prom" \
  ./build/examples/explain_demo >"$exp_dir/explain.txt" || exp_ok=0
if ! grep -q "decision audit:" "$exp_dir/explain.txt"; then
  echo "FAILED: explain_demo produced no plan:"
  cat "$exp_dir/explain.txt"
  exp_ok=0
fi
python3 tools/grb_prof_report.py "$exp_dir/stats.json" || exp_ok=0
python3 tools/grb_prom_check.py "$exp_dir/metrics.prom" \
    --require-decisions --require-prof-backend any || exp_ok=0
if grep -q 'grb_prof_backend_info{backend="perf"}' "$exp_dir/metrics.prom"
then
  echo "FAILED: GRB_PERF_EVENTS=0 did not force the profiler off perf"
  exp_ok=0
fi
# The forced-fallback unit tests under the same denial.
GRB_PERF_EVENTS=0 ./build/tests/grb_obs_tests \
    --gtest_filter='ProfFallbackTest.*:ExplainTest.*' --gtest_brief=1 \
    || exp_ok=0
rm -rf "$exp_dir"
if [ "$exp_ok" = 1 ]; then record explain PASS; else record explain FAIL; fi

note "9/15 thread-safety analysis (clang)"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
        -DGRB_THREAD_SAFETY_ANALYSIS=ON >/dev/null
  if cmake --build build-tsa -j "$JOBS"; then
    record thread-safety PASS
  else
    record thread-safety FAIL
  fi
else
  echo "SKIPPED: clang++ not found; capability annotations are no-ops" \
       "under this toolchain"
  record thread-safety SKIP
fi

note "10/15 clang-tidy (bugprone/concurrency/performance vs baseline)"
if command -v clang-tidy >/dev/null 2>&1; then
  # The default preset exports compile_commands.json; grb_tidy_check
  # fails only on warnings above the checked-in per-check baseline.
  if python3 tools/grb_tidy_check.py --build-dir build; then
    record clang-tidy PASS
  else
    record clang-tidy FAIL
  fi
else
  echo "SKIPPED: clang-tidy not found"
  record clang-tidy SKIP
fi

note "11/15 benchmarks (all benches, BENCH_*.json archived)"
bench_ok=1
cmake --build build -j "$JOBS"
mkdir -p bench_artifacts
# Gate benches: 3 repetitions, medians only — these are the trajectories
# bench_compare.py holds against the baseline.
gate_benches="bench_m4_masked_mxm bench_m5_spgemm_adaptive bench_m6_fusion \
bench_m7_formats"
for bench in $gate_benches; do
  (cd bench_artifacts && \
   "../build/bench/$bench" --benchmark_repetitions=3 \
       --benchmark_report_aggregates_only=true \
       >/dev/null) || bench_ok=0
done
# Everything else: one short pass, purely so every bench's BENCH_*.json
# lands in bench_artifacts/ instead of being scattered (or never written)
# — each binary dumps its JSON into whatever cwd it runs from.
for exe in build/bench/bench_*; do
  [ -x "$exe" ] || continue
  name=$(basename "$exe")
  case " $gate_benches " in *" $name "*) continue ;; esac
  (cd bench_artifacts && "../$exe" --benchmark_min_time=0.05 >/dev/null) \
    || bench_ok=0
done
echo "archived: $(ls bench_artifacts/BENCH_*.json 2>/dev/null | tr '\n' ' ')"
if [ -d bench_artifacts/baseline ]; then
  # Advisory only: flag >10% median slowdowns against the stored
  # baseline without failing the gate (shared boxes are noisy).
  python3 tools/bench_compare.py bench_artifacts/baseline bench_artifacts \
    || echo "NOTICE: bench regressions above; gate not failed (advisory)"
else
  echo "no bench_artifacts/baseline/ — copy BENCH_*.json there to enable" \
       "regression comparison"
fi
if [ "$bench_ok" = 1 ]; then record bench PASS; else record bench FAIL; fi

note "12/15 perfbench smoke (every workload's checkers)"
# A wrong result shows up as "correct": false (rank, truss or full-graph
# check); the last stdout line of each run is its result object.
smoke_ok=1
for workload in pagerank ktruss ingest; do
  smoke_out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
                  --seconds 1 --trace 0 | tail -n 1) || smoke_out=""
  echo "-- $workload: $smoke_out"
  printf '%s' "$smoke_out" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' ||
    smoke_ok=0
done
if [ "$smoke_ok" = 1 ]; then
  record perfbench-smoke PASS
else
  record perfbench-smoke FAIL
fi

# sanitizer_stage <name> <preset> <gate-env-name>
sanitizer_stage() {
  local name=$1 preset=$2 gate=$3
  if [ "${!gate:-0}" = "1" ]; then
    local ok=1
    cmake --preset "$preset" >/dev/null
    cmake --build --preset "$preset" -j "$JOBS" || ok=0
    if [ "$ok" = 1 ]; then ctest --preset "$preset" || ok=0; fi
    if [ "$ok" = 1 ]; then record "$name" PASS; else record "$name" FAIL; fi
  else
    echo "SKIPPED: set $gate=1 to run the $name stage here"
    record "$name" SKIP
  fi
}

note "13/15 address sanitizer (tsan-labeled tests under asan)"
sanitizer_stage asan asan GRB_CI_ASAN

note "14/15 undefined-behavior sanitizer (tsan-labeled tests under ubsan)"
sanitizer_stage ubsan ubsan GRB_CI_UBSAN

note "15/15 thread sanitizer (tsan-labeled tests)"
sanitizer_stage tsan tsan GRB_CI_TSAN

printf '\n== summary ==\n'
for i in "${!stage_names[@]}"; do
  printf '  %-14s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
done
if [ "$failed" -ne 0 ]; then
  bad=""
  for i in "${!stage_names[@]}"; do
    if [ "${stage_results[$i]}" = FAIL ]; then bad="$bad ${stage_names[$i]}"; fi
  done
  printf 'FAILED:%s\n' "$bad"
  exit 1
fi
echo "OK: all executed stages passed"
