#!/bin/sh
# Checks that a malformed RTAD_* knob, or a set one that no entry point
# reads, makes a bench exit with status 2 and name the variable on stderr
# (the bench/common.hpp contract), instead of ending in std::terminate or
# running a shape nobody asked for.
# Usage: bench_knob_test.sh <bench-bin-dir> <work-dir>
set -u
bin="$1"
work="$2"
status=0

expect_exit2() {
  bench="$1"
  knob="$2"
  value="$3"
  (cd "${work}" && env "${knob}=${value}" "${bin}/${bench}") \
    > "${work}/${bench}.out" 2> "${work}/${bench}.err"
  got=$?
  if [ "${got}" -ne 2 ] || ! grep -q "${knob}" "${work}/${bench}.err"; then
    echo "FAIL: ${knob}=${value} ${bench} exited ${got}; stderr:"
    cat "${work}/${bench}.err"
    status=1
  else
    echo "ok: ${knob}=${value} ${bench} -> exit 2 naming ${knob}"
  fi
}

mkdir -p "${work}"
expect_exit2 ablation_cu_scaling RTAD_JOBS abc
expect_exit2 ablation_elm_vs_mlp RTAD_JOBS abc
expect_exit2 ablation_energy RTAD_JOBS abc
expect_exit2 fig6_overhead RTAD_SCHED bogus
expect_exit2 fig7_transfer RTAD_SCHED bogus
expect_exit2 ablation_rule_based RTAD_SCHED bogus
# Every SoC-running bench the determinism smokes drive reads the execution
# knobs before it trains.
for bench in fig8_detection fault_sweep serve_throughput serve_failover \
    ensemble_drift; do
  expect_exit2 "${bench}" RTAD_SCHED bogus
  expect_exit2 "${bench}" RTAD_BACKEND bogus
done
expect_exit2 fig8_detection RTAD_TRACE_PROTO bogus
expect_exit2 fig8_detection RTAD_FAULTS no_such_key=1
expect_exit2 serve_throughput RTAD_SERVE_POLICY bogus
expect_exit2 fault_sweep RTAD_SMOKE yes
# A knob this tree no longer reads: it used to trim fig8 to one benchmark.
expect_exit2 fig8_detection RTAD_FIG8_BENCHMARKS astar
# Knobs this tree no longer reads: the ensemble, retry, checkpoint-cap and
# page-size fields are set in code by the callers that need them.
expect_exit2 serve_throughput RTAD_ENSEMBLE_RETRAIN_US 5000
expect_exit2 serve_failover RTAD_SERVE_RETRY 6
expect_exit2 telemetry_query RTAD_TELEMETRY_PAGE 8
# The benches with no knob of their own still refuse a stale one.
expect_exit2 ablation_ta_units RTAD_ENSEMBLE_SIZE 3
expect_exit2 table1_synthesis RTAD_ENSEMBLE_WINDOW 5000
expect_exit2 table2_trimming RTAD_SERVE_CHECKPOINT_CAP_KB 1
exit "${status}"
