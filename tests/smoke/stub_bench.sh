#!/bin/sh
# Stand-in bench for smoke_script_test.sh. It prints a fixed stdout, writes
# a JSON document whose trailing "host" object differs per mode and, for
# each of RTAD_TRACE / RTAD_METRICS that is set, two per-cell exports named
# as a multi-cell fig8 run names them (<path minus .json>.cellNNN.json).
#   STUB=invariant        nothing else varies: the smoke must pass;
#   STUB=sched_stdout     RTAD_SCHED leaks into stdout: the smoke must fail;
#   STUB=jobs_json        RTAD_JOBS leaks outside "host": the smoke must fail;
#   STUB=cell_export      RTAD_JOBS leaks into the second cell's exports:
#                         the smoke must fail;
#   STUB=no_detections    no cell detects under either protocol: the fig8
#                         smoke must fail.
echo "stub bench"
[ "${STUB}" = sched_stdout ] && echo "sched=${RTAD_SCHED}"
jobs=0
[ "${STUB}" = jobs_json ] && jobs="${RTAD_JOBS}"
cat > "${RTAD_BENCH_JSON}" <<JSON
{
  "schema": "stub",
  "jobs": ${jobs},
  "gates_pass": true,
  "host": {
    "mode": "${RTAD_SCHED}-${RTAD_JOBS}-${RTAD_BACKEND:-cycle}"
  }
}
JSON
detections=1
[ "${STUB}" = no_detections ] && detections=0
for path in "${RTAD_TRACE}" "${RTAD_METRICS}"; do
  [ -n "${path}" ] || continue
  for cell in 000 001; do
    fp=0
    [ "${STUB}" = cell_export ] && [ "${cell}" = 001 ] && fp="${RTAD_JOBS}"
    cat > "${path%.json}.cell${cell}.json" <<JSON
{
  "detection": {"attacks": 2, "detections": ${detections},
                "false_positives": ${fp}},
  "trace": {"protocol": "${RTAD_TRACE_PROTO:-pft}", "decode_branches": 8}
}
JSON
  done
done
exit 0
