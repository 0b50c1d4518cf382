#!/bin/sh
# Stand-in bench for smoke_script_test.sh. It prints a fixed stdout and
# writes a JSON document whose trailing "host" object differs per mode.
#   STUB=invariant        nothing else varies: the smoke must pass;
#   STUB=sched_stdout     RTAD_SCHED leaks into stdout: the smoke must fail;
#   STUB=jobs_json        RTAD_JOBS leaks outside "host": the smoke must fail.
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
