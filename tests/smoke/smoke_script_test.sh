#!/bin/sh
# Checks that tools/smoke.sh catches a mode-dependent bench and forgives a
# mode-dependent "host" object.
# Usage: smoke_script_test.sh <source-dir> <work-dir>
set -u
src="$1"
work="$2"
stub="${src}/tests/smoke/stub_bench.sh"
status=0

expect() {
  want="$1"
  kind="$2"
  SMOKE_DIR="${work}/${kind}" "${src}/tools/smoke.sh" "${stub}" \
    STUB="${kind}" > "${work}/${kind}.log" 2>&1
  got=$?
  if { [ "${want}" = pass ] && [ "${got}" -ne 0 ]; } ||
     { [ "${want}" = fail ] && [ "${got}" -eq 0 ]; }; then
    echo "FAIL: STUB=${kind} should ${want} (exit ${got})"
    cat "${work}/${kind}.log"
    status=1
  else
    echo "ok: STUB=${kind} -> ${want} (exit ${got})"
  fi
}

mkdir -p "${work}"
expect pass invariant
expect fail sched_stdout
expect fail jobs_json
exit "${status}"
