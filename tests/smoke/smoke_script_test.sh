#!/bin/sh
# Checks that tools/smoke.sh catches a mode-dependent bench and forgives a
# mode-dependent "host" object. Run under the name fig8_detection, the stub
# also writes per-cell exports, which the smoke must compare cell by cell
# and sum for its cross-protocol check.
# Usage: smoke_script_test.sh <source-dir> <work-dir>
set -u
src="$1"
work="$2"
stub="${src}/tests/smoke/stub_bench.sh"
fig8="${work}/fig8_detection"
status=0

# expect <pass|fail> <STUB kind> <bench> [pattern]: the smoke's verdict on
# the bench; a failure must also log <pattern>.
expect() {
  want="$1"
  kind="$2"
  bench="$3"
  pattern="${4:-}"
  log="${work}/${kind}-$(basename "${bench}").log"
  SMOKE_DIR="${work}/${kind}" "${src}/tools/smoke.sh" "${bench}" \
    STUB="${kind}" > "${log}" 2>&1
  got=$?
  if { [ "${want}" = pass ] && [ "${got}" -ne 0 ]; } ||
     { [ "${want}" = fail ] &&
       { [ "${got}" -eq 0 ] || ! grep -q -- "${pattern}" "${log}"; }; }; then
    echo "FAIL: STUB=${kind} $(basename "${bench}") should ${want}" \
      "(exit ${got}) logging '${pattern}'"
    cat "${log}"
    status=1
  else
    echo "ok: STUB=${kind} $(basename "${bench}") -> ${want} (exit ${got})"
  fi
}

mkdir -p "${work}"
ln -sf "${stub}" "${fig8}"
expect pass invariant "${stub}"
expect fail sched_stdout "${stub}"
expect fail jobs_json "${stub}"
expect pass invariant "${fig8}"
expect fail cell_export "${fig8}" "cell001"
expect fail no_detections "${fig8}" "no cell detected"
exit "${status}"
