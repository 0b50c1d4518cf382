#!/bin/sh
# Checks the env layering rule: the libraries below core never read the
# environment. No file under them may include rtad/core/env.hpp or call
# getenv; their config structs default to constants, and the RTAD_* knobs
# enter through core's and serve's from_env() readers only. Static
# libraries do not enforce this at link time, hence this guard.
# Usage: layering_test.sh <source-dir>
set -u
src="$1/src/rtad"
status=0
for layer in sim obs trace fault gpgpu telemetry bus coresight cpu igm mcm \
    ml trim workloads attack; do
  [ -d "${src}/${layer}" ] || { echo "FAIL: ${src}/${layer} missing"; exit 1; }
  hits=$(grep -rnE '#include "rtad/core/env\.hpp"|getenv' "${src}/${layer}")
  if [ -n "${hits}" ]; then
    echo "FAIL: ${layer} reads the environment:"
    echo "${hits}"
    status=1
  else
    echo "ok: ${layer}"
  fi
done
exit "${status}"
