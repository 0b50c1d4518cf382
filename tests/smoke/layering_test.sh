#!/bin/sh
# Checks two layering rules that static libraries do not enforce at link
# time:
#   * the env rule: the libraries below core never read the environment. No
#     file under them may include rtad/core/env.hpp or call getenv; their
#     config structs default to constants, and the RTAD_* knobs enter
#     through core's and serve's from_env() readers only;
#   * one training path: train_model_side( and std::call_once occur only in
#     core/experiment.cpp (the trainers) and core/experiment_runner.cpp
#     (TrainedModelCache, the one train-once cache), plus the trainer's
#     declaration in core/experiment.hpp.
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
hits=$(grep -rnE 'train_model_side\(|std::call_once' "${src}" |
  grep -vE "^${src}/core/experiment(_runner)?\.cpp:" |
  grep -vE "^${src}/core/experiment\.hpp:[0-9]+:void train_model_side\(")
if [ -n "${hits}" ]; then
  echo "FAIL: training outside TrainedModelCache:"
  echo "${hits}"
  status=1
else
  echo "ok: one training path"
fi
exit "${status}"
