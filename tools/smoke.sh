#!/usr/bin/env bash
# Determinism smoke for one bench: run it under every execution mode and
# require byte-identical results.
#
# Usage: tools/smoke.sh <bench> [VAR=val ...]
#
#   <bench>   a bench name (runs ${BUILD_DIR:-build}/bench/<bench>) or a
#             path to any executable that follows the bench conventions;
#   VAR=val   extra variables exported to every run.
#
# Every run is at CI scale: the script exports RTAD_SMOKE=1 itself.
# Modes: RTAD_SCHED=dense|event x RTAD_JOBS=1|8, plus RTAD_SCHED=event
# RTAD_JOBS=8 RTAD_BACKEND=fast. Every run must exit 0 (the bench's own
# gates). Across all modes the script then requires:
#   * stdout byte-identical;
#   * the RTAD_BENCH_JSON document byte-identical once its trailing
#     top-level "host" object (host-dependent timings) is cut off, valid
#     JSON (python3 -m json.tool), and "gates_pass": true where present;
#   * for fig8_detection, the same set of per-cell Perfetto and metrics
#     exports (<mode>.{trace,metrics}[.cellNNN].json), byte-identical.
# Bench-specific checks follow the mode sweep (see the case below).
#
# Outputs stay in ${SMOKE_DIR:-${BUILD_DIR:-build}/smoke}/<name>/ as
# <mode>.txt / <mode>.json / <mode>.err for inspection and CI artifacts.
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: tools/smoke.sh <bench> [VAR=val ...]" >&2
  exit 2
fi
bench="$1"
shift
if [[ "${bench}" == */* ]]; then
  exe="${bench}"
else
  exe="${BUILD_DIR:-build}/bench/${bench}"
fi
name="$(basename "${bench}")"
[ -x "${exe}" ] || { echo "smoke: ${exe} is not executable" >&2; exit 2; }
exe="$(cd "$(dirname "${exe}")" && pwd)/$(basename "${exe}")"
knobs=("$@")
export RTAD_SMOKE=1
out="${SMOKE_DIR:-${BUILD_DIR:-build}/smoke}/${name}"
rm -rf "${out}"
mkdir -p "${out}"
cd "${out}"

fail() {
  echo "smoke(${name}): FAIL — $*" >&2
  exit 1
}

# run <tag> [VAR=val ...]: one bench run with the knobs plus the overrides.
run() {
  local tag="$1"
  shift
  if ! env "${knobs[@]}" RTAD_BENCH_JSON="${tag}.json" "$@" "${exe}" \
      > "${tag}.txt" 2> "${tag}.err"; then
    tail -n 20 "${tag}.err" >&2
    fail "${tag} exited non-zero"
  fi
}

same() {
  if ! cmp -s "$1" "$2"; then
    diff "$1" "$2" | head -n 20 >&2 || true
    fail "$1 != $2"
  fi
}

# core <doc.json>: the document minus its trailing top-level "host"
# object, written to <doc>.core; also asserts valid JSON and gates_pass.
core() {
  python3 -m json.tool "$1" > /dev/null || fail "$1 is not valid JSON"
  python3 - "$1" <<'EOF' || fail "$1 failed its JSON checks"
import json, sys
path = sys.argv[1]
text = open(path).read()
doc = json.loads(text)
cut = text.rfind('\n  "host": {')
if "host" in doc:
    assert list(doc)[-1] == "host" and cut >= 0, "host is not the last key"
    text = text[:cut]
assert doc.get("gates_pass", True) is True, "gates_pass is false"
open(path[:-len(".json")] + ".core", "w").write(text)
EOF
}

# exports <tag> <kind>: the <kind> (trace or metrics) export files run
# <tag> wrote, one per cell, as suffixes after "<tag>.".
exports() {
  local f
  for f in "$1.$2".*json; do
    if [ -f "${f}" ]; then echo "${f#"$1".}"; fi
  done
}

# same_exports <a> <b> <kind>: runs a and b wrote the same <kind> export
# files, byte for byte, and at least one.
same_exports() {
  local x a_files
  a_files="$(exports "$1" "$3")"
  [ -n "${a_files}" ] || fail "$1 wrote no $3 export"
  [ "${a_files}" = "$(exports "$2" "$3")" ] ||
    fail "$1 and $2 wrote different $3 export files"
  for x in ${a_files}; do
    same "$1.${x}" "$2.${x}"
  done
}

modes=(dense-j1 dense-j8 event-j1 event-j8 fast-j8)
mode_env() {
  case "$1" in
    dense-j1) echo "RTAD_SCHED=dense RTAD_JOBS=1" ;;
    dense-j8) echo "RTAD_SCHED=dense RTAD_JOBS=8" ;;
    event-j1) echo "RTAD_SCHED=event RTAD_JOBS=1" ;;
    event-j8) echo "RTAD_SCHED=event RTAD_JOBS=8" ;;
    fast-j8) echo "RTAD_SCHED=event RTAD_JOBS=8 RTAD_BACKEND=fast" ;;
  esac
}

# fig8 has no bench JSON; its rtad.metrics.v1 and Perfetto trace exports
# are compared instead.
obs=()
if [ "${name}" = fig8_detection ]; then
  obs=(RTAD_TRACE=@.trace.json RTAD_METRICS=@.metrics.json)
fi

for mode in "${modes[@]}"; do
  # shellcheck disable=SC2046  # mode_env is a list of VAR=val words
  run "${mode}" $(mode_env "${mode}") "${obs[@]//@/${mode}}"
  echo "smoke(${name}): ${mode} ok" >&2
done

ref="${modes[0]}"
has_json=0
[ -f "${ref}.json" ] && has_json=1 && core "${ref}.json"
for mode in "${modes[@]:1}"; do
  same "${ref}.txt" "${mode}.txt"
  if [ "${has_json}" = 1 ]; then
    [ -f "${mode}.json" ] || fail "${mode} wrote no JSON"
    core "${mode}.json"
    same "${ref}.core" "${mode}.core"
  fi
  if [ "${#obs[@]}" -gt 0 ]; then
    same_exports "${ref}" "${mode}" trace
    same_exports "${ref}" "${mode}" metrics
  fi
done
if [ "${#obs[@]}" -gt 0 ]; then
  for x in $(exports "${ref}" trace) $(exports "${ref}" metrics); do
    python3 -m json.tool "${ref}.${x}" > /dev/null ||
      fail "${ref}.${x} is not valid JSON"
  done
fi

case "${name}" in
  fig8_detection)
    # Observability leaves stdout untouched.
    run obs-off RTAD_SCHED=event
    same "${ref}.txt" obs-off.txt
    # Selecting pft explicitly moves no byte of stdout or metrics.
    for mode in dense-j1 event-j8; do
      # shellcheck disable=SC2046
      run "pft-${mode}" $(mode_env "${mode}") RTAD_TRACE_PROTO=pft \
        RTAD_METRICS="pft-${mode}.metrics.json"
      same "${ref}.txt" "pft-${mode}.txt"
      same_exports "${ref}" "pft-${mode}" metrics
    done
    # E-Trace: deterministic on its own, and the same verdicts as PFT.
    for mode in dense-j1 event-j8; do
      # shellcheck disable=SC2046
      run "etrace-${mode}" $(mode_env "${mode}") RTAD_TRACE_PROTO=etrace \
        RTAD_METRICS="etrace-${mode}.metrics.json"
    done
    same etrace-dense-j1.txt etrace-event-j8.txt
    same_exports etrace-dense-j1 etrace-event-j8 metrics
    # Summed over every cell; a run in which no cell detected would pass
    # by comparing zeros, so it fails.
    python3 - "${ref}" etrace-dense-j1 <<'EOF' ||
import glob, json, sys
keys = ("attacks", "detections", "false_positives")
def cells(tag):
    return [json.load(open(p))
            for p in sorted(glob.glob(tag + ".metrics*.json"))]
def totals(docs):
    return {k: sum(doc["detection"][k] for doc in docs) for k in keys}
pft_docs, et_docs = cells(sys.argv[1]), cells(sys.argv[2])
assert len(pft_docs) == len(et_docs) > 0, (len(pft_docs), len(et_docs))
for doc in et_docs:
    assert doc["trace"]["protocol"] == "etrace", doc["trace"]
    assert doc["trace"]["decode_branches"] > 0, doc["trace"]
pft, et = totals(pft_docs), totals(et_docs)
assert pft == et, ("pft", pft, "etrace", et)
assert pft["detections"] > 0, ("no cell detected", pft)
print("cross-protocol verdicts identical, summed over all cells:", pft)
EOF
      fail "E-Trace verdicts differ from PFT, or no cell detected"
    ;;
  serve_throughput)
    # The degrade policy passes its gates and stays deterministic.
    run degrade-dense-j1 RTAD_SERVE_POLICY=degrade RTAD_SCHED=dense \
      RTAD_JOBS=1
    run degrade-event-j8 RTAD_SERVE_POLICY=degrade RTAD_SCHED=event \
      RTAD_JOBS=8
    same degrade-dense-j1.txt degrade-event-j8.txt
    same degrade-dense-j1.json degrade-event-j8.json
    # The deepest overload point reaches both overload paths: the shed
    # policy sheds and the degrade policy degrades.
    python3 - "${ref}.json" degrade-dense-j1.json <<'EOF' ||
import json, sys
def deepest(path):
    return json.load(open(path))["points"][-1]["service"]["fleet"]
shed, degrade = deepest(sys.argv[1]), deepest(sys.argv[2])
assert shed["serve.sessions_shed"] > 0, shed
assert degrade["serve.sessions_degraded"] > 0, degrade
EOF
      fail "deepest load shed nothing under shed or degraded nothing under degrade"
    # With no serve fault plan and no retry budget the fleet document has
    # no failure section: the pre-failover surface is intact.
    ! grep -q '"failure"' "${ref}.json" || fail "zero-fault JSON has failure"
    ! grep -q '"recovered"' "${ref}.json" ||
      fail "zero-fault JSON has recovered"
    ;;
  telemetry_query)
    # The default 32 MiB cap never binds at CI scale. Under a 4 MiB cap
    # pages evict and spill; both modes must evict, print the same stdout
    # and write the same spill bytes. Both runs name one spill path, since
    # stdout prints it; each file is then kept under its mode's name.
    for mode in dense-j1 event-j8; do
      # shellcheck disable=SC2046
      run "evict-${mode}" $(mode_env "${mode}") RTAD_TELEMETRY_CAP_KB=4096 \
        RTAD_TELEMETRY=evict.spill
      mv evict.spill "evict-${mode}.spill"
      core "evict-${mode}.json"
      python3 - "evict-${mode}.json" <<'EOF' ||
import json, sys
store = json.load(open(sys.argv[1]))["store"]
assert store["pages_evicted"] > 0, store
EOF
        fail "evict-${mode} evicted no page"
    done
    same evict-dense-j1.txt evict-event-j8.txt
    same evict-dense-j1.core evict-event-j8.core
    same evict-dense-j1.spill evict-event-j8.spill
    ;;
esac

echo "smoke(${name}): PASS (${#modes[@]} modes, outputs in ${out})" >&2
