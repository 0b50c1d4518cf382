#!/usr/bin/env bash
# Determinism smoke for one bench: run it under every execution mode and
# require byte-identical results.
#
# Usage: tools/smoke.sh <bench> [VAR=val ...]
#
#   <bench>   a bench name (runs ${BUILD_DIR:-build}/bench/<bench>) or a
#             path to any executable that follows the bench conventions;
#   VAR=val   knobs exported to every run (e.g. RTAD_FAST_TRAIN=1).
#
# Modes: RTAD_SCHED=dense|event x RTAD_JOBS=1|8, plus RTAD_SCHED=event
# RTAD_JOBS=8 RTAD_BACKEND=fast. Every run must exit 0 (the bench's own
# gates). Across all modes the script then requires:
#   * stdout byte-identical;
#   * the RTAD_BENCH_JSON document byte-identical once its trailing
#     top-level "host" object (host-dependent timings) is cut off, valid
#     JSON (python3 -m json.tool), and "gates_pass": true where present.
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
  for ext in trace.json metrics.json; do
    [ -f "${ref}.${ext}" ] || continue
    same "${ref}.${ext}" "${mode}.${ext}"
  done
done
for ext in trace.json metrics.json; do
  [ -f "${ref}.${ext}" ] || continue
  python3 -m json.tool "${ref}.${ext}" > /dev/null ||
    fail "${ref}.${ext} is not valid JSON"
done

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
      same "${ref}.metrics.json" "pft-${mode}.metrics.json"
    done
    # E-Trace: deterministic on its own, and the same verdicts as PFT.
    for mode in dense-j1 event-j8; do
      # shellcheck disable=SC2046
      run "etrace-${mode}" $(mode_env "${mode}") RTAD_TRACE_PROTO=etrace \
        RTAD_METRICS="etrace-${mode}.metrics.json"
    done
    same etrace-dense-j1.txt etrace-event-j8.txt
    same etrace-dense-j1.metrics.json etrace-event-j8.metrics.json
    python3 - "${ref}.metrics.json" etrace-dense-j1.metrics.json <<'EOF' ||
import json, sys
pft = json.load(open(sys.argv[1]))
et = json.load(open(sys.argv[2]))
for key in ("attacks", "detections", "false_positives"):
    assert pft["detection"][key] == et["detection"][key], (
        key, pft["detection"][key], et["detection"][key])
assert et["trace"]["protocol"] == "etrace"
assert et["trace"]["decode_branches"] > 0
print("cross-protocol verdicts identical:",
      {k: pft["detection"][k]
       for k in ("attacks", "detections", "false_positives")})
EOF
      fail "E-Trace verdicts differ from PFT"
    ;;
  serve_throughput)
    # The degrade policy passes its gates and stays deterministic.
    run degrade-dense-j1 RTAD_SERVE_POLICY=degrade RTAD_SCHED=dense \
      RTAD_JOBS=1
    run degrade-event-j8 RTAD_SERVE_POLICY=degrade RTAD_SCHED=event \
      RTAD_JOBS=8
    same degrade-dense-j1.txt degrade-event-j8.txt
    same degrade-dense-j1.json degrade-event-j8.json
    # With no serve fault plan and no retry budget the fleet document has
    # no failure section: the pre-failover surface is intact.
    ! grep -q '"failure"' "${ref}.json" || fail "zero-fault JSON has failure"
    ! grep -q '"recovered"' "${ref}.json" ||
      fail "zero-fault JSON has recovered"
    ;;
esac

echo "smoke(${name}): PASS (${#modes[@]} modes, outputs in ${out})" >&2
