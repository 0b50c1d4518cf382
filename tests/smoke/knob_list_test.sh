#!/bin/sh
# Checks that bench/common.cpp's kKnobs, the list bench::run uses to reject
# a set RTAD_* variable that nothing reads, names exactly the "RTAD_..."
# literals in src/ and bench/ outside the list itself.
# Usage: knob_list_test.sh <source-dir>
set -u
list="$1/bench/common.cpp"
block='/kKnobs\[\] = {/,/^};/'
literals() { grep -oE '"RTAD_[A-Z0-9_]+' | sort -u; }
in_list=$(sed -n "${block}p" "${list}" | literals)
in_code=$( { sed "${block}d" "${list}"
  find "$1/src" "$1/bench" -type f ! -path "${list}" -exec cat {} +; } |
  literals)
status=0
for knob in ${in_list}; do
  echo "${in_code}" | grep -qxF "${knob}" ||
    { echo "FAIL: kKnobs lists ${knob}\", which nothing reads"; status=1; }
done
for knob in ${in_code}; do
  echo "${in_list}" | grep -qxF "${knob}" ||
    { echo "FAIL: ${knob}\" is read but missing from kKnobs"; status=1; }
done
[ -n "${in_list}" ] || { echo "FAIL: no kKnobs list in ${list}"; status=1; }
[ "${status}" -ne 0 ] ||
  echo "ok: kKnobs names the $(echo "${in_list}" | wc -l) knobs read"
exit "${status}"
