#!/usr/bin/env bash
# Layer profile of one perfbench workload: where the host time goes, by
# pipeline layer, sampled in place.
#
# Usage: tools/profile.sh <workload> <seed>
#
#   <workload>  fleet_storm | telemetry_rank (perfbench/run.py's names);
#   <seed>      the workload seed.
#
# Builds rtad_perfbench from perfbench/ into build-prof/ with -pg and
# PROFILE_FLAGS, runs it once for RUN_SECONDS with --jobs 1 --trace 0
# (gprof samples one thread), and groups gprof's flat-profile self time by
# the leading rtad::<layer>:: namespace of each function (perfbench:: is
# its own bucket). A std:: instantiation over exactly one layer's types
# (std::sort of telemetry::RankEntry, a std::function thunk around a core
# lambda) counts for that layer. Everything else (libc, _init, std:: code
# over no or several layers' types) lands in an explicit "unattributed"
# bucket; the shares, unattributed included, sum to the sampled total.
# The script fails when unattributed exceeds MAX_UNATTRIBUTED, because a
# profile that cannot name its time aims nothing.
#
# PROFILE_FLAGS keep every sampled address under its own function's name.
# Identical-code folding (-fipa-icf) lets one body stand for several
# functions. gprof skips the symbols of [clone .part.N] and [clone .isra.N]
# functions and of split-off .cold blocks, so their samples and calls land
# on whatever symbol precedes them in the binary (a hot Simulator::due
# clone read as std::vector<SpecProfile>::~vector, ~100 M calls); partial
# inlining, IPA-SRA and hot/cold partitioning are off so those never exist.
#
# Also reported, from gprof's exact call counts (fleet_storm, where every
# session traces through the PTM):
#   * branches             TraceSource::submit calls (one per retired branch);
#   * groups_per_branch    Simulator::fire_group_at calls per branch;
#   * host_ticks_per_branch  HostCpu::tick calls per branch.
#
# What a -pg build of dynamically linked code cannot see: gprof's histogram
# covers only the executable's own text, so time in shared libraries (libc's
# memcmp and malloc, libm's log and exp, libstdc++'s red-black-tree walks)
# and in libc's mcount call-count hook is never sampled, under any layer or
# as unattributed. The JSON therefore also reports the run's user CPU
# seconds (cpu_s, all threads, set-up included) and coverage = sampled_s /
# cpu_s, the share of that CPU the shares describe: 24 % for fleet_storm
# seed 3 (13.8 of 57.5 s) and 37 % for telemetry_rank seed 3 on a 4-vCPU
# shared x86-64 host. libc's PLT stubs do show, as "_init" in unattributed.
#
# The last stdout line is one JSON object; the flat profile and the
# workload's own result line stay in the run directory printed on stderr.
# Nothing under perfbench/ is written.
set -euo pipefail

MAX_UNATTRIBUTED=0.10
# The workload's --seconds. Its schedule scales with this, and a -pg build
# runs a few times slower than RelWithDebInfo, so 15 s keeps a fleet_storm
# profile near one minute; every committed profile row uses it.
RUN_SECONDS=15
PROFILE_FLAGS="-fno-ipa-icf -fno-partial-inlining -fno-ipa-sra"
PROFILE_FLAGS+=" -fno-reorder-blocks-and-partition"

if [ $# -ne 2 ]; then
  echo "usage: tools/profile.sh <workload> <seed>" >&2
  exit 2
fi
workload="$1"
seed="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/build-prof"
jobs="$(( $(nproc) < 4 ? $(nproc) : 4 ))"

generator=()
if [ ! -f "${build}/CMakeCache.txt" ] && command -v ninja > /dev/null; then
  generator=(-G Ninja)
fi
cmake -S "${root}/perfbench" -B "${build}" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-pg ${PROFILE_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg" >&2
cmake --build "${build}" --target rtad_perfbench -j "${jobs}" >&2

out="${build}/profile-${workload}-${seed}"
rm -rf "${out}"
mkdir -p "${out}"
cd "${out}"
TIMEFORMAT=%3U
{ time "${build}/rtad_perfbench" --workload "${workload}" --seed "${seed}" \
  --seconds "${RUN_SECONDS}" --trace 0 --jobs 1 > result.json 2>&3; } \
  3>&2 2> cpu_s.txt
gprof -b -p "${build}/rtad_perfbench" gmon.out > flat.txt
echo "profile: run directory ${out}" >&2

python3 - flat.txt "${workload}" "${seed}" "${RUN_SECONDS}" \
  "${MAX_UNATTRIBUTED}" "$(cat cpu_s.txt)" <<'PY'
import json
import re
import sys

flat, workload, seed, seconds, max_unattributed, cpu_s = sys.argv[1:]
cpu_s = float(cpu_s)
# time%, cumulative s, self s, [calls, self/call, total/call], name
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
OWNER = re.compile(r"(?:rtad::(\w+)::|(perfbench)::)")


def layer(name):
    """The namespace owning `name`. First the function's own namespace, at
    a depth-0 start position (a template's demangled name begins with its
    return type, so the function itself may start after a space). Failing
    that, a std:: instantiation whose template arguments name exactly one
    layer (std::sort over telemetry::RankEntry) is that layer's work.
    Anything else is unattributed."""
    starts, depth = [0], 0
    for i, c in enumerate(name):
        if c in "<(":
            depth += 1
        elif c in ">)":
            depth -= 1
        elif c == " " and depth == 0:
            starts.append(i + 1)
    for s in starts:
        m = OWNER.match(name, s)
        if m:
            return m.group(1) or m.group(2)
    named = {m.group(1) or m.group(2) for m in OWNER.finditer(name)}
    return named.pop() if len(named) == 1 else "unattributed"


self_s, calls = {}, {}
for line in open(flat):
    m = ROW.match(line)
    if not m:
        continue
    seconds_, count, name = float(m.group(1)), m.group(2), m.group(3).strip()
    owner = layer(name)
    self_s[owner] = self_s.get(owner, 0.0) + seconds_
    if count:
        short = re.sub(r"\(.*", "", name)
        calls[short] = calls.get(short, 0) + int(count)

total = sum(self_s.values())
if total <= 0:
    sys.exit("profile: gprof sampled no time")
ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
shares = {k: v / total for k, v in ranked}
print(f"{'layer':16} {'self_s':>9} {'share':>7}", file=sys.stderr)
for k, share in shares.items():
    print(f"{k:16} {self_s[k]:9.2f} {share:7.1%}", file=sys.stderr)

print(f"sampled {total:.2f} s of {cpu_s:.2f} s user CPU "
      f"(coverage {total / cpu_s:.1%})", file=sys.stderr)

result = {"workload": workload, "seed": int(seed), "seconds": int(seconds),
          "sampled_s": round(total, 2), "cpu_s": round(cpu_s, 2),
          "coverage": round(total / cpu_s, 3),
          "shares": {k: round(v, 4) for k, v in shares.items()}}
branches = calls.get("rtad::coresight::TraceSource::submit", 0)
if branches:
    result["branches"] = branches
    result["groups_per_branch"] = round(
        calls.get("rtad::sim::Simulator::fire_group_at", 0) / branches, 3)
    result["host_ticks_per_branch"] = round(
        calls.get("rtad::cpu::HostCpu::tick", 0) / branches, 3)
    print(f"retired branches {branches}, groups/branch "
          f"{result['groups_per_branch']}, host ticks/branch "
          f"{result['host_ticks_per_branch']}", file=sys.stderr)
print(json.dumps(result))

unattributed = shares.get("unattributed", 0.0)
if unattributed > float(max_unattributed):
    sys.exit(f"profile: FAIL — unattributed share {unattributed:.1%} above "
             f"{float(max_unattributed):.0%}")
PY
