#!/usr/bin/env python3
"""Run one rtad benchmark workload and print its result line.

    python3 perfbench/run.py --workload fleet_storm --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first call builds the rtad libraries
and the rtad_perfbench binary from ../src into .bench_build/ (CMake); later
calls reuse that build. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The traced run also writes its span log to
.bench_build/spans/<workload>-<seed>.jsonl.

Output check: rtad_perfbench hashes every simulated output of the run, per
operation and as a whole. The hashes must equal those recorded for
(workload, seconds, seed) in perfbench/digests.json, so traced and untraced
runs of a seed are checked against the same record. Each mismatched
operation counts as failed; a mismatch or a failed gate prints the result
with "correct": false and exits 1. A seed with no record is checked only by
the run's own repeats and gates, with a warning on stderr.

    python3 perfbench/run.py --record --workload W --seeds 0-63 --seconds 45

recomputes the digests of those seeds and writes them to digests.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "rtad_perfbench"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("fleet_storm", "telemetry_rank")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build rtad_perfbench once per checkout (locked)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no rtad sources at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "rtad_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, trace, spans=None, digest_only=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--jobs", str(max(1, min(4, os.cpu_count() or 1))),
           "--digest-only", "1" if digest_only else "0"]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"rtad_perfbench exited with {proc.returncode}")
        sys.exit(proc.returncode or 1)
    return json.loads(lines[-1])


def load_json(path, default):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return default


def compare(result, recorded):
    """Count operations whose digest differs from the recorded one."""
    ops, rec = result["op_digests"], recorded["ops"]
    bad = sum(a != b for a, b in zip(ops, rec)) + abs(len(ops) - len(rec))
    if bad or result["digest"] != recorded["digest"]:
        log(f"digest {result['digest']} differs from digests.json "
            f"{recorded['digest']} ({bad} operation(s) differ)")
        return max(bad, 1)
    return 0


def declared_metrics(trace):
    spec = load_json(ROOT / "BENCHMARK.json", None)
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record the digests of --seeds into digests.json")
    ap.add_argument("--seeds", help="seed range for --record, e.g. 0-15")
    args = ap.parse_args()
    build()

    key = f"{args.workload}/{args.seconds}"
    if args.record:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        table = load_json(DIGESTS, {})
        for seed in range(lo, hi + 1):
            r = run_binary(args.workload, seed, args.seconds, False, digest_only=True)
            if not all(g["pass"] for g in r["gates"]) or r["failed"]:
                log(f"seed {seed}: gates or repeats failed; not recorded")
                sys.exit(1)
            table.setdefault(key, {})[str(seed)] = {
                "digest": r["digest"], "ops": r["op_digests"]}
            log(f"seed {seed}: {r['digest']}")
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    if args.seed is None:
        ap.error("--seed is required")

    spans = None
    if args.trace:
        (BUILD / "spans").mkdir(exist_ok=True)
        spans = BUILD / "spans" / f"{args.workload}-{args.seed}.jsonl"
    r = run_binary(args.workload, args.seed, args.seconds, args.trace, spans)

    recorded = load_json(DIGESTS, {}).get(key, {}).get(str(args.seed))
    if recorded is None:
        log(f"WARNING: no digest recorded for {key} seed {args.seed} in "
            "perfbench/digests.json; outputs are checked only by the run's "
            "own repeats and gates")
        mismatch = 0
    else:
        mismatch = compare(r, recorded)
    failed = r["failed"] + mismatch
    gates_ok = True
    for g in r["gates"]:
        if not g["pass"]:
            log(f"gate failed: {g['name']}")
            gates_ok = False

    if args.trace:
        metrics = r["per_layer"]
        metrics["fail_frac"]["value"] = failed / r["attempted"]
        log(f"spans: {spans}")
    else:
        metrics = r["end_to_end"]

    names_ok = True
    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        log("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}")
        names_ok = False
    if declared is not None:
        metrics = {name: metrics[name] for name in declared if name in metrics}

    correct = gates_ok and mismatch == 0 and names_ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
