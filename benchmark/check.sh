#!/usr/bin/env bash
# Smoke-checks the benchmark against its contract. From the repo root:
#
#   benchmark/check.sh            # all four workloads, ~3 minutes
#   benchmark/check.sh mem3-write # one workload
#
# For every workload it runs the BENCHMARK.json command in smoke mode
# (--seconds 10: phases of a few seconds, one reconfiguration cycle) once
# untraced and twice traced with the same seed, and verifies that
#   * each run exits 0 and ends in one JSON line with exactly the keys
#     correct / attempted / failed / metrics, correct == true, failed == 0;
#   * --trace 0 reports exactly the end_to_end names of BENCHMARK.json and
#     --trace 1 exactly its per_layer names, each once, with a finite value
#     and the declared unit, and each also printed once in the readable part;
#   * the counts of the traced loop (single thread + logical clock + seed)
#     are identical across the two same-seed traced runs.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - "$@" <<'PY'
import json, math, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
SECONDS = "10"
# Traced-loop counts that must repeat exactly for equal seeds.
COUNTS = [
    "net.wire_bytes_per_op", "net.msgs_per_op", "core.entries_per_append",
    "core.read_probe_rounds_per_read", "storage.syncs_per_op", "kv.snapshots",
    "kv.snapshot_bytes",
]

def run(workload, trace, seed="1"):
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", SECONDS, "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {lines[-1][:200]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        sys.exit(f"FAIL {workload} trace={trace}: missing {sorted(missing)} extra {sorted(extra)}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            sys.exit(f"FAIL {workload} trace={trace}: {m['name']} = {got}")
        printed = [l for l in lines[:-1] if l.split() and l.split()[0] == m["name"]]
        if len(printed) != 1:
            sys.exit(f"FAIL {workload} trace={trace}: {m['name']} printed {len(printed)} times")
    return result["metrics"]

for w in workloads:
    run(w, 0)
    first, second = run(w, 1), run(w, 1)
    for name in COUNTS:
        if first[name]["value"] != second[name]["value"]:
            sys.exit(f"FAIL {w}: traced count {name} differs between same-seed runs: "
                     f"{first[name]['value']} vs {second[name]['value']}")
    print(f"ok {w}: {len(spec['end_to_end'])} end-to-end + {len(spec['per_layer'])} per-layer "
          f"metrics, traced counts repeat")
print("benchmark check passed")
PY
