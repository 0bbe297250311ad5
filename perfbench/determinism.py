#!/usr/bin/env python3
"""Run one workload traced twice with the same seed and compare the counts.

    python3 perfbench/determinism.py --workload descent --seed 1

Both runs execute exactly one round and the traced-only jobs. The job lists
must match; for every count the traced pass records per job (calls of each
wrapped function, Dykstra iterations, descent probes and acceptances,
cb-norm bisections and converged brackets, report bytes) the script prints
whether it repeated exactly on every job. Exits 1 when the job lists differ
or any count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def traced_round(workload: str, seed: int) -> dict:
    cmd = [sys.executable, run.WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, env=run.worker_env(), capture_output=True, text=True,
                         timeout=run.RUN_LIMIT_S * 2, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    a, b = (traced_round(args.workload, args.seed) for _ in range(2))
    names_a = [j["name"] for j in a["traced_jobs"]]
    names_b = [j["name"] for j in b["traced_jobs"]]
    if names_a != names_b:
        print(f"{args.workload}: job lists differ")
        return 1
    keys = sorted({k for j in a["traced_jobs"] + b["traced_jobs"] for k in j["counts"]})
    differing = []
    for key in keys:
        diffs = [(ja["name"], ja["counts"].get(key, 0), jb["counts"].get(key, 0))
                 for ja, jb in zip(a["traced_jobs"], b["traced_jobs"])
                 if ja["counts"].get(key, 0) != jb["counts"].get(key, 0)]
        total = sum(j["counts"].get(key, 0) for j in a["traced_jobs"])
        status = "exact" if not diffs else f"DIFFERS on {len(diffs)} jobs, e.g. {diffs[0]}"
        print(f"{args.workload:14s} {key:52s} total {total:10d}  {status}")
        if diffs:
            differing.append(key)
    print(f"{args.workload}: {len(names_a)} jobs, same job list; "
          f"{len(keys) - len(differing)} of {len(keys)} counts repeat exactly")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
