#!/usr/bin/env python3
"""Benchmark of ellis-envelope: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 20 --trace 0

Workloads are ``descent``, ``project-large`` and ``channels-cli`` (see
README.md in this directory), or ``all`` to run the three in turn. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
runs every job twice, untraced and with spans recorded, and reports the
per-layer metrics. Set-up is timed in ``SETUP_SAMPLES`` fresh processes and
reported as their median. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
``failed`` counts jobs that failed any check, ``correct`` is false when a
job gave a wrong answer (as opposed to an error or a result the program did
not certify, which it reports itself).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("descent", "project-large", "channels-cli")

# Set-up is timed this many times per run (the workload process is the last).
SETUP_SAMPLES = 7
# One BLAS thread: the benchmark is a closed loop with one client, and a
# single thread keeps runs on a shared 2-core host steady.
BLAS_THREADS = 1
# The tail percentile: a timed run has at least 40 jobs (two rounds of at
# least 20, see jobs.py), so at least ten lie above it.
TAIL_Q = 0.75
# A run must end within this many seconds, set-up included.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"  # fixed set order, so two runs with one seed do the same work
    env.pop("PYTHONPATH", None)  # the package comes from this checkout's src/ only
    return env


def start_worker(args, extra: list[str], deadline: float):
    """Start the workload process; return (process, seconds until it printed READY)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"workload process failed during set-up (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        stop(proc)
        raise RuntimeError("set-up ran past the run's time limit")
    return proc, ready


def stop(proc, timeout: float = 0.0) -> None:
    """Wait up to ``timeout`` for the process, then kill it; always reap it."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    The mean of the order statistics x_(1..n), the i-th weighted by the mass
    the Beta(p(n+1), (1-p)(n+1)) distribution puts on ((i-1)/n, i/n]. Unlike
    a single order statistic it moves smoothly when some jobs of a kind run
    slower than the others.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200  # midpoint rule on each interval; the weights are normalised below
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_workload(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    smoke = ["--smoke"] if args.smoke else []
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(args, ["--setup-only", *smoke], deadline)
            stop(proc, timeout=30)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up process exited {proc.returncode}")
            setup.append(ready)
    proc, ready = start_worker(args, smoke, deadline)
    setup.append(ready)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError(f"workload ran past {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup"] = setup
    return res


def end_to_end(res: dict) -> dict:
    times = [j["s"] for j in res["jobs"]]
    return {
        "setup_s": statistics.median(res["setup"]),
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": hd_quantile(times, 0.5),
        "job_s.tail": hd_quantile(times, TAIL_Q),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(res: dict) -> dict:
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **res["env"],
        "blas_threads_env": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def report(workload: str, args, res: dict) -> tuple[dict, list[dict]]:
    """Print one workload's block; return its metrics and the records of failed jobs."""
    records = res["jobs"] + res.get("traced_jobs", [])
    failed = [r for r in records if r["failures"]]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  rounds {res['rounds']}  "
          f"jobs {len(res['jobs'])}")
    print(f"  fail_rate {len(failed) / len(records):.4f} ({len(failed)}/{len(records)} jobs)")
    for r in failed:
        kind = "WRONG ANSWER" if r["wrong_answer"] else "FAILED"
        print(f"  {kind} job {r['id']} {r['name']}: {'; '.join(r['failures'])}")
    if args.trace:
        from spans import PER_LAYER_UNITS

        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end(res).items()}
        print(f"  job_s.p50 and job_s.tail are Harrell-Davis estimates of p50 and p{100 * TAIL_Q:.0f} "
              f"of {len(res['jobs'])} jobs; setup_s is the median of {len(res['setup'])} set-ups")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    return metrics, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="the run's length: one round per 15 s, at least two (jobs.round_count)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one round of each workload's smallest jobs")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ellis_envelope", "__init__.py")):
        print(f"error: no ellis_envelope sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict = {}
    attempted = failed = wrong = 0
    env = None
    for name in names:
        args.workload = name
        try:
            res = run_workload(args)
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if env is None:
            env = environment(res)
            print("env " + json.dumps(env, sort_keys=True))
        m, bad = report(name, args, res)
        attempted += len(res["jobs"]) + len(res.get("traced_jobs", []))
        failed += len(bad)
        wrong += sum(r["wrong_answer"] for r in bad)
        metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
