"""The workload process: set up, print READY, run whole rounds, print one JSON result.

Started by ``run.py`` with the BLAS thread variables already set. Everything
it imports from the package comes from ``src/`` of the checkout this file
sits in. With ``--setup-only`` it exits right after READY, so the parent can
time set-up several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import ellis_envelope  # noqa: E402

if not os.path.abspath(ellis_envelope.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise SystemExit(f"ellis_envelope imported from {ellis_envelope.__file__}, not from this checkout")

import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402


def blas_info() -> dict:
    """numpy version, BLAS vendor and the thread count the library reports, where it exposes one."""
    import ctypes
    import glob

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": None,
    }
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def timed(job):
    """(output, seconds, error): a job that raises is a failed job, not a failed run."""
    t0 = time.perf_counter()
    try:
        res = job.run()
    except Exception as exc:
        return None, time.perf_counter() - t0, f"raised {exc!r}"
    return res, time.perf_counter() - t0, None


def run_job(job, jid: int, recorder=None) -> dict:
    """Run a job once, timed (traced when a recorder is given); check it untimed."""
    with spans.job_scope(jid):
        if recorder is None:
            res, dt, err = timed(job)
        else:
            restore = spans.install()
            try:
                with spans.recording(recorder):
                    res, dt, err = timed(job)
            finally:
                restore()
    if err is not None:
        fails = [jobs_mod.Refusal(err)]
    else:
        try:
            fails = job.check(res)
        except Exception as exc:  # an oracle crash on a malformed output is a wrong answer
            fails = [f"oracle error: {exc!r}"]
    wrong = any(not isinstance(f, jobs_mod.Refusal) for f in fails)
    return {"id": jid, "name": job.name, "s": dt, "failures": fails, "wrong_answer": wrong}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    rundir = os.path.join(ROOT, ".perfbench")
    os.makedirs(rundir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=rundir)
    try:
        rounds = [jobs_mod.make_round(args.workload, args.seed, 0, tmp, args.smoke)]
        jobs_mod.warmup(args.workload, tmp)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        records, traced = [], []
        rec = spans.Recorder() if args.trace else None
        for k in range(jobs_mod.round_count(args.seconds, args.trace, args.smoke)):
            if k:
                rounds.append(jobs_mod.make_round(args.workload, args.seed, k, tmp))
            for job in rounds[-1]:
                jid = len(records)
                if rec is None:
                    records.append(run_job(job, jid))
                    continue
                # Traced run: each job runs untraced and traced back to back,
                # in alternating order, so that both see the same host speed
                # and their difference is the cost of tracing.
                if jid % 2:
                    traced.append(run_job(job, jid, rec))
                    records.append(run_job(job, jid))
                else:
                    records.append(run_job(job, jid))
                    traced.append(run_job(job, jid, rec))
        result = {"jobs": records, "rounds": len(rounds)}

        if rec is not None:
            # tracing overhead from the jobs that ran both ways
            untraced_s = sum(r["s"] for r in records)
            overhead = (sum(r["s"] for r in traced) - untraced_s) / untraced_s
            if not args.smoke:
                for k, job in enumerate(jobs_mod.make_traced_only(args.workload, args.seed, tmp)):
                    traced.append(run_job(job, len(records) + k, rec))
            counts = spans.job_counts(rec)
            _check_brackets(rec, traced)
            for t in traced:
                t["counts"] = counts.get(t["id"], {})
            result["traced_jobs"] = traced
            result["per_layer"] = spans.per_layer(rec, counts, sum(t["s"] for t in traced), overhead)
            rec.write(os.path.join(rundir, f"spans-{args.workload}-seed{args.seed}.npz"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = blas_info()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _check_brackets(rec, traced) -> None:
    """Oracle on the traced pass: every cb-norm bracket has lower <= upper."""
    by_id = {t["id"]: t for t in traced}
    bracket = rec.ids.get("spectrahedron.cb_norm_bracket", -1)
    for i, info in rec.info.items():
        if rec.name[i] == bracket and info["lower"] > info["upper"]:
            job = by_id[rec.job[i]]
            job["failures"].append(f"cb bracket lower {info['lower']!r} > upper {info['upper']!r}")
            job["wrong_answer"] = True


if __name__ == "__main__":
    sys.exit(main())
