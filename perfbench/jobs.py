"""Workloads: the jobs of one round, generated from a seed, and their oracles.

A round is a fixed list of job kinds; a run executes whole rounds in a
closed loop with one client. The kinds, their counts and their order are
the same for every seed, so runs with different seeds time the same mix;
the seed draws each job's library seed and random inputs.

Every job returns the program's output and is then checked, outside the
timed region, by an oracle written here: closed-form ranks, certificates and
exit codes, membership and idempotency residuals recomputed from the
returned Choi matrices, Cesaro agreement, and cb-norm bounds recomputed from
witnesses. A check returns a list of failure messages, empty when the job
passed. A ``Refusal`` is a failure the program reported itself (a result it
did not certify, a non-zero exit code); any other failure is a wrong answer.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ellis_envelope import boundary, channels, cli, envelope, semigroups, spectrahedron

TOL = 1e-6  # certification tolerance of the library and the CLI
PSD_TOL = 1e-7

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


class Refusal(str):
    """A failure the program reported itself, as opposed to a wrong answer."""


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


# ------------------------------------------------------------------------
# helpers shared by the oracles (independent of the package's own checks)


def superop(choi: np.ndarray, n: int) -> np.ndarray:
    """S[(a,b),(i,j)] = choi[(i,a),(j,b)] for a map on M_n."""
    return choi.reshape(n, n, n, n).transpose(1, 3, 0, 2).reshape(n * n, n * n)


def apply(choi: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    return (superop(choi, n) @ x.reshape(-1)).reshape(n, n)


def ucp_failures(choi: np.ndarray, n: int, fixed, what: str) -> list[str]:
    """Hermitian, CP, unital, and fixing every matrix in ``fixed``."""
    out = []
    scale = max(1.0, float(np.linalg.norm(choi)))
    herm_dev = float(np.linalg.norm(choi - choi.conj().T))
    if herm_dev > TOL * scale:
        out.append(f"{what}: Choi not Hermitian ({herm_dev:.2e})")
    wmin = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
    if wmin < -PSD_TOL * scale:
        out.append(f"{what}: not CP (min Choi eigenvalue {wmin:.2e})")
    unital = float(np.linalg.norm(apply(choi, n, np.eye(n)) - np.eye(n)))
    if unital > TOL:
        out.append(f"{what}: not unital ({unital:.2e})")
    for k, x in enumerate(fixed):
        dev = float(np.linalg.norm(apply(choi, n, x) - x))
        if dev > TOL:
            out.append(f"{what}: moves fixed element {k} by {dev:.2e}")
    return out


def idempotent_failures(choi: np.ndarray, n: int, what: str) -> list[str]:
    s = superop(choi, n)
    res = float(np.linalg.norm(s @ s - s))
    return [f"{what}: not idempotent ({res:.2e})"] if res > TOL else []


def commutant_dim(u: np.ndarray) -> int:
    """dim {x : u x u^* = x} for a unitary u: sum of squared eigenvalue multiplicities."""
    w = np.linalg.eigvals(u)
    groups: list[int] = []
    used = np.zeros(len(w), dtype=bool)
    for i in range(len(w)):
        if used[i]:
            continue
        same = np.abs(w - w[i]) < 1e-9
        used |= same
        groups.append(int(same.sum()))
    return sum(m * m for m in groups)


def cb_witness_lower(choi: np.ndarray, n: int) -> float:
    """max over norm-one witnesses X of ||(phi (x) id_n)(X)||: a lower bound on ||phi||_cb."""
    s4 = superop(choi, n).reshape(n, n, n, n)
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)
    v = np.eye(n).reshape(-1) / np.sqrt(n)
    best = 0.0
    for x in (np.eye(n * n), swap, np.outer(v, v)):
        y = np.einsum("cdij,iajb->cadb", s4, x.reshape(n, n, n, n)).reshape(n * n, n * n)
        best = max(best, float(np.linalg.norm(y, 2)))
    return best


def herm_noise(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def size(kind: str) -> int:
    """The matrix size in a job kind's name, e.g. 24 for "cesaro24"."""
    return int("".join(ch for ch in kind if ch.isdigit()))


def diag_units(n: int) -> list[np.ndarray]:
    return [np.diag(np.eye(n)[i]).astype(complex) for i in range(n)]


# ------------------------------------------------------------------------
# descent: library envelopes and boundaries with closed-form answers


def _envelope_job(name: str, mats: list[np.ndarray], rank: int, seed: int) -> Job:
    def run():
        space = spectrahedron.OperatorSubspace.from_matrices(mats)
        return envelope.compute_envelope(space, seed=seed)

    def check(res) -> list[str]:
        if res.certificate != "certified":
            return [Refusal(f"certificate {res.certificate}")]
        out = []
        if res.rank != rank:
            out.append(f"rank {res.rank}, expected {rank}")
        if res.inclusion_residual > TOL:
            out.append(f"E not in range ({res.inclusion_residual:.2e})")
        if not res.choi_effros.ok:
            out.append(f"Choi-Effros associativity {res.choi_effros.associativity_residual:.2e}")
        e = res.idempotent
        out += ucp_failures(e.choi, e.dim_in, mats, "idempotent")
        out += idempotent_failures(e.choi, e.dim_in, "idempotent")
        return out

    return Job(name, run, check)


def _corner_job(name: str, seed: int) -> Job:
    """Envelope of span{E12} in M_2, which the library computes through the 2 x 2 lift."""

    def run():
        return envelope.compute_envelope(spectrahedron.OperatorSubspace.from_matrices([E12]), seed=seed)

    def check(res) -> list[str]:
        if res.certificate != "certified":
            return [Refusal(f"certificate {res.certificate}")]
        out = []
        if res.rank != 1:
            out.append(f"rank {res.rank}, expected 1")
        if res.inclusion_residual > TOL:
            out.append(f"E not in range ({res.inclusion_residual:.2e})")
        if not res.choi_effros.ok:
            out.append(f"Choi-Effros associativity {res.choi_effros.associativity_residual:.2e}")
        # the idempotent lives on M_4 and fixes the lifted system, spanned by
        # the two diagonal block units, E12 in the upper-right corner and its adjoint
        z = np.zeros((2, 2), dtype=complex)
        lifted = [np.block([[I2, z], [z, z]]), np.block([[z, z], [z, I2]]), np.block([[z, E12], [z, z]])]
        lifted.append(lifted[-1].conj().T)
        e = res.idempotent
        out += ucp_failures(e.choi, e.dim_in, lifted, "idempotent")
        out += idempotent_failures(e.choi, e.dim_in, "idempotent")
        dev = float(np.linalg.norm(apply(res.corner_map.choi, 2, E12) - E12))
        if dev > TOL:
            out.append(f"corner map moves E12 by {dev:.2e}")
        return out

    return Job(name, run, check)


def _boundary_job(name: str, n: int, u: np.ndarray, seed: int) -> Job:
    def run():
        space = spectrahedron.OperatorSubspace.from_matrices([np.eye(n, dtype=complex)])
        return boundary.compute_boundary(space, channels.ChannelMap.conjugation(u), seed=seed)

    def check(res) -> list[str]:
        if res.certificate != "certified":
            return [Refusal(f"certificate {res.certificate}")]
        out = []
        if res.rank != 1:
            out.append(f"boundary rank {res.rank}, expected 1 for span{{I}}")
        if res.fixed_space.dim != commutant_dim(u):
            out.append(f"fixed space dim {res.fixed_space.dim}, commutant dim {commutant_dim(u)}")
        for key, val in res.residuals.items():
            if val > TOL:
                out.append(f"residual {key} {val:.2e}")
        if res.absorption_violation > TOL:
            out.append(f"absorption violation {res.absorption_violation:.2e}")
        e = res.idempotent.choi
        out += ucp_failures(e, n, [np.eye(n)], "idempotent")
        out += idempotent_failures(e, n, "idempotent")
        s_u = np.kron(u, u.conj())
        absorbed = float(np.linalg.norm(s_u @ superop(e, n) - superop(e, n)))
        if absorbed > TOL:
            out.append(f"not absorbed by the channel ({absorbed:.2e})")
        return out

    return Job(name, run, check)


def descent_job(kind: str, seed: int) -> Job:
    name = f"descent.{kind}"
    if kind == "rigid":
        return _envelope_job(name, [I2, SX, SZ], 4, seed)
    if kind.startswith("diag"):
        return _envelope_job(name, diag_units(size(kind)), size(kind), seed)
    if kind.startswith("spani"):
        return _envelope_job(name, [np.eye(size(kind), dtype=complex)], 1, seed)
    if kind == "bnd_sz":
        return _boundary_job(name, 2, SZ, seed)
    if kind == "corner":
        return _corner_job(name, seed)
    raise ValueError(kind)


# ------------------------------------------------------------------------
# project-large: nearest UCP map fixing E to a noisy channel estimate


def _projection_job(name: str, n: int, system: str, j0: np.ndarray, phases=None) -> Job:
    """build the set, one Dykstra solve from j0, one membership check."""
    basis = diag_units(n) if system == "diag" else [np.eye(n, dtype=complex)]
    u = None if phases is None else np.diag(np.exp(1j * np.asarray(phases)))

    def run():
        space = spectrahedron.OperatorSubspace.from_matrices(basis)
        if u is None:
            fset = spectrahedron.build_system_set(space)
        else:
            fset = boundary.build_T_set(space, channels.ChannelMap.conjugation(u))
        p = spectrahedron.dykstra_project(j0, fset)
        return p, fset.membership(p)

    def check(out) -> list[str]:
        p, rep = out
        fails = [] if rep.ok else [f"membership report not ok (worst {rep.worst:.2e})"]
        j = p.choi
        fails += ucp_failures(j, n, basis, "projection")
        if u is None:
            v = np.eye(n).reshape(-1)
            member = np.outer(v, v)  # Choi of the identity map
        else:
            s_u = np.kron(u, u.conj())
            absorbed = float(np.linalg.norm(s_u @ superop(j, n) - superop(j, n)))
            if absorbed > TOL:
                fails.append(f"projection not absorbed ({absorbed:.2e})")
            member = np.zeros((n * n, n * n), dtype=complex)  # Choi of the pinching
            for i in range(n):
                member[i * n + i, i * n + i] = 1.0
        # nearest-point condition against a known member y: <j0 - p, y - p> <= 0
        a, b = j0 - j, member - j
        inner = float(np.real(np.vdot(a, b)))
        if inner > TOL * max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b))):
            fails.append(f"not the nearest point (<j0-p, y-p> = {inner:.2e})")
        return fails

    return Job(name, run, check)


# Noise level of the channel estimates.
ESTIMATE_NOISE = 0.05
# Jobs whose cost depends on the random draw far more than on the size use one
# fixed draw, so that runs with different seeds time the same work. The span{I}
# M_7 estimate is one whose Dykstra run stalls on the boundary of the set for
# about 8 s before a face polish finishes it (draws at this size either stall
# like this or take 0.3 s). A non-CP map on M_3 takes 8 to 18 s depending on
# how many cb-norm bisection steps exhaust their budget; the fixed one takes
# about 13 s and its bracket stops at width 0.009, above the 1e-3 tolerance.
SPANI7_DRAW = 2002
NONCP_DRAW = 20


def _estimate(rng: np.random.Generator, n: int) -> np.ndarray:
    phi = channels.random_unital_channel(rng, n)
    return phi.choi + ESTIMATE_NOISE * herm_noise(rng, n * n)


def project_job(kind: str, seed: int) -> Job:
    name = f"project-large.{kind}"
    rng = np.random.default_rng(seed)
    if kind == "spani7_stall":
        return _projection_job(name, 7, "spani", _estimate(np.random.default_rng(SPANI7_DRAW), 7))
    n = size(kind)
    if kind.startswith("T"):
        phases = 2 * np.pi * rng.random(n)
        return _projection_job(name, n, "spani", _estimate(rng, n), phases)
    system = "diag" if kind.startswith("diag") else "spani"
    return _projection_job(name, n, system, _estimate(rng, n))


# ------------------------------------------------------------------------
# channels-cli: in-process CLI runs on generated JSON inputs


def _write(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli_job(name: str, argv: list[str], out_path: str, check_report) -> Job:
    def run():
        return cli.main([*argv, "--out", out_path])

    def check(rc) -> list[str]:
        if rc != 0:
            return [Refusal(f"exit code {rc}")]
        with open(out_path) as fh:
            rep = json.load(fh)
        if rep["certificate"] != "certified":
            return [Refusal(f"certificate {rep['certificate']}")]
        return check_report(rep["result"])

    return Job(name, run, check)


def _unital_channel_json(rng, n: int) -> dict:
    """A random unital channel with three Kraus operators, in the CLI's input format."""
    kraus = channels.unitalize_kraus(
        [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
    )
    return {"dim_in": n, "dim_out": n, "repr": "kraus", "kraus": [_mat_json(k) for k in kraus]}


def _mat_json(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1], "data": [[z.real, z.imag] for z in a.reshape(-1).tolist()]}


def channels_job(kind: str, seed: int, tmp: str, slot: int) -> Job:
    name = f"channels-cli.{kind}"
    rng = np.random.default_rng(seed)
    stem = os.path.join(tmp, f"{slot:03d}-{kind}")
    out_path = stem + ".out.json"
    if kind.startswith("cesaro") or kind.startswith("info"):
        n = size(kind)
        path = _write(stem + ".json", _unital_channel_json(rng, n))
        if kind.startswith("cesaro"):

            def check_cesaro(res) -> list[str]:
                fails = []
                if res["agreement"] is None or res["agreement"] > 1e-7:
                    fails.append(f"spectral/iterative agreement {res['agreement']}")
                if res["worst_residual"] > TOL:
                    fails.append(f"worst residual {res['worst_residual']:.2e}")
                if res["fixed_space_dim"] != 1:
                    fails.append(f"fixed space dim {res['fixed_space_dim']}, expected 1 (primitive channel)")
                else:
                    b = np.array([complex(re, im) for re, im in res["fixed_basis"][0]["data"]]).reshape(n, n)
                    dev = float(np.linalg.norm(b - np.trace(b) / n * np.eye(n)))
                    if dev > TOL:
                        fails.append(f"fixed basis is not a multiple of I ({dev:.2e})")
                return fails

            return _cli_job(name, ["channel", "cesaro", path, "--mode", "both"], out_path, check_cesaro)

        def check_info(res) -> list[str]:
            fails = []
            if not (res["cp"] and res["unital"]):
                fails.append(f"flags cp={res['cp']} unital={res['unital']}")
            if abs(res["cb_bound"] - 1.0) > 1e-8:
                fails.append(f"cb norm of a unital CP map is 1, got {res['cb_bound']!r}")
            return fails

        return _cli_job(name, ["channel", "info", path], out_path, check_info)
    if kind.startswith("noncp"):
        n = size(kind)
        choi = herm_noise(np.random.default_rng(NONCP_DRAW + n), n * n) / n
        path = _write(stem + ".json", {"dim_in": n, "dim_out": n, "repr": "choi", "choi": _mat_json(choi)})
        lower = cb_witness_lower(choi, n)
        trace_norm = float(np.abs(np.linalg.eigvalsh(choi)).sum())

        def check_noncp(res) -> list[str]:
            fails = []
            if res["cp"]:
                fails.append("a map with an indefinite Choi matrix reported CP")
            cb = res["cb_bound"]
            if not lower - 1e-9 <= cb <= trace_norm + 1e-9:
                fails.append(f"cb bound {cb!r} outside [{lower!r}, {trace_norm!r}]")
            return fails

        return _cli_job(name, ["channel", "info", path], out_path, check_noncp)
    if kind == "enumerate":

        def check_enum(res) -> list[str]:
            fails = [] if res["semigroup_count"] == 113 else [f"{res['semigroup_count']} semigroups of order 3, expected 113"]
            return fails + [f"check {k} failed" for k, v in res["checks"].items() if not v["passed"]]

        return _cli_job(name, ["semigroup", "enumerate", "--order", "3", "--check", "all"], out_path, check_enum)
    if kind == "analyze":
        t3, _ = semigroups.transformation_monoid(3)
        table = semigroups.random_subsemigroup(t3, int(rng.integers(2**31 - 1))).table
        path = _write(stem + ".json", table.to_json())
        idem = [e for e in range(table.order) if int(table.table[e, e]) == e]

        def check_analyze(res) -> list[str]:
            fails = [] if res["idempotents"] == idem else [f"idempotents {res['idempotents']}, expected {idem}"]
            if not res["similarity_remark"]["passed"]:
                fails.append("similarity remark failed")
            return fails

        return _cli_job(name, ["semigroup", "analyze", path], out_path, check_analyze)
    raise ValueError(kind)


# ------------------------------------------------------------------------
# rounds

# (kind, count) per round. A round takes 10-15 s on the reference host; a
# timed run executes ``round_count`` rounds, two for 30 s. The number of
# rounds depends on --seconds only, never on how fast the host ran, so that
# every run of a workload times the same jobs and the quantiles below weigh
# the same ranks. ``interleave`` spreads each kind evenly over the round.
#
# The host drifts between a fast and a slow state, 1.5-2x apart, so the
# median of a block of identical jobs jumps between the two whenever the
# share of slow jobs crosses one half. run.py therefore reads the median and
# the tail (p75) with the Harrell-Davis estimator, a weighted mean of the
# order statistics around the quantile (about +-3 ranks in 40), which
# follows the share of slow jobs smoothly. The counts put each quantile
# inside a block of one kind whose cost hardly depends on the seed, or into
# a run of many sizes (channels-cli), rather than on the edge between two
# kinds of very different cost:
#   descent        p50 in the rigid block, p75 in the diag M_2 block
#   project-large  p50 in the span{I} M_6 block, p75 in the diag M_5 block
#   channels-cli   p50 near enumerate / info at n = 18, p75 near Cesaro at
#                  n = 13 / info at n = 24
# and the long jobs show in jobs_per_s.
#
# Jobs longer than about 5 s (span{I} M_3 envelopes, the M_8 and the
# stalling M_7 projections, Cesaro at n = 24, the non-CP map on M_3) would
# leave too few jobs in a run; they run in every traced run instead
# (``TRACED_ONLY``), where the per-layer metrics take them in.
ROUNDS = {
    "descent": [
        ("rigid", 14), ("diag2", 5), ("spani2", 1), ("diag3", 1), ("bnd_sz", 1),
    ],
    "project-large": [
        ("spani5", 9), ("spani6", 6), ("diag5", 6), ("diag6", 1), ("T5", 1), ("diag7", 1),
    ],
    "channels-cli": [
        ("analyze", 3), ("enumerate", 2),
        *((f"info{n}", 1) for n in (8, 10, 12, 14, 16, 18, 20, 24)),
        *((f"cesaro{n}", 1) for n in (8, 10, 12, 13, 14, 16, 18, 20)),
    ],
}
# Seconds of --seconds per round. A timed run makes at least two rounds, so
# that at least ten of its jobs (40 or more) lie above the p75; a traced run,
# which runs every job twice, makes half as many and at least one.
ROUND_S = 15.0


def round_count(seconds: float, traced: bool, smoke: bool) -> int:
    if smoke:
        return 1
    if traced:
        return max(1, int(seconds // (2 * ROUND_S)))
    return max(2, int(seconds // ROUND_S))


# The smallest size of each workload, for the smoke test: eleven jobs.
SMOKE = {
    "descent": [("rigid", 6), ("diag2", 5)],
    "project-large": [("spani5", 6), ("diag5", 5)],
    "channels-cli": [("analyze", 4), ("enumerate", 3), ("info8", 2), ("cesaro8", 2)],
}

# Jobs the traced run adds after its rounds, traced only: the long jobs left
# out of the rounds (above). The corner envelope (about 25 s) comes back
# unverified, or raises, for about four library seeds in nine with default
# knobs; its seed is drawn from the run's seed like any other, so a refusal
# shows in ``failed``.
TRACED_ONLY = {
    "descent": ["spani3", "corner"],
    "project-large": ["diag8", "spani7_stall"],
    "channels-cli": ["cesaro24", "noncp3"],
}

WORKLOADS = tuple(ROUNDS)


def interleave(mix: list[tuple[str, int]]) -> list[str]:
    """Kinds in execution order: the i-th of c jobs of the k-th of m kinds sits at (i + (k + 1/2) / m) / c."""
    m = len(mix)
    slots = [
        ((i + (k + 0.5) / m) / count, k, kind) for k, (kind, count) in enumerate(mix) for i in range(count)
    ]
    return [kind for _, _, kind in sorted(slots)]


def make_round(workload: str, seed: int, round_idx: int, tmp: str, smoke: bool = False) -> list[Job]:
    """The jobs of one round; the same (workload, seed, round) gives the same inputs."""
    return _make_jobs(workload, seed, round_idx, tmp, interleave((SMOKE if smoke else ROUNDS)[workload]))


TRACED_ONLY_ROUND = 2_000_000  # round index of the traced-only jobs' inputs


def make_traced_only(workload: str, seed: int, tmp: str) -> list[Job]:
    """The jobs the traced run adds after its rounds (``TRACED_ONLY``)."""
    return _make_jobs(workload, seed, TRACED_ONLY_ROUND, tmp, TRACED_ONLY[workload])


def _make_jobs(workload: str, seed: int, round_idx: int, tmp: str, kinds: list[str]) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), round_idx])
    jobs = []
    for kind in kinds:
        job_seed = int(rng.integers(2**31 - 1))
        if workload == "descent":
            jobs.append(descent_job(kind, job_seed))
        elif workload == "project-large":
            jobs.append(project_job(kind, job_seed))
        else:
            jobs.append(channels_job(kind, job_seed, tmp, len(jobs) + 1000 * round_idx))
    return jobs


WARMUP_ROUND = 1_000_000  # round index of the warm-up job's inputs, never a timed round


def warmup(workload: str, tmp: str) -> None:
    """Run one small job of the workload so lazy imports and BLAS set-up are done."""
    job = make_round(workload, 0, WARMUP_ROUND, tmp, smoke=True)[0]
    fails = job.check(job.run())
    if fails:
        raise RuntimeError(f"warm-up job {job.name} failed: {fails}")
