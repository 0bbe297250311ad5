"""Command-line interface.

Every subcommand reads JSON inputs, writes one JSON report (stdout, or the
file given by --out) and exits with

    0  computation finished with a "certified" certificate,
    2  finished but "unverified"/"failed", or an iterative solver gave up
       (diagnostics on stderr),
    1  bad inputs: unreadable or malformed files, violated preconditions,
       invalid flag combinations.

Reports are deterministic for a fixed configuration: keys are sorted, no
timestamps, and every report records the certification tolerance,
every threshold of ``tolerances.TOL`` (as ``config.tolerances``), and the
package/python/numpy versions it was produced with.  Runs over non-trivial
inputs stay at desk scale; ambient dimensions are capped at 64.
"""

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .boundary import compute_boundary
from .channels import (
    NonConvergenceError,
    cesaro_idempotent,
    check_absorption,
    check_structure,
)
from .envelope import compute_envelope
from .jsonio import read_channel, read_space, read_table, report_chunks
from .linalg import matrix_to_json
from .semigroups import (
    CayleyTable,
    check_remark_similarity,
    enumerate_semigroups,
    idempotent_power,
    idempotent_poset,
    minimal_idempotent_below,
    minimal_left_ideals,
)
from .tolerances import TOL


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run; every report records them with ``TOL``.

    ``report_tol`` is the certification threshold applied to residuals and
    minimality bounds. It must be finite, or it would certify any bound, and
    strictly above the solver tolerance ``TOL.solver``: a certificate cannot
    be tighter than the accuracy of the iterates behind it.
    """

    report_tol: float = TOL.certify
    mode: str = "auto"
    json_indent: int = 2

    def validate(self) -> None:
        if not TOL.solver < self.report_tol < np.inf:
            raise ValueError(
                f"report tolerance ({self.report_tol:g}) must be finite and "
                f"strictly above the solver tolerance ({TOL.solver:g})"
            )
        if self.json_indent < 0:
            raise ValueError("json indent must be nonnegative")

    def to_json(self) -> dict:
        return {**asdict(self), "tolerances": asdict(TOL)}


def _versions() -> dict:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _wrap(command: str, config: RunConfig, certificate: str, result: dict) -> dict:
    return {
        "command": command,
        "config": config.to_json(),
        "versions": _versions(),
        "certificate": certificate,
        "result": result,
    }


# ------------------------------------------------------------------------
# semigroup checks (used by `semigroup enumerate --check`)


def _check_idempotents_exist(sg: CayleyTable) -> bool:
    return bool(sg.idempotents())


def _check_minimal_below(sg: CayleyTable) -> bool:
    poset = idempotent_poset(sg)
    minimal = set(poset.minimal())
    t = sg.table
    for e in poset.idempotents:
        f = minimal_idempotent_below(sg, e)
        if f not in minimal or int(t[e, f]) != f or int(t[f, e]) != f:
            return False
    return True


def _check_similar_pairs(sg: CayleyTable) -> bool:
    return check_remark_similarity(sg).passed


def _check_ideal_idempotents(sg: CayleyTable) -> bool:
    # every minimal left ideal contains an idempotent (take idempotent
    # powers), and each such idempotent is a right identity on the ideal
    t = sg.table
    for ideal in minimal_left_ideals(sg):
        idem = [e for e in ideal if int(t[e, e]) == e]
        if not idem:
            return False
        for e in idem:
            if any(int(t[x, e]) != x for x in ideal):
                return False
    return True


_CHECKS = {
    "idempotents-exist": _check_idempotents_exist,
    "minimal-below": _check_minimal_below,
    "similar-pairs": _check_similar_pairs,
    "ideal-idempotents": _check_ideal_idempotents,
}


# ------------------------------------------------------------------------
# subcommand implementations; each returns (certificate, result-dict)


def _run_semigroup_analyze(args, config: RunConfig) -> tuple[str, dict]:
    sg = read_table(args.table)
    poset = idempotent_poset(sg)
    remark = check_remark_similarity(sg)
    result = {
        "order": sg.order,
        "idempotents": [int(e) for e in poset.idempotents],
        "minimal_idempotents": [int(e) for e in poset.minimal()],
        "minimal_below": [[int(e), int(minimal_idempotent_below(sg, e))] for e in poset.idempotents],
        "similarity_classes": [[int(e) for e in c] for c in poset.similarity_classes()],
        "minimal_left_ideals": [[int(x) for x in J] for J in minimal_left_ideals(sg)],
        "idempotent_power": [[s, int(idempotent_power(sg, s))] for s in range(sg.order)],
        "similarity_remark": {
            "passed": remark.passed,
            "pairs_checked": remark.pairs_checked,
            "counterexample": list(remark.counterexample) if remark.counterexample else None,
        },
    }
    return ("certified" if remark.passed else "failed"), result


def _run_semigroup_enumerate(args, config: RunConfig) -> tuple[str, dict]:
    tables = enumerate_semigroups(args.order)
    names = list(_CHECKS) if args.check == "all" else [args.check]
    checks = {}
    all_passed = True
    for name in names:
        fn = _CHECKS[name]
        failures = [i for i, sg in enumerate(tables) if not fn(sg)]
        checks[name] = {"passed": not failures, "failures": failures}
        all_passed = all_passed and not failures
    result = {
        "order": args.order,
        "semigroup_count": len(tables),
        "checks": checks,
    }
    return ("certified" if all_passed else "failed"), result


def _run_channel_info(args, config: RunConfig) -> tuple[str, dict]:
    phi = read_channel(args.channel)
    rep = check_structure(phi)
    result = {
        "dim_in": phi.dim_in,
        "dim_out": phi.dim_out,
        "choi_rank": rep.choi_rank,
        "cp": rep.cp,
        "unital": rep.unital,
        "trace_preserving": rep.trace_preserving,
        "idempotent": rep.idempotent,
        "cb_contraction": rep.cb_contraction,
        "choi_min_eig": rep.choi_min_eig,
        "unital_residual": rep.unital_residual,
        "trace_residual": rep.trace_residual,
        "idempotent_residual": rep.idempotent_residual,
        "cb_bound": rep.cb_bound,
    }
    return "certified", result


def _run_channel_cesaro(args, config: RunConfig) -> tuple[str, dict]:
    phi = read_channel(args.channel)
    res = cesaro_idempotent(phi, mode=config.mode)
    absorption = check_absorption(res.idempotent, phi, res.fixed_space)
    residuals = {k: float(v) for k, v in res.residuals.items()}
    worst = max([*residuals.values(), absorption])
    if res.agreement is not None:
        worst = max(worst, res.agreement)
    result = {
        "method": res.method,
        "fixed_space_dim": res.fixed_space.dim,
        "idempotent": res.idempotent.to_json(res.fixed_space),
        "fixed_basis": [matrix_to_json(m) for m in res.fixed_space.mats],
        "residuals": residuals,
        "agreement": res.agreement,
        "absorption_violation": absorption,
        "worst_residual": worst,
    }
    return ("certified" if worst <= config.report_tol else "unverified"), result


def _run_envelope_compute(args, config: RunConfig) -> tuple[str, dict]:
    space, file_mode = read_space(args.space)
    mode = file_mode if config.mode == "auto" else config.mode
    res = compute_envelope(space, mode=mode, tol=config.report_tol)
    result = res.to_json()
    result["input_dim"] = space.dim
    result["ambient"] = space.n
    return res.certificate, result


def _run_boundary_compute(args, config: RunConfig) -> tuple[str, dict]:
    phi = read_channel(args.channel)
    space, _ = read_space(args.fix)
    res = compute_boundary(space, phi, tol=config.report_tol)
    result = res.to_json()
    result["input_dim"] = space.dim
    result["ambient"] = space.n
    return res.certificate, result


# ------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="PATH", default=None, help="write the report here instead of stdout")
    p.add_argument("--json-indent", type=int, default=2, metavar="N", help="report indentation (default 2)")


def _add_tol_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol",
        type=float,
        default=TOL.certify,
        help="certification tolerance for residuals and minimality bounds "
        f"(default {TOL.certify:g}; must stay above the {TOL.solver:g} solver tolerance)",
    )


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ellis-envelope",
        description="Idempotent structure of unital CP maps: ergodic projections, "
        "injective envelopes, and noncommutative boundaries.",
        epilog="Reports are deterministic: the same command line yields byte-identical output.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sg = sub.add_parser("semigroup", help="finite semigroup diagnostics")
    sg_sub = sg.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    sg_an = sg_sub.add_parser("analyze", help="idempotent poset, minimal ideals, similarity classes")
    sg_an.add_argument("table", help="Cayley table JSON ({'order': n, 'table': [[...]]})")
    _add_output_opts(sg_an)

    sg_en = sg_sub.add_parser("enumerate", help="enumerate all semigroups of a small order and run checks")
    sg_en.add_argument("--order", type=int, required=True, choices=(1, 2, 3), help="semigroup order (at most 3)")
    sg_en.add_argument(
        "--check",
        default="all",
        choices=(*list(_CHECKS), "all"),
        help="which structural check to run on every table (default all)",
    )
    _add_output_opts(sg_en)

    ch = sub.add_parser("channel", help="single-map diagnostics")
    ch_sub = ch.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    ch_info = ch_sub.add_parser("info", help="structural flags and residuals of a map")
    ch_info.add_argument("channel", help="channel JSON (Choi or Kraus)")
    _add_output_opts(ch_info)

    ch_ces = ch_sub.add_parser("cesaro", help="ergodic idempotent of a unital CP map")
    ch_ces.add_argument("channel", help="channel JSON (Choi or Kraus)")
    ch_ces.add_argument(
        "--mode",
        default="spectral",
        choices=("spectral", "iterative", "both"),
        help="projection algorithm (default spectral; 'both' cross-checks)",
    )
    _add_output_opts(ch_ces)

    env = sub.add_parser("envelope", help="injective envelope of an operator space or system")
    env_sub = env.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    env_c = env_sub.add_parser("compute", help="minimal idempotent descent plus rigidity certificate")
    env_c.add_argument("space", help="operator space JSON ({'ambient', 'basis', 'mode'})")
    env_c.add_argument(
        "--mode",
        default="auto",
        choices=("auto", "system", "space"),
        help="treat the input as an operator system or a plain space "
        "(default auto: follow the mode recorded in the file)",
    )
    _add_tol_opt(env_c)
    _add_output_opts(env_c)

    bd = sub.add_parser("boundary", help="noncommutative boundary of a space inside the fixed algebra of a map")
    bd_sub = bd.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    bd_c = bd_sub.add_parser("compute", help="descend to a minimal absorbing idempotent")
    bd_c.add_argument("channel", help="channel JSON; the map whose fixed space hosts the boundary")
    bd_c.add_argument("--fix", required=True, metavar="SPACE", help="operator space JSON, must be fixed elementwise")
    _add_tol_opt(bd_c)
    _add_output_opts(bd_c)

    return p


def _config_from_args(args) -> RunConfig:
    config = RunConfig(
        report_tol=getattr(args, "tol", TOL.certify),
        mode=getattr(args, "mode", "auto"),
        json_indent=getattr(args, "json_indent", 2),
    )
    config.validate()
    return config


_DISPATCH = {
    ("semigroup", "analyze"): _run_semigroup_analyze,
    ("semigroup", "enumerate"): _run_semigroup_enumerate,
    ("channel", "info"): _run_channel_info,
    ("channel", "cesaro"): _run_channel_cesaro,
    ("envelope", "compute"): _run_envelope_compute,
    ("boundary", "compute"): _run_boundary_compute,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help/--version (0) or usage error (1)
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        run = _DISPATCH[(args.command, args.subcommand)]
        certificate, result = run(args, config)
    except NonConvergenceError as exc:
        # strict JSON has no Infinity: a step that failed outright reports null
        history = [[step, float(r) if np.isfinite(r) else None] for step, r in exc.history[-5:]]
        diag = {"error": "non-convergence", "detail": str(exc), "history_tail": history}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = _wrap(f"{args.command} {args.subcommand}", config, certificate, result)
    chunks = report_chunks(report, config.json_indent)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"error: {args.out}: cannot write ({exc})", file=sys.stderr)
            return 1
    else:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe (`| head`), a full disk
            _discard_stdout()
            print(f"error: stdout: cannot write ({exc})", file=sys.stderr)
            return 1
    return 0 if certificate == "certified" else 2


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so that the interpreter's last
    flush of what is still buffered does not fail a second time."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
