"""Span recorder for the traced run.

The traced run wraps the package's public functions from outside: each
wrapper is bound under every name that callers look the function up by
(``from .spectrahedron import ...`` copies inside ``envelope`` and
``boundary``, ``psd_project`` inside ``spectrahedron``, methods on
``FeasibleSet``), and ``install`` returns a function that puts the originals
back. Nothing under ``src/`` changes.

Spans live in flat arrays held by a ``Recorder`` reached through a
``contextvars`` variable; a wrapped function called without a recorder
only pays that lookup. A span records name, start, end, parent span and job
id; self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import time
from array import array

# (module, attribute) of every wrapped function; "Class.method" for methods.
TARGETS = (
    ("linalg", "psd_project"),
    ("linalg", "hermitian_eig"),
    ("semigroups", "enumerate_semigroups"),
    ("semigroups", "idempotent_poset"),
    ("channels", "cesaro_idempotent"),
    ("channels", "check_structure"),
    ("channels", "compose"),
    ("channels", "check_absorption"),
    ("spectrahedron", "dykstra_project"),
    ("spectrahedron", "FeasibleSet.membership"),
    ("spectrahedron", "FeasibleSet.project_affine_compressed"),
    ("spectrahedron", "sample"),
    ("spectrahedron", "maximize_linear"),
    ("spectrahedron", "build_system_set"),
    ("spectrahedron", "cb_norm_bracket"),
    ("envelope", "compute_envelope"),
    ("envelope", "descend_to_minimal"),
    ("envelope", "probe_minimality"),
    ("envelope", "seed_idempotent"),
    ("envelope", "choi_effros_table"),
    ("envelope", "corner_extract"),
    ("boundary", "build_T_set"),
    ("boundary", "compute_boundary"),
    ("cli", "main"),
    ("jsonio", "dump_report"),
    ("jsonio", "read_channel"),
    ("jsonio", "read_space"),
    ("jsonio", "read_table"),
)

MODULES = ("linalg", "semigroups", "channels", "spectrahedron", "envelope", "boundary", "jsonio", "cli")


def _descent_info(res):
    return {"acceptances": len(res.trace) - 1}


def _bracket_info(res):
    return {
        "bisections": res.bisections,
        "converged": bool(res.converged),
        "lower": float(res.lower),
        "upper": float(res.upper),
    }


def _report_info(text):
    return {"bytes": len(text.encode())}


# Return values that carry counts the per-layer metrics need.
ON_RETURN = {
    "envelope.descend_to_minimal": _descent_info,
    "spectrahedron.cb_norm_bracket": _bracket_info,
    "jsonio.dump_report": _report_info,
}

_RECORDER: contextvars.ContextVar = contextvars.ContextVar("perfbench_recorder", default=None)
_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=-1)
_JOB: contextvars.ContextVar = contextvars.ContextVar("perfbench_job", default=-1)


class Recorder:
    """Spans of one traced pass, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}  # name -> index into names
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.info: dict[int, dict] = {}
        self._tables = None

    def __len__(self) -> int:
        return len(self.name)

    def tables(self):
        """Per span: duration, self time and the set of ancestor name ids (computed once)."""
        if self._tables is None or len(self._tables[0]) != len(self):
            self._tables = _span_tables(self)
        return self._tables

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def write(self, path) -> None:
        """Save the spans as arrays indexed by span id (parent -1 = none), one .npz file.

        ``names[name[i]]`` is span i's function; ``info`` holds, as JSON, the
        counts read off return values, keyed by span id.
        """
        import json

        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            job=np.array(self.job, dtype=np.int64),
            info=np.array(json.dumps({str(k): v for k, v in self.info.items()})),
        )


def _wrap(name: str, fn, on_return=None):
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _RECORDER.get()
        if rec is None:
            return fn(*args, **kwargs)
        idx = len(rec.name)
        rec.name.append(rec.name_id(name))
        rec.parent.append(_PARENT.get())
        rec.job.append(_JOB.get())
        rec.end.append(0.0)
        token = _PARENT.set(idx)
        rec.start.append(clock())
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end[idx] = clock()
            _PARENT.reset(token)
        if on_return is not None:
            rec.info[idx] = on_return(out)
        return out

    return traced


def install(package: str = "ellis_envelope"):
    """Wrap every target wherever a package module binds it; return the undo function."""
    mods = [importlib.import_module(f"{package}.{m}") for m in MODULES]
    mods.append(importlib.import_module(package))
    undo: list[tuple[object, str, object]] = []
    for mod_name, attr in TARGETS:
        home = importlib.import_module(f"{package}.{mod_name}")
        span_name = f"{mod_name}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, _wrap(span_name, orig, ON_RETURN.get(span_name)))
            continue
        orig = getattr(home, attr)
        wrapped = _wrap(span_name, orig, ON_RETURN.get(span_name))
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def restore() -> None:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


class recording:
    """Context manager: make ``rec`` the active recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec

    def __enter__(self):
        self._token = _RECORDER.set(self.rec)
        return self.rec

    def __exit__(self, *exc):
        _RECORDER.reset(self._token)
        return False


class job_scope:
    """Context manager: spans opened inside belong to job ``job_id``."""

    def __init__(self, job_id: int):
        self.job_id = job_id

    def __enter__(self):
        self._token = _JOB.set(self.job_id)

    def __exit__(self, *exc):
        _JOB.reset(self._token)
        return False


# ------------------------------------------------------------------------
# aggregation


def _span_tables(rec: Recorder):
    """Per span: duration, self time, and the set of ancestor name ids."""
    n = len(rec)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    ancestors: list[frozenset] = [frozenset()] * n
    memo: dict[tuple[frozenset, int], frozenset] = {}
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            key = (ancestors[p], rec.name[p])
            anc = memo.get(key)
            if anc is None:
                anc = memo[key] = key[0] | {key[1]}
            ancestors[i] = anc
    return dur, [dur[i] - child[i] for i in range(n)], ancestors


def span_totals(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds (outermost spans only), self seconds."""
    dur, self_t, ancestors = rec.tables()
    out: dict[str, dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in rec.names
    }
    for i in range(len(rec)):
        nid = rec.name[i]
        row = out[rec.names[nid]]
        row["calls"] += 1
        row["self_s"] += self_t[i]
        if nid not in ancestors[i]:
            row["s"] += dur[i]
    return out


def job_counts(rec: Recorder) -> dict[int, dict[str, int]]:
    """Per job id: call count of every span name and the counts read off spans.

    Besides the calls, a job's dict holds ``dykstra_iters`` (``psd_project``
    calls under a Dykstra span), ``descent_probes`` (probes under
    ``descend_to_minimal``) and, as ``<span name>.<key>``, the sums of the
    counts taken from return values (acceptances, bisections, converged
    brackets, report bytes).
    """
    dyk = rec.ids.get("spectrahedron.dykstra_project", -1)
    psd = rec.ids.get("linalg.psd_project", -1)
    desc = rec.ids.get("envelope.descend_to_minimal", -1)
    probe = rec.ids.get("envelope.probe_minimality", -1)
    ancestors = rec.tables()[2]
    out: dict[int, dict[str, int]] = {}
    for i in range(len(rec)):
        row = out.setdefault(rec.job[i], {})
        name = rec.names[rec.name[i]]
        row[name] = row.get(name, 0) + 1
        if rec.name[i] == psd and dyk in ancestors[i]:
            row["dykstra_iters"] = row.get("dykstra_iters", 0) + 1
        elif rec.name[i] == probe and desc in ancestors[i]:
            row["descent_probes"] = row.get("descent_probes", 0) + 1
        for key, value in rec.info.get(i, {}).items():
            if key in ("acceptances", "bisections", "converged", "bytes"):
                row[f"{name}.{key}"] = row.get(f"{name}.{key}", 0) + int(value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "spectrahedron.dykstra_project.calls": "count",
    "spectrahedron.dykstra_project.s": "s",
    "spectrahedron.dykstra_project.self_s": "s",
    "spectrahedron.dykstra_project.iters": "count",
    "spectrahedron.membership.calls": "count",
    "spectrahedron.membership.s": "s",
    "spectrahedron.project_affine_compressed.s": "s",
    "spectrahedron.sample.calls": "count",
    "spectrahedron.maximize_linear.calls": "count",
    "spectrahedron.maximize_linear.s": "s",
    "spectrahedron.build_system_set.calls": "count",
    "spectrahedron.build_system_set.s": "s",
    "spectrahedron.build_system_set.share": "ratio",
    "boundary.build_T_set.s": "s",
    "spectrahedron.cb_norm_bracket.calls": "count",
    "spectrahedron.cb_norm_bracket.s": "s",
    "spectrahedron.cb_norm_bracket.bisections": "count",
    "spectrahedron.cb_norm_bracket.converged_ratio": "ratio",
    "envelope.probe_minimality.calls": "count",
    "envelope.probe_minimality.s": "s",
    "envelope.probe_minimality.self_s": "s",
    "envelope.probe_minimality.useful_ratio": "ratio",
    "envelope.probe_minimality.share": "ratio",
    "envelope.seed_idempotent.calls": "count",
    "envelope.seed_idempotent.s": "s",
    "envelope.choi_effros_table.s": "s",
    "envelope.corner_extract.s": "s",
    "boundary.rigidity_probe.s": "s",
    "channels.check_absorption.s": "s",
    "channels.cesaro_idempotent.calls": "count",
    "channels.cesaro_idempotent.s": "s",
    "channels.check_structure.s": "s",
    "channels.compose.calls": "count",
    "linalg.psd_project.calls": "count",
    "linalg.psd_project.s": "s",
    "linalg.hermitian_eig.calls": "count",
    "linalg.hermitian_eig.s": "s",
    "cli.main.s": "s",
    "jsonio.dump_report.s": "s",
    "jsonio.report_bytes": "bytes",
    "jsonio.read.s": "s",
    "semigroups.enumerate_semigroups.s": "s",
    "semigroups.idempotent_poset.s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(rec: Recorder, counts: dict[int, dict[str, int]], traced_job_s: float,
              overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass; zero where a layer never ran.

    ``counts`` is ``job_counts(rec)``, ``traced_job_s`` the traced jobs' total
    time (the denominator of the shares) and ``overhead_frac`` the tracing
    overhead measured on the jobs that ran both ways.
    """
    tot = span_totals(rec)

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0)

    def count(key: str) -> int:
        return sum(row.get(key, 0) for row in counts.values())

    bnd = rec.ids.get("boundary.compute_boundary", -1)
    probe = rec.ids.get("envelope.probe_minimality", -1)
    rigidity_s = sum(rec.end[i] - rec.start[i] for i in range(len(rec))
                     if rec.name[i] == probe and rec.parent[i] >= 0 and rec.name[rec.parent[i]] == bnd)
    brackets = get("spectrahedron.cb_norm_bracket", "calls")
    m = {
        "spectrahedron.dykstra_project.calls": get("spectrahedron.dykstra_project", "calls"),
        "spectrahedron.dykstra_project.s": get("spectrahedron.dykstra_project", "s"),
        "spectrahedron.dykstra_project.self_s": get("spectrahedron.dykstra_project", "self_s"),
        "spectrahedron.dykstra_project.iters": count("dykstra_iters"),
        "spectrahedron.membership.calls": get("spectrahedron.membership", "calls"),
        "spectrahedron.membership.s": get("spectrahedron.membership", "s"),
        "spectrahedron.project_affine_compressed.s": get("spectrahedron.project_affine_compressed", "s"),
        "spectrahedron.sample.calls": get("spectrahedron.sample", "calls"),
        "spectrahedron.maximize_linear.calls": get("spectrahedron.maximize_linear", "calls"),
        "spectrahedron.maximize_linear.s": get("spectrahedron.maximize_linear", "s"),
        "spectrahedron.build_system_set.calls": get("spectrahedron.build_system_set", "calls"),
        "spectrahedron.build_system_set.s": get("spectrahedron.build_system_set", "s"),
        "spectrahedron.build_system_set.share": _ratio(get("spectrahedron.build_system_set", "s"), traced_job_s),
        "boundary.build_T_set.s": get("boundary.build_T_set", "s"),
        "spectrahedron.cb_norm_bracket.calls": brackets,
        "spectrahedron.cb_norm_bracket.s": get("spectrahedron.cb_norm_bracket", "s"),
        "spectrahedron.cb_norm_bracket.bisections": count("spectrahedron.cb_norm_bracket.bisections"),
        "spectrahedron.cb_norm_bracket.converged_ratio": _ratio(count("spectrahedron.cb_norm_bracket.converged"), brackets),
        "envelope.probe_minimality.calls": get("envelope.probe_minimality", "calls"),
        "envelope.probe_minimality.s": get("envelope.probe_minimality", "s"),
        "envelope.probe_minimality.self_s": get("envelope.probe_minimality", "self_s"),
        "envelope.probe_minimality.useful_ratio": _ratio(count("envelope.descend_to_minimal.acceptances"),
                                                         count("descent_probes")),
        "envelope.probe_minimality.share": _ratio(get("envelope.probe_minimality", "s"), traced_job_s),
        "envelope.seed_idempotent.calls": get("envelope.seed_idempotent", "calls"),
        "envelope.seed_idempotent.s": get("envelope.seed_idempotent", "s"),
        "envelope.choi_effros_table.s": get("envelope.choi_effros_table", "s"),
        "envelope.corner_extract.s": get("envelope.corner_extract", "s"),
        "boundary.rigidity_probe.s": rigidity_s,
        "channels.check_absorption.s": get("channels.check_absorption", "s"),
        "channels.cesaro_idempotent.calls": get("channels.cesaro_idempotent", "calls"),
        "channels.cesaro_idempotent.s": get("channels.cesaro_idempotent", "s"),
        "channels.check_structure.s": get("channels.check_structure", "s"),
        "channels.compose.calls": get("channels.compose", "calls"),
        "linalg.psd_project.calls": get("linalg.psd_project", "calls"),
        "linalg.psd_project.s": get("linalg.psd_project", "s"),
        "linalg.hermitian_eig.calls": get("linalg.hermitian_eig", "calls"),
        "linalg.hermitian_eig.s": get("linalg.hermitian_eig", "s"),
        "cli.main.s": get("cli.main", "s"),
        "jsonio.dump_report.s": get("jsonio.dump_report", "s"),
        "jsonio.report_bytes": count("jsonio.dump_report.bytes"),
        "jsonio.read.s": sum(get(f"jsonio.{f}", "s") for f in ("read_channel", "read_space", "read_table")),
        "semigroups.enumerate_semigroups.s": get("semigroups.enumerate_semigroups", "s"),
        "semigroups.idempotent_poset.s": get("semigroups.idempotent_poset", "s"),
        "trace.overhead_frac": overhead_frac,
    }
    assert list(m) == list(PER_LAYER_UNITS)
    return m
