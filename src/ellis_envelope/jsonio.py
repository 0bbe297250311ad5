"""File-level JSON input handling shared by the CLI and the scripts, and
the report writer.

Loaders wrap the per-class ``from_json`` constructors so that every failure
message names the offending file.  Ambient dimensions are capped at 64x64;
beyond that the dense solvers stop being desk-scale and the cap fails fast,
on the declared dimensions and before any matrix is decoded, instead of
letting a run crawl.

``report_chunks`` writes a report as ``json.dumps`` would, in pieces. The
float tables that make up most of a large report (the [re, im] pairs of
Choi matrices) arrive as float64 arrays and stay arrays until written:
``floatrepr`` writes ``float.__repr__``'s digits for a whole block of them
at once, with no Python float made on the way.
"""

import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .channels import ChannelMap
from .semigroups import CayleyTable
from .linalg import OperatorSubspace

MAX_AMBIENT = 64


def load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read file ({exc})") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: invalid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    return obj


def read_channel(path: str) -> ChannelMap:
    obj = load_json(path)
    _check_ambient(path, obj, ("dim_in", "dim_out"))
    try:
        return ChannelMap.from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_space(path: str) -> tuple[OperatorSubspace, str]:
    """Operator subspace plus its declared mode ("system" or "space")."""
    obj = load_json(path)
    _check_ambient(path, obj, ("ambient",))
    try:
        return OperatorSubspace.from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_table(path: str) -> CayleyTable:
    obj = load_json(path)
    try:
        return CayleyTable.from_json(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _check_ambient(path: str, obj: dict, keys: tuple[str, ...]) -> None:
    """Reject declared dimensions above the cap; ``from_json`` reports the ones that are not integers."""
    n = max((obj[k] for k in keys if type(obj.get(k)) is int), default=0)
    if n > MAX_AMBIENT:
        raise ValueError(
            f"{path}: ambient dimension {n} exceeds the {MAX_AMBIENT}x{MAX_AMBIENT} cap"
        )


def report_chunks(report: dict, indent: int) -> Iterator[str]:
    """Canonical report text in pieces, for writing without ever joining them.

    The pieces join to ``json.dumps(report, default=np.ndarray.tolist,
    sort_keys=True, indent=indent) + "\n"`` byte for byte. A report's float
    tables (the [re, im] pairs of a matrix, Choi-Effros coefficients) are
    float64 arrays; a 2-D one is rendered one piece of ``REPORT_BLOCK`` rows
    at a time by ``_float_rows``, and one of more dimensions nests as lists
    do. An array of any other dtype raises TypeError. Any other piece is one
    key, scalar or bracket. Keys must be strings: any other key raises
    TypeError. Identical reports give identical bytes (a CLI contract), so
    no timestamps may enter ``report``.
    """
    pad = " " * indent

    def emit(obj, level: int) -> Iterator[str]:
        inner = "\n" + pad * (level + 1)
        if isinstance(obj, dict):
            if not obj:
                yield "{}"
                return
            for key in obj:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
            sep = "{" + inner
            for key in sorted(obj):
                yield sep + json.dumps(key) + ": "
                yield from emit(obj[key], level + 1)
                sep = "," + inner
            yield "\n" + pad * level + "}"
        elif isinstance(obj, (list, tuple, np.ndarray)):
            array = isinstance(obj, np.ndarray)
            if array and obj.dtype != np.float64:
                raise TypeError(f"report arrays must be float64, not {obj.dtype}")
            if len(obj) == 0:
                yield "[]"
                return
            sep = "[" + inner
            if array and obj.ndim == 2 and obj.shape[1]:
                for start in range(0, len(obj), REPORT_BLOCK):
                    yield sep + _float_rows(obj[start : start + REPORT_BLOCK], inner, inner + pad)
                    sep = "," + inner
            else:
                for item in obj:
                    yield sep
                    yield from emit(item, level + 1)
                    sep = "," + inner
            yield "\n" + pad * level + "]"
        else:
            yield json.dumps(obj)

    yield from emit(report, 0)
    yield "\n"


def dump_report(report: dict, indent: int) -> str:
    """The pieces of ``report_chunks`` joined into one string."""
    return "".join(report_chunks(report, indent))


# Rows per piece of ``report_chunks``: bounds the piece and the temporaries
# of its text, which a whole matrix would add to peak memory.
REPORT_BLOCK = 4096

# Doubles below which a block skips ``floatrepr.reprs``: the kernel costs
# about 0.25 ms per call whatever its size, the C encoder about 0.75 us per
# double, and the two break even near 350 doubles (one BLAS thread, medians
# of five timings of N(0, 1) pairs).
_KERNEL_MIN = 384


def _float_rows(x: np.ndarray, outer: str, inner: str) -> str:
    """The rows of a float64 block, laid out as ``json`` indents them
    (``outer``/``inner``: newline plus the row/entry indent).

    A block of at least ``_KERNEL_MIN`` finite doubles goes through
    ``floatrepr.reprs``, which writes each number followed by "," or, at the
    end of a row, ";". A smaller block, or one with NaN or an infinity
    (which ``json.dumps`` prints differently), goes through the C encoder.
    Both marks then become the separators with their indents.
    """
    if x.size < _KERNEL_MIN or not np.isfinite(x).all():
        # the C encoder separates entries by ", " and rows by "], [", which no number's text contains
        text = json.dumps(x.tolist())[2:-2].replace("], [", ";").replace(", ", ",")
    else:
        # imported here: its tables cost a process that writes no float table
        # 6 ms and a MB of RSS
        from .floatrepr import reprs

        ends = np.full(x.shape, ord(","), dtype=np.uint8)
        ends[:, -1] = ord(";")
        ends[-1, -1] = 0  # nothing after the last number
        text = reprs(x.ravel(), ends.ravel()).decode("ascii")
    text = text.replace(",", "," + inner).replace(";", outer + "]," + outer + "[" + inner)
    return "[" + inner + text + outer + "]"
