"""File-level JSON input handling shared by the CLI and the scripts, and
the report writer.

Loaders wrap the per-class ``from_json`` constructors so that every failure
message names the offending file.  Ambient dimensions are capped at 64x64;
beyond that the dense solvers stop being desk-scale and the cap fails fast,
on the declared dimensions and before any matrix is decoded, instead of
letting a run crawl.

``report_chunks`` writes a report as ``json.dumps`` would, in pieces. The
tables of finite floats that make up most of a large report (the [re, im]
pairs of Choi matrices) go through ``floatrepr``, which writes
``float.__repr__``'s digits for a whole block of numbers at once.
"""

import itertools
import json
from collections.abc import Iterator
from operator import itemgetter
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

    The pieces join to ``json.dumps(report, sort_keys=True, indent=indent) + "\n"``
    byte for byte. Tables of numbers (lists whose items are equal-length lists
    of ints and floats, such as the [re, im] pairs of a matrix) are rendered
    one piece of ``REPORT_BLOCK`` rows at a time by ``_number_rows``: a block
    of finite floats by the vectorized ``floatrepr.reprs``, a block holding an
    int, NaN or an infinity by the C encoder. Any other piece is one key,
    scalar or bracket. Keys must be strings: any other key raises TypeError.
    Identical reports give identical bytes (a CLI contract), so no
    timestamps may enter ``report``.
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
        elif isinstance(obj, (list, tuple)):
            if not obj:
                yield "[]"
                return
            sep = "[" + inner
            for start in range(0, len(obj), REPORT_BLOCK):
                block = obj[start : start + REPORT_BLOCK]
                rows = _number_rows(block, inner, inner + pad)
                if rows is not None:
                    yield sep + rows
                    sep = "," + inner
                    continue
                for item in block:
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


# Rows per piece of ``report_chunks``: bounds the block's array, its
# temporaries and the piece, which a whole matrix would add to peak memory.
REPORT_BLOCK = 4096

_ROW_TYPES = {list, tuple}
_NUMBER_TYPES = {int, float}


def _number_rows(rows, outer: str, inner: str) -> str | None:
    """Rows of equal length holding only ints and floats, laid out as ``json``
    indents them (``outer``/``inner``: newline plus the row/entry indent);
    None when ``rows`` is not such a table.

    A table of finite floats is one float64 array, whose text
    ``floatrepr.reprs`` writes in one pass, each number followed by "," or,
    at the end of a row, ";". A table with an int, NaN or an infinity goes
    through the C encoder, as ``json.dumps`` prints those differently. Both
    marks then become the separators with their indents.
    """
    if not set(map(type, rows)) <= _ROW_TYPES:
        return None
    width = len(rows[0])
    if width == 0 or set(map(len, rows)) != {width}:
        return None
    # read the entries column by column, which allocates nothing per row
    # (tracemalloc, which the tests use, makes each allocation costly)
    columns = [itemgetter(k) for k in range(width)]
    types = set().union(*(map(type, map(column, rows)) for column in columns))
    if not types <= _NUMBER_TYPES:
        return None
    x = None
    if types == {float}:
        x = np.stack([np.fromiter(map(column, rows), np.float64, len(rows)) for column in columns], axis=1)
    if x is not None and np.isfinite(x).all():
        # imported here: its tables cost a process that writes no float table
        # 6 ms and a MB of RSS
        from .floatrepr import reprs

        ends = np.full((len(rows), width), ord(","), dtype=np.uint8)
        ends[:, -1] = ord(";")
        ends[-1, -1] = 0  # nothing after the last number
        text = reprs(x.ravel(), ends.ravel()).decode("ascii")
    else:
        # the C encoder separates entries by ", ", which no number's text contains
        items = json.dumps(list(itertools.chain.from_iterable(rows)))[1:-1].split(", ")
        text = ";".join(map(",".join, zip(*(items[k::width] for k in range(width)))))
    text = text.replace(",", "," + inner).replace(";", outer + "]," + outer + "[" + inner)
    return "[" + inner + text + outer + "]"
