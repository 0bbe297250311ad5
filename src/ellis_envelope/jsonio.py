"""File-level JSON input handling shared by the CLI and the scripts.

Loaders wrap the per-class ``from_json`` constructors so that every failure
message names the offending file.  Ambient dimensions are capped at 64x64;
beyond that the dense solvers stop being desk-scale and the cap fails fast,
on the declared dimensions and before any matrix is decoded, instead of
letting a run crawl.
"""

import json
from pathlib import Path

from .channels import ChannelMap
from .semigroups import CayleyTable
from .spectrahedron import OperatorSubspace

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
    """Reject declared dimensions above the cap; ``from_json`` reports bad values."""
    try:
        n = max(int(obj[k]) for k in keys)
    except (KeyError, TypeError, ValueError):
        return
    if n > MAX_AMBIENT:
        raise ValueError(
            f"{path}: ambient dimension {n} exceeds the {MAX_AMBIENT}x{MAX_AMBIENT} cap"
        )


def dump_report(report: dict, indent: int) -> str:
    """Canonical report text: sorted keys, fixed indent, trailing newline.

    Byte-identical output for identical report dicts is part of the CLI
    contract, so no timestamps or environment-dependent values may enter
    ``report``.
    """
    return json.dumps(report, sort_keys=True, indent=indent) + "\n"
