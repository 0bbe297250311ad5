"""The vectorized shortest-repr kernel writes ``float.__repr__`` byte for byte.

``floatrepr.reprs`` is checked against ``repr`` on more than 10**6 doubles:
random bit patterns, every power of 2 and of 10 with both neighbours,
integers near 2**53, the points where ``repr`` switches between positional
and exponent layout, subnormals, signed zeros, and the noise and rounded
decimals that report tables hold. ``report_chunks`` is then checked against
``json.dumps`` on float64 tables of those values, one of which spans
several blocks.
"""

import json

import numpy as np
import pytest

from ellis_envelope.floatrepr import reprs
from ellis_envelope.jsonio import REPORT_BLOCK, report_chunks


def edge_values() -> np.ndarray:
    """Doubles at which a shortest-digit writer is most likely to slip."""
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    switch = np.array([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-5])
    powers = np.concatenate([p2, p10, switch])
    near = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    ints = np.arange(2**53 - 4096, 2**53 + 4096, dtype=np.float64)
    return np.concatenate([near, ints, [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])


def values() -> np.ndarray:
    rng = np.random.default_rng(20180618)
    bits = rng.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 30_000, dtype=np.uint64).view(np.float64)
    noise = rng.standard_normal(40_000) * np.repeat([1.0, 1e-17], 20_000)
    rounded = np.round(rng.standard_normal(30_000) * 10.0 ** rng.integers(0, 8, 30_000)) / 1000
    x = np.concatenate([bits[np.isfinite(bits)], subnormal, noise, rounded, edge_values()])
    return np.concatenate([x, -x])


def test_reprs_equal_float_repr_on_a_million_doubles():
    x = values()
    assert len(x) >= 10**6 and np.isfinite(x).all()
    sep = np.full(len(x), ord(";"), dtype=np.uint8)
    sep[-1] = 0
    got = reprs(x, sep).decode("ascii")
    want = ";".join(map(repr, x.tolist()))
    if got != want:
        bad = [(a, b) for a, b in zip(got.split(";"), want.split(";")) if a != b]
        pytest.fail(f"{len(bad)} doubles differ from repr, first (got, want): {bad[:5]}")


@pytest.mark.parametrize("indent", [0, 2])
def test_report_chunks_write_edge_values_as_json_does(indent):
    rng = np.random.default_rng(indent)
    cells = rng.permutation(np.concatenate([edge_values(), -edge_values(), values()[:20_000]]))
    rows = 3 * REPORT_BLOCK + 17
    # "wide" is above the kernel's crossover, so both tables take the kernel's route
    report = {"t": {"data": cells[: 2 * rows].reshape(rows, 2), "wide": cells[-1200:].reshape(400, 3)}}
    want = json.dumps(report, default=np.ndarray.tolist, sort_keys=True, indent=indent) + "\n"
    assert "".join(report_chunks(report, indent)) == want
