"""The report writer equals the reference encoder byte for byte.

The pieces of ``report_chunks(obj, k)``, joined, and ``dump_report(obj, k)``
must produce ``json.dumps(obj, default=np.ndarray.tolist, sort_keys=True,
indent=k) + "\\n"`` for every report, whichever route (the vectorized kernel
or the C encoder over blocks of a float64 table, or the recursive layout)
renders a part. No piece may hold more than one block of a table, so a
streamed report never holds its whole text.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellis_envelope import jsonio
from ellis_envelope.jsonio import REPORT_BLOCK, dump_report, report_chunks

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, float("nan"), float("inf"), float("-inf")]

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.sampled_from(EDGE_FLOATS))
numbers = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), floats)
strings = st.one_of(st.text(max_size=6), st.sampled_from(["", '"', "\\", "\n\t\x00", "é", " ", "\U0001f600"]))
scalars = st.one_of(st.none(), st.booleans(), numbers, strings)


def rows_of(width: int):
    row = st.lists(numbers, min_size=width, max_size=width)
    return st.lists(st.one_of(row, row.map(tuple)), max_size=12)


# equal-length number rows, ragged rows and mixed lists, all on the
# per-item route; float64 arrays of shape (k,), (k, w) and (k, w, w), whose
# 2-D tables take the block route, and finite ones the kernel's
WIDEST = 4
tables = st.integers(min_value=1, max_value=WIDEST).flatmap(rows_of)
ragged = st.lists(st.lists(numbers, max_size=3), max_size=6)
widths = st.integers(min_value=0, max_value=WIDEST)
shapes = st.one_of(
    st.tuples(st.integers(0, 12)),
    st.tuples(st.integers(0, 12), widths),
    widths.flatmap(lambda w: st.tuples(st.integers(0, 4), st.just(w), st.just(w))),
)
float_tables = st.one_of(
    arrays(np.float64, shapes, elements=floats),
    arrays(np.float64, shapes, elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)),
)

values = st.recursive(
    st.one_of(scalars, tables, ragged, float_tables),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(strings, children, max_size=4),
    ),
    max_leaves=20,
)


def reference(obj, indent: int) -> str:
    return json.dumps(obj, default=np.ndarray.tolist, sort_keys=True, indent=indent) + "\n"


@given(
    st.dictionaries(strings, values, max_size=5),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, 2, 3, REPORT_BLOCK]),
    st.sampled_from([1, jsonio._KERNEL_MIN]),
)
@settings(max_examples=150, deadline=None)
def test_writer_equals_reference_encoder(report, indent, block, kernel_min):
    # small blocks split the generated tables, so pieces cross block
    # boundaries; a crossover of 1 sends every finite block to the kernel
    with mock.patch.object(jsonio, "REPORT_BLOCK", block), mock.patch.object(jsonio, "_KERNEL_MIN", kernel_min):
        chunks = list(report_chunks(report, indent))
        assert "".join(chunks) == reference(report, indent)
        assert dump_report(report, indent) == reference(report, indent)
    # a row of w numbers spans w + 2 lines, its separator included; a key,
    # scalar or bracket spans at most one
    assert max(c.count("\n") for c in chunks) <= block * (WIDEST + 2)


@pytest.mark.parametrize("indent", [0, 2])
def test_pair_table_across_block_boundaries(indent):
    n = 9000
    assert n > 2 * REPORT_BLOCK
    data = np.array([[k * 0.1, -k / 3.0] for k in range(n)])
    data[0] = [float("nan"), -0.0]
    data[REPORT_BLOCK] = [float("inf"), 5e-324]
    report = {"m": {"rows": 90, "cols": 100, "data": data}}
    chunks = list(report_chunks(report, indent))
    assert "".join(chunks) == dump_report(report, indent) == reference(report, indent)
    # no block's text is longer than that of REPORT_BLOCK copies of the longest row
    longest = max(data.tolist(), key=lambda row: len(json.dumps(row)))
    block = {"m": {"data": [longest] * REPORT_BLOCK}}
    assert max(map(len, chunks)) <= len(reference(block, indent))


def test_streaming_to_a_file_holds_no_copy_of_the_text(tmp_path):
    rows = 200_000
    report = {"m": {"rows": rows, "cols": 1, "data": np.array([[k * 0.1, -k / 3.0] for k in range(rows)])}}
    path = tmp_path / "report.json"

    def peak(write) -> int:
        tracemalloc.start()
        try:
            with open(path, "w") as fh:
                write(fh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda fh: fh.writelines(report_chunks(report, 2)))
    text = path.read_text()
    assert streamed < len(text) / 2
    # the joined string and its encoded copy coexist while it is written
    joined = peak(lambda fh: fh.write(dump_report(report, 2)))
    assert joined >= 2 * len(text)
    assert path.read_text() == text


def test_blocks_that_are_not_tables_fall_back():
    # lists take the per-item route, whatever their blocks hold
    items = [[1, 2.5]] * REPORT_BLOCK + ["x", [1], []] + [(3.0, -4)] * (REPORT_BLOCK + 5)
    report = {"items": items, "empty": [[]], "nested": [[[1.0, 2.0]]]}
    for indent in (0, 1, 4):
        assert dump_report(report, indent) == reference(report, indent)


def test_non_string_key_raises_type_error():
    with pytest.raises(TypeError, match="keys must be str"):
        dump_report({"result": {1: "one"}}, 2)
    with pytest.raises(TypeError):
        dump_report({None: 0}, 0)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.complex128, np.bool_])
def test_arrays_other_than_float64_raise_type_error(dtype):
    with pytest.raises(TypeError, match="must be float64"):
        dump_report({"t": np.zeros((2, 2), dtype=dtype)}, 2)
