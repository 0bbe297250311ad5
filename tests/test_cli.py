"""CLI contract: exit codes, report shape, determinism, input validation.

All invocations go through main(argv) in-process; stdout carries exactly one
JSON report on success and stderr carries diagnostics on failure.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from ellis_envelope import channels, cli, envelope, linalg, spectrahedron
from ellis_envelope.channels import ChannelMap, NonConvergenceError
from ellis_envelope.cli import RunConfig, main
from ellis_envelope.jsonio import report_chunks
from ellis_envelope.semigroups import cyclic_group
from ellis_envelope.spectrahedron import OperatorSubspace
from ellis_envelope.tolerances import TOL

from conftest import nearfix, noncp_draw

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_inputs")

    def put(name, obj):
        p = d / name
        p.write_text(json.dumps(obj, default=np.ndarray.tolist))
        return str(p)

    conj_sz = ChannelMap.conjugation(SZ)
    half = ChannelMap.from_superop(
        0.5 * (ChannelMap.identity(2).superop + conj_sz.superop), 2, 2
    )
    diag = OperatorSubspace.from_matrices(
        [np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)]
    )
    return {
        "pinch": put("pinch.json", ChannelMap.pinching(2).to_json()),
        "halfsz": put("halfsz.json", half.to_json()),
        "nonunital": put("nonunital.json", ChannelMap.from_kraus([I2 / 2.0]).to_json()),
        "d2": put("d2.json", diag.to_json("system")),
        "span_i": put("span_i.json", OperatorSubspace.from_matrices([I2]).to_json("system")),
        "rigid": put("rigid.json", OperatorSubspace.from_matrices([I2, SX, SZ]).to_json("system")),
        "nearfix": put("nearfix.json", nearfix(1e-10).to_json()),
        "span_i_m3": put("span_i_m3.json", OperatorSubspace.from_matrices([np.eye(3)]).to_json("system")),
        "corner": put("corner.json", OperatorSubspace.from_matrices([np.triu(SX)]).to_json("space")),
        "table": put("table.json", cyclic_group(3).to_json()),
        "badtable": put("badtable.json", {"order": 2, "table": [[1, 1], [0, 0]]}),
        "badjson": _put_text(d, "badjson.json", "{not json"),
        "dir": str(d),
    }


@pytest.fixture(autouse=True)
def reports_match_reference_encoder(monkeypatch):
    """Every report a test here streams must join to the reference encoder's text."""
    checked = []

    def chunks_and_compare(report, indent):
        chunks = list(report_chunks(report, indent))
        text = "".join(chunks)
        assert text == json.dumps(report, default=np.ndarray.tolist, sort_keys=True, indent=indent) + "\n"
        checked.append(len(text))
        return iter(chunks)

    monkeypatch.setattr(cli, "report_chunks", chunks_and_compare)
    return checked


def _put_text(d, name, text):
    p = d / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    rep = json.loads(out)
    assert set(rep) == {"command", "config", "versions", "certificate", "result"}
    assert set(rep["config"]) == {"report_tol", "mode", "json_indent", "tolerances"}
    assert rep["config"]["tolerances"] == asdict(TOL)
    for key in ("package", "python", "numpy"):
        assert key in rep["versions"]
    return rep


# ------------------------------------------------------------------------
# configuration


def test_runconfig_defaults_validate():
    RunConfig().validate()


def test_runconfig_rejects_inverted_tolerances():
    with pytest.raises(ValueError, match="strictly above"):
        RunConfig(report_tol=1e-9).validate()


def test_runconfig_rejects_negative_indent():
    with pytest.raises(ValueError, match="indent must be nonnegative"):
        RunConfig(json_indent=-1).validate()


# ------------------------------------------------------------------------
# subcommands, happy paths


def test_semigroup_analyze(capsys, inputs):
    code, out, _ = run(capsys, ["semigroup", "analyze", inputs["table"]])
    assert code == 0
    rep = report_of(out)
    assert rep["certificate"] == "certified"
    assert rep["result"]["idempotents"] == [0]
    assert rep["result"]["minimal_left_ideals"] == [[0, 1, 2]]
    assert rep["result"]["similarity_remark"]["passed"] is True


def test_semigroup_enumerate_order_two(capsys, inputs):
    code, out, _ = run(capsys, ["semigroup", "enumerate", "--order", "2"])
    assert code == 0
    rep = report_of(out)
    assert rep["result"]["semigroup_count"] == 8
    assert all(c["passed"] for c in rep["result"]["checks"].values())
    assert set(rep["result"]["checks"]) == {
        "idempotents-exist",
        "minimal-below",
        "similar-pairs",
        "ideal-idempotents",
    }


def test_semigroup_enumerate_single_check(capsys, inputs):
    code, out, _ = run(
        capsys, ["semigroup", "enumerate", "--order", "2", "--check", "minimal-below"]
    )
    assert code == 0
    rep = report_of(out)
    assert list(rep["result"]["checks"]) == ["minimal-below"]


def test_channel_info(capsys, inputs):
    code, out, _ = run(capsys, ["channel", "info", inputs["pinch"]])
    assert code == 0
    rep = report_of(out)
    r = rep["result"]
    assert r["cp"] and r["unital"] and r["trace_preserving"] and r["idempotent"]
    assert abs(r["cb_bound"] - 1.0) <= 1e-9
    assert r["choi_rank"] == 2


def test_channel_info_reports_choi_rank(capsys, tmp_path):
    # the identity on M_3 has one Kraus operator, but its superoperator has rank 9
    p = tmp_path / "id3.json"
    p.write_text(json.dumps(ChannelMap.identity(3).to_json(), default=np.ndarray.tolist))
    code, out, _ = run(capsys, ["channel", "info", str(p)])
    assert code == 0
    assert report_of(out)["result"]["choi_rank"] == 1


def noncp3_json(tmp_path):
    p = tmp_path / "noncp3.json"
    p.write_text(json.dumps(noncp_draw(3).to_json(), default=np.ndarray.tolist))
    return str(p)


def test_channel_info_brackets_cb_norm_of_non_cp_map(capsys, tmp_path):
    code, out, _ = run(capsys, ["channel", "info", noncp3_json(tmp_path)])
    assert code == 0
    r = report_of(out)["result"]
    assert not r["cp"]
    assert abs(r["cb_bound"] - 2.652554) <= 1e-3
    assert r["cb_contraction"] is False


def test_channel_cesaro_both_modes(capsys, inputs):
    code, out, _ = run(capsys, ["channel", "cesaro", inputs["halfsz"], "--mode", "both"])
    assert code == 0
    rep = report_of(out)
    assert rep["certificate"] == "certified"
    assert rep["result"]["fixed_space_dim"] == 2
    assert rep["result"]["method"] == "both"
    assert rep["result"]["agreement"] <= 1e-7
    assert rep["result"]["worst_residual"] <= 1e-6


def test_envelope_compute(capsys, inputs):
    code, out, _ = run(capsys, ["envelope", "compute", inputs["d2"]])
    assert code == 0
    rep = report_of(out)
    assert rep["certificate"] == "certified"
    assert rep["result"]["rank"] == 2
    assert rep["result"]["mode"] == "system"
    assert rep["result"]["ambient"] == 2
    assert rep["config"]["report_tol"] == TOL.certify


def test_boundary_compute(capsys, inputs):
    code, out, _ = run(
        capsys,
        ["boundary", "compute", inputs["halfsz"], "--fix", inputs["span_i"]],
    )
    assert code == 0
    rep = report_of(out)
    assert rep["certificate"] == "certified"
    assert rep["result"]["rank"] == 1
    assert rep["result"]["fixed_space_dim"] == 2


def test_boundary_inside_the_fixed_space_cut_certifies(capsys, inputs):
    # I - S_phi has a singular value 5e-11, below the fixed-space cut, so
    # F_phi has dimension 5; the T-set's span W is its complement from the
    # same SVD, and the state map over span{I} certifies
    code, out, _ = run(capsys, ["boundary", "compute", inputs["nearfix"], "--fix", inputs["span_i_m3"]])
    assert code == 0
    rep = report_of(out)
    assert rep["certificate"] == "certified"
    assert (rep["result"]["rank"], rep["result"]["fixed_space_dim"]) == (1, 5)


@pytest.mark.parametrize(
    "argv, ranks, step",
    [
        # envelopes step once from the identity, at distance ||S_theta0 - I||_F
        (["envelope", "compute", "d2"], [4, 2], np.sqrt(2.0)),
        (["envelope", "compute", "span_i"], [4, 1], np.sqrt(3.0)),
        (["envelope", "compute", "corner"], [16, 4], None),
        # boundaries step once from the channel's Cesaro idempotent
        (["boundary", "compute", "halfsz", "--fix", "span_i"], [2, 1], None),
    ],
    ids=["envelope-d2", "envelope-span_i", "envelope-corner", "boundary-halfsz"],
)
def test_descent_trace_has_two_rows(capsys, inputs, argv, ranks, step):
    code, out, _ = run(capsys, [inputs.get(a, a) for a in argv])
    assert code == 0
    trace = report_of(out)["result"]["descent_trace"]
    assert [it for it, _, _ in trace] == [0, 1]
    assert [rk for _, rk, _ in trace] == ranks
    assert trace[0][2] == 0.0
    if step is not None:
        assert trace[1][2] == pytest.approx(step, rel=1e-12)


# ------------------------------------------------------------------------
# determinism


def test_envelope_reports_are_byte_identical(capsys, inputs):
    args = ["envelope", "compute", inputs["d2"]]
    code1, out1, _ = run(capsys, args)
    code2, out2, _ = run(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reports_go_through_the_reference_check(capsys, inputs, reports_match_reference_encoder):
    run(capsys, ["channel", "cesaro", inputs["halfsz"], "--mode", "both"])
    run(capsys, ["envelope", "compute", inputs["d2"], "--json-indent", "0"])
    assert len(reports_match_reference_encoder) == 2


def test_out_flag_writes_file_and_silences_stdout(capsys, inputs, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        ["channel", "info", inputs["pinch"], "--out", str(target), "--json-indent", "0"],
    )
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["result"]["cp"] is True


# ------------------------------------------------------------------------
# exit code 2: unverified results


def test_incomplete_face_exits_two(capsys, inputs, monkeypatch):
    # with facial reduction disabled the rigid system's set keeps violating
    # directions but has no interior point: its center is the identity, so
    # the one step returns the identity again
    monkeypatch.setattr(spectrahedron, "_structural_face", lambda laws, n: np.eye(n * n, dtype=complex))
    code, out, _ = run(capsys, ["envelope", "compute", inputs["rigid"]])
    assert code == 2
    rep = report_of(out)
    assert rep["certificate"] == "unverified"
    assert rep["result"]["rigidity_violation"] > 1e-6
    trace = rep["result"]["descent_trace"]
    assert [rk for _, rk, _ in trace] == [4, 4]
    assert trace[1][2] <= 1e-12


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def nonconvergence_diagnostics(err):
    diag = json.loads(err, parse_constant=_reject_constant)
    assert diag["error"] == "non-convergence"
    assert diag["history_tail"]
    for step, residual in diag["history_tail"]:
        assert isinstance(step, int) and (residual is None or isinstance(residual, float))
    return diag


def test_cesaro_nonconvergence_exits_two(capsys, inputs, monkeypatch):
    # an unreachable stopping tolerance makes the doubling loop run out
    monkeypatch.setattr(channels, "TOL", replace(TOL, cesaro=-1.0))
    code, out, err = run(capsys, ["channel", "cesaro", inputs["halfsz"], "--mode", "iterative"])
    assert code == 2
    assert out == ""
    nonconvergence_diagnostics(err)


@pytest.mark.parametrize("mode", ["iterative", "both"])
def test_slow_eigenvalue_nonconvergence_names_the_spectral_cut(capsys, inputs, mode):
    # the eigenvalue 1 - 5e-11 of nearfix(1e-10) is fixed for the spectral
    # cut, but the doubling would need about 1e10 powers to average it out.
    # The singular values of I - S_phi next to the cut are sin(delta / 2) and
    # sin(pi / 3 - delta / 2)
    code, out, err = run(capsys, ["channel", "cesaro", inputs["nearfix"], "--mode", mode])
    assert code == 2
    assert out == ""
    detail = nonconvergence_diagnostics(err)["detail"]
    assert "no convergence" in detail
    assert f"spectral cut {TOL.fixed_space:.3e} of I - S_R between 5.000e-11 (zero) and 8.660e-01 (kept)" in detail


def test_seed_failure_exits_two_with_strict_json(capsys, inputs, monkeypatch):
    # seed_idempotent's one Cesaro attempt fails outright and its history
    # marks it with an infinite residual, which strict JSON cannot carry
    def refuse(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(envelope, "cesaro_idempotent", refuse)
    code, out, err = run(capsys, ["envelope", "compute", inputs["d2"]])
    assert code == 2
    assert out == ""
    diag = nonconvergence_diagnostics(err)
    assert [r for _, r in diag["history_tail"]] == [None]


def test_boundary_step_failure_exits_two(capsys, inputs, monkeypatch):
    # the set's known member is built before the step, so only the step's
    # Cesaro call fails, and the failure reaches the CLI as non-convergence
    def refuse(*args, **kwargs):
        raise NonConvergenceError("forced", [(0, 1.0)])

    monkeypatch.setattr(envelope, "cesaro_idempotent", refuse)
    code, out, err = run(capsys, ["boundary", "compute", inputs["halfsz"], "--fix", inputs["span_i"]])
    assert code == 2
    assert out == ""
    assert "seed_idempotent" in nonconvergence_diagnostics(err)["detail"]


def test_envelope_nonconvergence_exits_two(capsys, inputs, monkeypatch):
    # one Newton iteration returns only a start that is already the
    # projection; the corner lift's center is not, and after a step the exit
    # needs two consecutive gradients within the solver tolerance
    monkeypatch.setattr(spectrahedron, "NEWTON_MAX_ITER", 1)
    code, out, err = run(capsys, ["envelope", "compute", inputs["corner"]])
    assert code == 2
    assert out == ""
    assert "dykstra_project" in nonconvergence_diagnostics(err)["detail"]


def test_open_cb_bracket_exits_two(capsys, tmp_path, monkeypatch):
    # one ascent step leaves the bracket open, so cb_contraction is unproven
    monkeypatch.setattr(spectrahedron, "CB_ASCENT_STEPS", 1)
    code, out, err = run(capsys, ["channel", "info", noncp3_json(tmp_path)])
    assert code == 2
    assert out == ""
    assert "cb_norm" in nonconvergence_diagnostics(err)["detail"]


# ------------------------------------------------------------------------
# exit code 1: input errors


def test_bad_json_exits_one(capsys, inputs):
    code, out, err = run(capsys, ["channel", "info", inputs["badjson"]])
    assert code == 1
    assert out == ""
    assert "badjson.json" in err and "invalid JSON" in err


def test_missing_file_exits_one(capsys, inputs):
    code, _, err = run(capsys, ["channel", "info", inputs["dir"] + "/nope.json"])
    assert code == 1
    assert "nope.json" in err


def test_nonassociative_table_exits_one(capsys, inputs):
    code, _, err = run(capsys, ["semigroup", "analyze", inputs["badtable"]])
    assert code == 1
    assert "not associative" in err


def test_nonunital_channel_exits_one(capsys, inputs):
    code, _, err = run(capsys, ["channel", "cesaro", inputs["nonunital"]])
    assert code == 1
    assert "unital" in err


def test_space_not_fixed_exits_one(capsys, inputs, tmp_path):
    sx_space = OperatorSubspace.from_matrices([I2, np.array([[0, 1], [1, 0]], dtype=complex)])
    p = tmp_path / "spanix.json"
    p.write_text(json.dumps(sx_space.to_json("system"), default=np.ndarray.tolist))
    code, _, err = run(capsys, ["boundary", "compute", inputs["halfsz"], "--fix", str(p)])
    assert code == 1
    assert "not fixed" in err


def test_tolerance_below_solver_exits_one(capsys, inputs):
    code, _, err = run(capsys, ["envelope", "compute", inputs["d2"], "--tol", "1e-9"])
    assert code == 1
    assert "strictly above" in err


class _FailingStdout:
    """A stdout whose writes fail, as a closed pipe or a full disk makes them."""

    def __init__(self, exc):
        self.exc = exc

    def writelines(self, chunks):
        next(iter(chunks))
        raise self.exc

    def flush(self):
        raise self.exc


@pytest.mark.parametrize(
    "exc", [BrokenPipeError(32, "Broken pipe"), OSError(28, "No space left on device")], ids=["pipe", "full"]
)
def test_failed_write_to_stdout_exits_one(capsys, inputs, monkeypatch, exc):
    monkeypatch.setattr("sys.stdout", _FailingStdout(exc))
    code = main(["channel", "cesaro", inputs["halfsz"], "--mode", "both"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: stdout: cannot write ({exc})\n"


def test_failed_write_to_out_file_exits_one(capsys, inputs, tmp_path):
    code, out, err = run(capsys, ["channel", "info", inputs["pinch"], "--out", str(tmp_path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {tmp_path}: cannot write (")


def test_infinite_tolerance_exits_one(capsys, inputs):
    # an infinite tolerance would certify any bound, and it has no strict
    # JSON encoding for the report's config
    code, out, err = run(capsys, ["envelope", "compute", inputs["rigid"], "--tol", "inf"])
    assert code == 1
    assert out == ""
    assert "must be finite" in err


def test_malformed_channel_json_exits_one(capsys, tmp_path):
    good = ChannelMap.pinching(2).to_json()
    bad_entry = json.loads(json.dumps(good, default=np.ndarray.tolist))
    bad_entry["choi"]["data"][0] = [None, 0]
    cases = {
        "no_choi": {k: v for k, v in good.items() if k != "choi"},
        "kraus_int": {"dim_in": 2, "dim_out": 2, "repr": "kraus", "kraus": 5},
        "null_entry": bad_entry,
    }
    for name, obj in cases.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj, default=np.ndarray.tolist))
        code, out, err = run(capsys, ["channel", "info", str(p)])
        assert code == 1, name
        assert out == ""
        assert err.startswith(f"error: {p}: ") and "Traceback" not in err, err
    assert "entries must be [re, im] number pairs" in err


_IDENTITY_DATA = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
_NAN, _INF = float("nan"), float("inf")


def _space_m2(**fields):
    basis = {"rows": 2, "cols": 2, "data": _IDENTITY_DATA}
    basis.update(fields.pop("basis", {}))
    return {"ambient": 2, "basis": [basis], "mode": "system", **fields}


def _pinching_m2(**fields):
    obj = ChannelMap.pinching(2).to_json()
    obj["choi"].update(fields.pop("choi", {}))
    return {**obj, **fields}


@pytest.mark.parametrize(
    "command, obj, message",
    [
        # declared sizes are JSON integers: never truncated, cast from a bool or parsed from a string
        pytest.param(
            ["envelope", "compute"], _space_m2(basis={"rows": 2.5}), "matrix json: rows must be an integer >= 1, got 2.5",
            id="rows_float",
        ),
        pytest.param(
            ["envelope", "compute"], _space_m2(ambient="2"), "operator space json: ambient must be an integer >= 1, got '2'",
            id="ambient_string",
        ),
        pytest.param(
            ["envelope", "compute"], _space_m2(ambient=_INF), "operator space json: ambient must be an integer >= 1, got inf",
            id="ambient_infinity",
        ),
        pytest.param(
            ["channel", "info"],
            {"dim_in": True, "dim_out": 1, "repr": "choi", "choi": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}},
            "channel json: dim_in must be an integer >= 1, got True",
            id="dim_in_bool",
        ),
        pytest.param(
            ["channel", "info"], _pinching_m2(choi={"cols": 4.0}), "matrix json: cols must be an integer >= 1, got 4.0",
            id="cols_float",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2.0, "table": [[0, 1], [1, 0]]},
            "cayley json: order must be an integer >= 1, got 2.0",
            id="order_float",
        ),
        # table entries are JSON integers too, and index an element
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, 1.7], [1, 0]]},
            "cayley json: entries must be integers in 0..1, got 1.7", id="table_entry_float",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, 1.0], [1, 0]]},
            "cayley json: entries must be integers in 0..1, got 1.0", id="table_entry_integral_float",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, True], [True, 0]]},
            "cayley json: entries must be integers in 0..1, got True", id="table_entry_bool",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, "1"], [1, 0]]},
            "cayley json: entries must be integers in 0..1, got '1'", id="table_entry_string",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, 2**70], [1, 0]]},
            "cayley json: entries must be integers in 0..1, got 1180591620717411303424", id="table_entry_huge",
        ),
        pytest.param(
            ["semigroup", "analyze"], {"order": 2, "table": [[0, 1], [1]]},
            "cayley json: table must be 2 rows of 2 entries", id="table_ragged",
        ),
        # and at least 1
        pytest.param(
            ["channel", "info"],
            {"dim_in": -1, "dim_out": 2, "repr": "kraus", "kraus": [{"rows": 2, "cols": 2, "data": _IDENTITY_DATA}]},
            "channel json: dim_in must be an integer >= 1, got -1",
            id="dim_in_negative",
        ),
        # NaN and Infinity parse as JSON numbers, but no entry may be non-finite
        pytest.param(
            ["channel", "info"], _pinching_m2(choi={"data": [[_NAN, 0.0]] + [[0.0, 0.0]] * 15}),
            "matrix json: entries must be finite", id="choi_nan",
        ),
        pytest.param(
            ["channel", "info"], _pinching_m2(choi={"data": [[0.0, _INF]] + [[0.0, 0.0]] * 15}),
            "matrix json: entries must be finite", id="choi_infinity",
        ),
        pytest.param(
            ["envelope", "compute"], _space_m2(basis={"data": [[_NAN, 0.0]] + _IDENTITY_DATA[1:]}),
            "matrix json: entries must be finite", id="basis_nan",
        ),
    ],
)
def test_invalid_declared_sizes_and_entries_exit_one(capsys, tmp_path, command, obj, message):
    p = tmp_path / "input.json"
    p.write_text(json.dumps(obj, default=np.ndarray.tolist))
    code, out, err = run(capsys, [*command, str(p)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {p}: ") and message in err, err


def test_ambient_cap_exits_one(capsys, tmp_path):
    big = OperatorSubspace.from_matrices([np.eye(65, dtype=complex)])
    p = tmp_path / "big.json"
    p.write_text(json.dumps(big.to_json("system"), default=np.ndarray.tolist))
    code, _, err = run(capsys, ["envelope", "compute", str(p)])
    assert code == 1
    assert "exceeds" in err and "64" in err


def test_ambient_cap_is_checked_before_decoding(capsys, tmp_path, monkeypatch):
    def refuse(obj):
        raise AssertionError("a matrix was decoded before the ambient cap was checked")

    monkeypatch.setattr(linalg, "matrix_from_json", refuse)
    monkeypatch.setattr(channels, "matrix_from_json", refuse)
    one = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}
    space = tmp_path / "space65.json"
    space.write_text(json.dumps({"ambient": 65, "basis": [one], "mode": "system"}))
    chan = tmp_path / "chan65.json"
    chan.write_text(json.dumps({"dim_in": 2, "dim_out": 65, "repr": "kraus", "kraus": [one]}))
    for argv in (["envelope", "compute", str(space)], ["channel", "info", str(chan)]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "ambient dimension 65 exceeds the 64x64 cap" in err


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, ["envelope", "nope"])
    assert code == 1
    assert "invalid choice" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "ellis-envelope" in out


# ------------------------------------------------------------------------
# removed settings


def test_removed_flags_exit_one(capsys, inputs, monkeypatch):
    # --parallel and both --seed flags are gone; the thread variable is not read
    code, _, err = run(capsys, ["channel", "info", inputs["pinch"], "--parallel", "3"])
    assert code == 1
    assert "unrecognized arguments: --parallel 3" in err
    argv = ["boundary", "compute", inputs["halfsz"], "--fix", inputs["span_i"], "--seed", "5"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "unrecognized arguments: --seed 5" in err
    code, _, err = run(capsys, ["envelope", "compute", inputs["d2"], "--seed", "3"])
    assert code == 1
    assert "unrecognized arguments: --seed 3" in err
    monkeypatch.setenv("ELLIS_ENVELOPE_THREADS", "many")
    code, out, _ = run(capsys, ["channel", "info", inputs["pinch"]])
    assert code == 0
    report_of(out)
