"""CLI contract: exit codes, report shape, determinism, input validation.

All invocations go through main(argv) in-process; stdout carries exactly one
JSON report on success and stderr carries diagnostics on failure.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from ellis_envelope import channels, cli, envelope, spectrahedron
from ellis_envelope.channels import ChannelMap
from ellis_envelope.cli import RunConfig, main
from ellis_envelope.jsonio import dump_report
from ellis_envelope.semigroups import cyclic_group
from ellis_envelope.spectrahedron import OperatorSubspace
from ellis_envelope.tolerances import TOL

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_inputs")

    def put(name, obj):
        p = d / name
        p.write_text(json.dumps(obj))
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
        "table": put("table.json", cyclic_group(3).to_json()),
        "badtable": put("badtable.json", {"order": 2, "table": [[1, 1], [0, 0]]}),
        "badjson": _put_text(d, "badjson.json", "{not json"),
        "dir": str(d),
    }


@pytest.fixture(autouse=True)
def reports_match_reference_encoder(monkeypatch):
    """Every report a test here produces must equal the reference encoder's text."""
    checked = []

    def dump_and_compare(report, indent):
        text = dump_report(report, indent)
        assert text == json.dumps(report, sort_keys=True, indent=indent) + "\n"
        checked.append(len(text))
        return text

    monkeypatch.setattr(cli, "dump_report", dump_and_compare)
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
    assert set(rep["config"]) == {"seed", "report_tol", "mode", "json_indent", "tolerances"}
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


def test_runconfig_rejects_negative_seed_and_indent():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        RunConfig(seed=-1).validate()
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
    p.write_text(json.dumps(ChannelMap.identity(3).to_json()))
    code, out, _ = run(capsys, ["channel", "info", str(p)])
    assert code == 0
    assert report_of(out)["result"]["choi_rank"] == 1


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


# ------------------------------------------------------------------------
# determinism


def test_envelope_reports_are_byte_identical(capsys, inputs):
    args = ["envelope", "compute", inputs["d2"], "--seed", "3"]
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
    # directions but has no interior point to step from
    monkeypatch.setattr(spectrahedron, "_find_exposing_vector", lambda *a, **k: None)
    code, out, _ = run(capsys, ["envelope", "compute", inputs["rigid"]])
    assert code == 2
    rep = report_of(out)
    assert rep["certificate"] == "unverified"
    assert rep["result"]["rigidity_violation"] > 1e-6
    assert rep["result"]["descent_trace"] == [[0, 4, 0.0]]


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


def test_seed_failure_exits_two_with_strict_json(capsys, inputs, monkeypatch):
    # every rung of seed_idempotent fails outright and its history marks each
    # with an infinite residual, which strict JSON cannot carry
    def refuse(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(envelope, "cesaro_idempotent", refuse)
    code, out, err = run(capsys, ["envelope", "compute", inputs["d2"]])
    assert code == 2
    assert out == ""
    diag = nonconvergence_diagnostics(err)
    assert [r for _, r in diag["history_tail"]] == [None] * len(envelope.SEED_SV_RTOLS)


def test_envelope_nonconvergence_exits_two(capsys, inputs, monkeypatch):
    # one Newton iteration never returns: the exit needs two consecutive
    # gradients within the solver tolerance
    monkeypatch.setattr(spectrahedron, "NEWTON_MAX_ITER", 1)
    code, out, err = run(capsys, ["envelope", "compute", inputs["d2"]])
    assert code == 2
    assert out == ""
    assert "dykstra_project" in nonconvergence_diagnostics(err)["detail"]


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
    p.write_text(json.dumps(sx_space.to_json("system")))
    code, _, err = run(capsys, ["boundary", "compute", inputs["halfsz"], "--fix", str(p)])
    assert code == 1
    assert "not fixed" in err


def test_tolerance_below_solver_exits_one(capsys, inputs):
    code, _, err = run(capsys, ["envelope", "compute", inputs["d2"], "--tol", "1e-9"])
    assert code == 1
    assert "strictly above" in err


def test_malformed_channel_json_exits_one(capsys, tmp_path):
    good = ChannelMap.pinching(2).to_json()
    bad_entry = json.loads(json.dumps(good))
    bad_entry["choi"]["data"][0] = [None, 0]
    cases = {
        "no_choi": {k: v for k, v in good.items() if k != "choi"},
        "kraus_int": {"dim_in": 2, "dim_out": 2, "repr": "kraus", "kraus": 5},
        "null_entry": bad_entry,
    }
    for name, obj in cases.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, ["channel", "info", str(p)])
        assert code == 1, name
        assert out == ""
        assert err.startswith(f"error: {p}: ") and "Traceback" not in err, err
    assert "entries must be [re, im] number pairs" in err


def test_ambient_cap_exits_one(capsys, tmp_path):
    big = OperatorSubspace.from_matrices([np.eye(65, dtype=complex)])
    p = tmp_path / "big.json"
    p.write_text(json.dumps(big.to_json("system")))
    code, _, err = run(capsys, ["envelope", "compute", str(p)])
    assert code == 1
    assert "exceeds" in err and "64" in err


def test_ambient_cap_is_checked_before_decoding(capsys, tmp_path, monkeypatch):
    def refuse(obj):
        raise AssertionError("a matrix was decoded before the ambient cap was checked")

    monkeypatch.setattr(spectrahedron, "matrix_from_json", refuse)
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
    # --parallel and boundary --seed are gone; the thread variable is not read
    code, _, err = run(capsys, ["channel", "info", inputs["pinch"], "--parallel", "3"])
    assert code == 1
    assert "unrecognized arguments: --parallel 3" in err
    argv = ["boundary", "compute", inputs["halfsz"], "--fix", inputs["span_i"], "--seed", "5"]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "unrecognized arguments: --seed 5" in err
    monkeypatch.setenv("ELLIS_ENVELOPE_THREADS", "many")
    code, out, _ = run(capsys, ["channel", "info", inputs["pinch"]])
    assert code == 0
    report_of(out)
