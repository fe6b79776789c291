import json

import numpy as np
import pytest

from fermigauss.cli import main
from fermigauss.quadratic import random_generator

from conftest import worked_example_m


def write_operator(path, m, u=None, v=None):
    L = m.shape[0] // 2
    doc = {"L": L, "M": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
    if u is not None:
        doc["u"] = [[float(z.real), float(z.imag)] for z in u]
    if v is not None:
        doc["v"] = [[float(z.real), float(z.imag)] for z in v]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def op_file(tmp_path):
    return write_operator(tmp_path / "op.json", worked_example_m(0.7))


@pytest.fixture
def singular_op_file(tmp_path):
    return write_operator(tmp_path / "sing.json", worked_example_m(np.pi / 2))


@pytest.fixture
def linear_op_file(tmp_path):
    g = random_generator(2, 5, 0.5)
    return write_operator(tmp_path / "lin.json", g.m,
                          u=np.array([0.2 + 0.1j, -0.3]), v=np.array([0.1, 0.4j]))


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_overlap_golden_vacuum(op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", op_file, "--bra", "000", "--ket", "000")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "pfaffian" and doc["sign_certain"]
    value = complex(*doc["results"]["value"])
    assert abs(value - np.cos(0.7)) < 1e-12


def test_overlap_parity_zero(op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", op_file, "--bra", "100", "--ket", "000")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["value"] == [0.0, 0.0]
    assert doc["diagnostics"]["parity_zero"] is True


def test_overlap_verify_and_determinism(op_file, capsys):
    args = ("overlap", "--op", op_file, "--bra", "000", "--ket", "110", "--verify")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports for identical inputs
    doc = json.loads(out1)
    assert doc["results"]["oracle_deviation"] < 1e-10


def test_report_floats_full_precision(op_file, capsys):
    _, out, _ = run(capsys, "overlap", "--op", op_file, "--bra", "000", "--ket", "000")
    value_text = out.split('"value": ')[1].split("]")[0]
    mantissa = value_text.strip("[ ").split(",")[0]
    assert len(mantissa.replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_decompose_normal(op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", op_file, "--form", "normal")
    assert code == 0
    doc = json.loads(out)
    x = np.array([[complex(*p) for p in row] for row in doc["results"]["x"]])
    assert abs(x[0, 2] - np.tan(0.7)) < 1e-10
    assert abs(x[0, 1] - (1 - 1 / np.cos(0.7))) < 1e-10
    pref = complex(*doc["results"]["prefactor"])
    assert abs(pref - np.cos(0.7)) < 1e-12


def test_decompose_singular_exit_code(singular_op_file, capsys):
    code, _, err = run(capsys, "decompose", "--input", singular_op_file, "--form", "normal")
    assert code == 2
    assert "[1]" in err  # suggested site subsets are listed


def test_decompose_with_cp(singular_op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", singular_op_file,
                       "--form", "normal", "--cp", "1")
    assert code == 0
    assert json.loads(out)["diagnostics"]["cp_sites"] == [1]


def test_decompose_epsilon(singular_op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", singular_op_file,
                       "--form", "normal", "--epsilon")
    assert code == 0
    assert json.loads(out)["diagnostics"]["epsilon"] > 0


def test_decompose_generalized(linear_op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", linear_op_file,
                       "--form", "generalized")
    assert code == 0
    doc = json.loads(out)
    assert "q" in doc["results"] and "p" in doc["results"]


def test_overlap_epsilon_on_singular(singular_op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", singular_op_file,
                       "--bra", "000", "--ket", "000")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "epsilon-regularized"
    assert [(e["route"], e["accepted"]) for e in doc["route"]] == \
        [("pfaffian", False), ("epsilon", True)]
    assert abs(complex(*doc["results"]["value"])) < 1e-6  # cos(pi/2) = 0


def test_overlap_cp_magnitude(singular_op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", singular_op_file,
                       "--bra", "110", "--ket", "000", "--cp-magnitude")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cp-magnitude" and doc["sign_certain"] is False
    assert abs(complex(*doc["results"]["value"]) - 1.0) < 1e-9  # |cos - 1| at pi/2


def test_overlap_cp_magnitude_with_linear_parts(linear_op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", linear_op_file, "--bra", "10",
                       "--ket", "00", "--cp-magnitude", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "cp-magnitude" and doc["sign_certain"] is False
    assert [e["route"] for e in doc["route"]] == ["cp-magnitude"]
    assert doc["results"]["oracle_deviation"] < 1e-10


def test_overlap_exhausted_rescue_chain_exit_code(tmp_path, capsys):
    op = write_operator(tmp_path / "large.json", random_generator(8, 0, scale=30).m)
    code, _, err = run(capsys, "overlap", "--op", op, "--bra", "0" * 8, "--ket", "0" * 8)
    assert code == 2 and "no site subset" in err


def test_overlap_overflow_exit_code(tmp_path, capsys):
    op = write_operator(tmp_path / "huge.json", random_generator(4, 1, scale=1000).m)
    code, out, err = run(capsys, "overlap", "--op", op, "--bra", "0" * 4, "--ket", "0" * 4)
    assert code == 5 and out == ""
    assert err.startswith("error:") and "overflows" in err


def test_correlate_trivial(tmp_path, capsys):
    op = write_operator(tmp_path / "zero.json", np.zeros((4, 4)))
    code, out, _ = run(capsys, "correlate", "--op", op, "--bra", "00", "--ket", "00",
                       "--string", "c1 cd1")
    assert code == 0
    assert complex(*json.loads(out)["results"]["value"]) == pytest.approx(1.0)


def test_correlate_verify_and_expand(linear_op_file, capsys):
    code, out, _ = run(capsys, "correlate", "--op", linear_op_file, "--bra", "10",
                       "--ket", "01", "--string", "c1 cd2 c2", "--expand", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["oracle_deviation"] < 1e-8
    direct = complex(*doc["results"]["value"])
    expansion = complex(*doc["results"]["expansion_value"])
    assert abs(direct - expansion) < 1e-8
    assert len(doc["results"]["terms"]) == 3


def test_wick_alias(linear_op_file, capsys):
    code, out, _ = run(capsys, "wick", "--op", linear_op_file, "--bra", "10",
                       "--ket", "01", "--string", "c1 cd2 c2")
    assert code == 0
    assert "terms" in json.loads(out)["results"]


def test_correlate_grammar_error(op_file, capsys):
    code, _, err = run(capsys, "correlate", "--op", op_file, "--bra", "000",
                       "--ket", "000", "--string", "x1")
    assert code == 3 and "token" in err


def test_correlate_zero_overlap_guard(op_file, capsys):
    code, out, err = run(capsys, "correlate", "--op", op_file, "--bra", "000",
                         "--ket", "110", "--string", "c1 cd1 c2 cd2")
    assert code == 4
    doc = json.loads(out)
    assert "unnormalized_sum" in doc["results"]


def test_cp_scan_pattern(singular_op_file, capsys):
    code, out, _ = run(capsys, "cp-scan", "--op", singular_op_file)
    assert code == 0
    entries = {tuple(e["sites"]): e for e in json.loads(out)["results"]["entries"]}
    assert not entries[(2,)]["t22_invertible"] and not entries[(2,)]["t11_invertible"]
    assert not entries[(1, 3)]["t22_invertible"]
    for sites in [(1,), (3,), (1, 2), (2, 3)]:
        assert entries[sites]["t22_invertible"] and entries[sites]["t11_invertible"]


def test_compose_roundtrip(tmp_path, op_file, capsys):
    out_path = tmp_path / "composed.json"
    code, _, _ = run(capsys, "compose", "--inputs", op_file, op_file,
                     "--output", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "overlap", "--op", str(out_path),
                       "--bra", "000", "--ket", "000", "--verify")
    assert code == 0
    assert json.loads(out)["results"]["oracle_deviation"] < 1e-10


def test_verify_subcommand(op_file, linear_op_file, capsys):
    code, out, err = run(capsys, "verify", "--op", op_file)
    assert code == 0
    assert json.loads(out)["results"]["all_passed"]
    assert "PASS" in err
    code, out, _ = run(capsys, "verify", "--op", linear_op_file)
    assert code == 0


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "overlap", "--op", str(bad), "--bra", "0", "--ket", "0")
    assert code == 3
    # admissibility violation
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"L": 1, "M": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    code, _, err = run(capsys, "overlap", "--op", str(bad2), "--bra", "0", "--ket", "0")
    assert code == 3 and "antisymmetric" in err
    # wrong bit-string length
    op = write_operator(tmp_path / "tiny.json", np.zeros((2, 2)))
    code, _, _ = run(capsys, "overlap", "--op", op, "--bra", "00", "--ket", "0")
    assert code == 3
