import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import cli, correlators, quadratic
from fermigauss.cli import CliError, main
from fermigauss.linalg import skew_defect
from fermigauss.overlaps import state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator, transfer_of

from conftest import compose_pair, worked_example_m
from test_quadratic import pair_rotation_generator, reference_scan, rotation_plus_sector, scan_generator


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
    # an exact zero reads back as the float 0.0, not as the int 0
    assert [(type(x), x) for x in doc["results"]["value"]] == [(float, 0.0)] * 2
    assert (doc["method"], doc["route"]) == ("pfaffian", [])


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


def test_decompose_normal_on_the_branch_cut(tmp_path, capsys):
    # M = diag(i pi I, -i pi I) has T22 = -I on the principal log's branch
    # cut: the prefactor is a principal root of uncertain sign, and Y is
    # absent, written as null
    m = np.diag([1j * np.pi] * 2 + [-1j * np.pi] * 2)
    code, out, _ = run(capsys, "decompose", "--input", write_operator(tmp_path / "cut.json", m),
                       "--form", "normal")
    assert code == 0
    doc = json.loads(out)
    assert doc["sign_certain"] is False and doc["results"]["y"] is None
    exp_y = np.array([[complex(*z) for z in row] for row in doc["results"]["exp_y"]])
    assert np.max(np.abs(exp_y + np.eye(2))) < 1e-15


def test_decompose_singular_exit_code(singular_op_file, capsys):
    code, _, err = run(capsys, "decompose", "--input", singular_op_file, "--form", "normal")
    assert code == 2
    assert "[1]" in err  # suggested site subsets are listed


def test_decompose_certified_singular_hint(tmp_path, capsys, count_calls):
    # one SVD of T shows that no site subset restores T22: the only rcond
    # estimate is the factorization's own, and the hint is empty
    op = write_operator(tmp_path / "large.json", random_generator(10, 2, 40).m)
    calls = count_calls("rcond_estimate")
    code, _, err = run(capsys, "decompose", "--input", op, "--form", "normal")
    assert code == 2
    assert err.rstrip().endswith("site subsets restoring T22: []")
    assert len(calls) == 1 and np.ndim(calls[0][0]) == 2


def test_decompose_with_cp(singular_op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", singular_op_file,
                       "--form", "normal", "--cp", "1")
    assert code == 0
    assert json.loads(out)["diagnostics"]["cp_sites"] == [1]


def test_decompose_generalized(linear_op_file, capsys):
    code, out, _ = run(capsys, "decompose", "--input", linear_op_file,
                       "--form", "generalized")
    assert code == 0
    doc = json.loads(out)
    assert "q" in doc["results"] and "p" in doc["results"]


@pytest.mark.parametrize("flag", [["--cp", "1"]])
def test_decompose_generalized_rejects_quadratic_form_flags(tmp_path, capsys, flag):
    # --cp acts on the normal and antinormal forms only; the generalized
    # form names the flag instead of ignoring it
    rng = np.random.default_rng(3)
    op = write_operator(tmp_path / "lin3.json", random_generator(3, rng, 0.5).m,
                        u=rng.standard_normal(3), v=rng.standard_normal(3))
    code, out, err = run(capsys, "decompose", "--input", op, "--form", "generalized", *flag)
    assert (code, out) == (3, "")
    assert flag[0] in err


def test_overlap_factor_chain_on_singular(singular_op_file, capsys):
    code, out, _ = run(capsys, "overlap", "--op", singular_op_file,
                       "--bra", "110", "--ket", "000", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert (doc["method"], doc["sign_certain"]) == ("factor-chain", True)
    assert [(e["route"], e["accepted"]) for e in doc["route"]] == \
        [("pfaffian", False), ("factor-chain", True)]
    # the identity bra operator and the two halves exp(M/2) exp(M/2)
    assert doc["route"][-1]["factors"] == 3
    # cos(pi/2) - 1 = -1, with its sign
    assert abs(complex(*doc["results"]["value"]) + 1.0) < 1e-12
    assert doc["results"]["oracle_deviation"] < 1e-12


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
    # the reported rcond is a bound that every permuted T22 respects, not 0
    assert "rcond=0.000e+00" not in err


def test_overlap_overflow_exit_code(tmp_path, capsys):
    op = write_operator(tmp_path / "huge.json", random_generator(4, 1, scale=1000).m)
    code, out, err = run(capsys, "overlap", "--op", op, "--bra", "0" * 4, "--ket", "0" * 4)
    assert code == 5 and out == ""
    assert err.startswith("error:") and "overflows" in err


def test_overlap_j_check_overflow_exit_code(tmp_path, capsys):
    # finite factors (max entries 5e120 and 2.4e84) whose product's J-check overflows
    op = write_operator(tmp_path / "a.json", random_generator(2, 2, 150).m)
    op2 = write_operator(tmp_path / "b.json", random_generator(2, 102, 150).m)
    code, out, err = run(capsys, "overlap", "--op", op, "--op2", op2, "--bra", "00", "--ket", "00")
    assert code == 5 and out == ""
    assert err.startswith("error:") and "J-orthogonality check overflows" in err


@pytest.mark.parametrize("scale, code", [(8, 0), (20, 5)])
def test_overlap_failed_product_j_check_exit_code(tmp_path, capsys, scale, code):
    # F2^dag F1 = I, but the product of the transfers fails its J-check:
    # that rejects the routes that form it, the factor chain answers at
    # scale 8, and at scale 20, where every route is rejected, the exit is
    # the numerical failure's
    g = random_generator(4, 1, scale=scale)
    a = write_operator(tmp_path / "a.json", g.m)
    b = write_operator(tmp_path / "b.json", -g.m.conj().T)
    got, out, err = run(capsys, "overlap", "--op", a, "--op2", b, "--bra", "0000", "--ket", "0000")
    assert got == code
    if code == 0:
        doc = json.loads(out)
        assert doc["method"] == "factor-chain"
        assert abs(complex(*doc["results"]["value"]) - 1.0) <= 1e-9
    else:
        assert out == "" and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("sites, needle", [
    ("0", "out of range"), ("4", "out of range"), ("1,1", "duplicate"), ("1,x", "'x'"),
])
def test_decompose_bad_site_list(singular_op_file, capsys, sites, needle):
    code, out, err = run(capsys, "decompose", "--input", singular_op_file, "--cp", sites)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: bad site list {sites!r}") and needle in err


def test_correlate_trivial(tmp_path, capsys):
    op = write_operator(tmp_path / "zero.json", np.zeros((4, 4)))
    code, out, _ = run(capsys, "correlate", "--op", op, "--bra", "00", "--ket", "00",
                       "--string", "c1 cd1")
    assert code == 0
    assert complex(*json.loads(out)["results"]["value"]) == pytest.approx(1.0)


def test_correlate_verify_and_expand(linear_op_file, capsys):
    code, out, _ = run(capsys, "wick", "--op", linear_op_file, "--bra", "10",
                       "--ket", "01", "--string", "c1 cd2 c2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["oracle_deviation"] < 1e-8
    direct = complex(*doc["results"]["value"])
    expansion = complex(*doc["results"]["expansion_value"])
    assert abs(direct - expansion) < 1e-8
    assert len(doc["results"]["terms"]) == 3


@pytest.mark.parametrize("command", ["correlate", "wick"])
def test_correlate_factor_chain_on_singular(singular_op_file, capsys, command):
    # the composed T22 of the pi/2 example is singular: the value is the
    # bordered Pfaffian over the factor chain, and the report says so
    code, out, _ = run(capsys, command, "--op", singular_op_file, "--bra", "110",
                       "--ket", "000", "--string", "cd1 cd2 c3 c1", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert [(e["route"], e["accepted"]) for e in doc["route"]] == \
        [("pfaffian", False), ("factor-chain", True)]
    # the identity bra operator and the two halves exp(M/2) exp(M/2)
    assert doc["route"][1]["factors"] == 3
    assert abs(complex(*doc["results"]["oracle"])) > 0.5
    assert doc["results"]["oracle_deviation"] < 1e-12


def test_correlate_string_that_annihilates_the_bare_bra(tmp_path, capsys):
    # without --op2 the bra operator is the identity: <110000| c1^dag c2 = 0
    # exactly, which the report says, against the oracle's exact zero
    op = write_operator(tmp_path / "op6.json", random_generator(6, 3, scale=10).m)
    code, out, _ = run(capsys, "correlate", "--op", op, "--bra", "110000", "--ket", "000000",
                       "--string", "cd1 c2", "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["value"] == [0.0, 0.0] and doc["results"]["oracle_deviation"] == 0.0
    assert (doc["method"], doc["sign_certain"], doc["route"]) == ("pfaffian", True, [])


@pytest.mark.parametrize("command", ["correlate", "wick"])
def test_correlator_reports_name_the_accepted_route(tmp_path, singular_op_file, capsys, command):
    # method and sign_certain come from the route that answered, as in an
    # overlap report, whatever the operators' kind; a parity zero, and a
    # string that annihilates the bare bra, report what an overlap reports
    # for a parity zero
    quad = write_operator(tmp_path / "quad4.json", random_generator(4, 44, 0.5).m)
    for op, bra, string, method, accepted in (
            (singular_op_file, "110", "cd1 cd2 c3 c1", "factor-chain", ["factor-chain"]),
            (quad, "1100", "cd2 cd1", "pfaffian", ["pfaffian"]),
            (quad, "1100", "cd1 c2", "pfaffian", []),
            (quad, "1000", "cd1 c2", "pfaffian", [])):
        code, out, _ = run(capsys, command, "--op", op, "--bra", bra,
                           "--ket", "0" * (len(bra)), "--string", string, "--verify")
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"], doc["sign_certain"]) == (method, True)
        assert [e["route"] for e in doc["route"] if e["accepted"]] == accepted
        assert doc["results"]["oracle_deviation"] < 1e-12
    assert doc["route"] == [] and doc["results"]["value"] == [0.0, 0.0]


@pytest.mark.parametrize("singular", [False, True])
def test_wick_chooses_one_route_per_context(tmp_path, capsys, monkeypatch, singular):
    # a quadratic file's value and its term table share one route choice
    # and one engine: the Pfaffian's, and on the pi/2 example the factor
    # chain's
    builds, choices = [], []
    orig, dispatch = correlators._Engine.__init__, correlators._dispatch
    monkeypatch.setattr(correlators._Engine, "__init__",
                        lambda self, *a: builds.append(a) or orig(self, *a))
    monkeypatch.setattr(correlators, "_dispatch",
                        lambda *a, **kw: choices.append(dispatch(*a, **kw)) or choices[-1])
    m = worked_example_m(np.pi / 2) if singular else random_generator(4, 45, 0.5).m
    op = write_operator(tmp_path / "op.json", m)
    L = m.shape[0] // 2
    code, _, _ = run(capsys, "wick", "--op", op, "--bra", "110".ljust(L, "0"),
                     "--ket", "0" * L, "--string", "cd1 cd2 c3 c1")
    assert code == 0
    assert len(builds) == 1 and len(choices) == 1
    assert choices[0][1][-1]["route"] == ("factor-chain" if singular else "pfaffian")


def test_wick_empty_string_is_the_overlap(op_file, capsys):
    code, out, _ = run(capsys, "wick", "--op", op_file, "--bra", "110", "--ket", "000",
                       "--string", "", "--verify")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["string"] == [] and len(res["terms"]) == 1
    assert res["expansion_value"] == res["value"] == res["terms"][0]["value"]
    assert res["oracle_deviation"] < 1e-12


def test_wick_alias(linear_op_file, capsys):
    code, out, _ = run(capsys, "wick", "--op", linear_op_file, "--bra", "10",
                       "--ket", "01", "--string", "c1 cd2 c2")
    assert code == 0
    assert "terms" in json.loads(out)["results"]


def test_wick_report_is_correlate_expand_but_its_command(op_file, linear_op_file, capsys):
    # wick's report is correlate's plus the term table, and it says wick, on
    # success and on the zero-overlap guard's exit 4
    docs = {}
    for command in ("wick", "correlate"):
        code, out, _ = run(capsys, command, "--op", linear_op_file, "--bra", "10",
                           "--ket", "01", "--string", "c1 cd2 c2")
        assert code == 0
        docs[command] = json.loads(out)
    wick = docs["wick"]
    assert wick["command"] == "wick"
    assert wick["results"].pop("terms") and wick["results"].pop("expansion_value")
    assert {**wick, "command": "correlate"} == docs["correlate"]
    code, out, _ = run(capsys, "wick", "--op", op_file, "--bra", "000", "--ket", "110",
                       "--string", "c2 c3 cd3 c1")
    assert code == 4 and json.loads(out)["command"] == "wick"


def test_correlate_grammar_error(op_file, capsys):
    code, _, err = run(capsys, "correlate", "--op", op_file, "--bra", "000",
                       "--ket", "000", "--string", "x1")
    assert code == 3 and "token" in err


def test_correlate_zero_overlap_guard(op_file, capsys):
    # <000|F|110> vanishes, yet the 4-point value is signed and finite: it
    # is one bordered Pfaffian, with no overlap to divide by
    code, out, _ = run(capsys, "correlate", "--op", op_file, "--bra", "000",
                       "--ket", "110", "--string", "c2 c3 cd3 c1", "--verify")
    assert code == 0
    results = json.loads(out)["results"]
    assert complex(*results["value"]) == pytest.approx(1.0)
    assert results["oracle_deviation"] < 1e-12


def test_wick_zero_overlap_guard(op_file, capsys):
    # the normalized term table still divides by that overlap
    code, out, err = run(capsys, "wick", "--op", op_file, "--bra", "000",
                         "--ket", "110", "--string", "c2 c3 cd3 c1")
    assert code == 4 and "overlap" in err
    doc = json.loads(out)
    assert doc["method"] == "guard" and "unnormalized_sum" in doc["results"]


def test_cp_scan_pattern(singular_op_file, capsys):
    code, out, _ = run(capsys, "cp-scan", "--op", singular_op_file)
    assert code == 0
    entries = {tuple(e["sites"]): e for e in json.loads(out)["results"]["entries"]}
    assert not entries[(2,)]["t22_invertible"] and not entries[(2,)]["t11_invertible"]
    assert not entries[(1, 3)]["t22_invertible"]
    for sites in [(1,), (3,), (1, 2), (2, 3)]:
        assert entries[sites]["t22_invertible"] and entries[sites]["t11_invertible"]


def scan_report(path: str, entries) -> dict:
    """The cp-scan report of the operator file at ``path`` with these
    entries, one row dict per entry."""
    _, digest = cli.load_operator(path)
    rows = [{"sites": list(e.sites), "t22_invertible": e.t22_invertible,
             "t11_invertible": e.t11_invertible, "rcond_t22": e.rcond_t22,
             "rcond_t11": e.rcond_t11} for e in entries]
    return cli.base_report("cp-scan", {"op": digest}, results={"entries": rows})


@pytest.mark.parametrize("max_exhaustive", [20, 0])
@pytest.mark.parametrize("L, kind", [(L, kind) for L in range(1, 11)
                                     for kind in ("random", "singular", "large")
                                     if kind != "singular" or L >= 2])
def test_cp_scan_report_matches_reference(tmp_path, capsys, monkeypatch, L, kind, max_exhaustive):
    # the rows built from the scan's columns read back as those of the
    # per-subset reference scan, in its order and with its key order; a cap
    # of 0 forces the greedy search
    path = write_operator(tmp_path / "op.json", scan_generator(L, kind).m)
    t = transfer_of(QuadraticGenerator(cli.load_operator(path)[0].m))
    expected = scan_report(path, reference_scan(t, 1e-12, max_exhaustive))
    monkeypatch.setattr(quadratic, "CP_EXHAUSTIVE_MAX", max_exhaustive)
    code, out, _ = run(capsys, "cp-scan", "--op", path)
    assert code == 0
    doc = json.loads(out)
    assert doc == expected
    rows, expected_rows = doc["results"]["entries"], expected["results"]["entries"]
    assert [list(row) for row in rows] == [list(row) for row in expected_rows]


def test_compose_roundtrip(tmp_path, op_file, capsys):
    out_path = tmp_path / "composed.json"
    code, out, _ = run(capsys, "compose", "--inputs", op_file, op_file,
                       "--output", str(out_path))
    assert code == 0
    # the written generator is right only up to sign: F_1 F_2 = +-e^{M^}
    doc = json.loads(out)
    assert doc["results"]["generator_available"] is True and doc["sign_certain"] is False
    code, out, _ = run(capsys, "overlap", "--op", str(out_path),
                       "--bra", "000", "--ket", "000", "--verify")
    assert code == 0
    assert json.loads(out)["results"]["oracle_deviation"] < 1e-10


def write_linear(path, op):
    return write_operator(path, op.m, op.u, op.v)


def test_compose_inadmissible_log(tmp_path, capsys):
    b = write_linear(tmp_path / "b.json", compose_pair(2, 1)[1])
    out_path = tmp_path / "composed.json"
    code, out, _ = run(capsys, "compose", "--inputs", b, b, "--output", str(out_path))
    assert code == 0
    assert json.loads(out)["results"]["generator_available"] is False
    assert "sign_certain" not in json.loads(out)
    assert json.loads(out_path.read_text())["results"]["generator_available"] is False


def test_compose_files_byte_identical(tmp_path, capsys):
    files = [write_linear(tmp_path / f"{k}.json", op) for k, op in enumerate(compose_pair(6, 1))]
    outputs = []
    caller_state = np.random.get_state()
    try:
        for k in range(4):
            np.random.seed(k)  # whatever the caller's global stream holds
            out_path = tmp_path / f"composed{k}.json"
            assert main(["compose", "--inputs", *files, "--output", str(out_path)]) == 0
            outputs.append(out_path.read_bytes())
    finally:
        np.random.set_state(caller_state)
    capsys.readouterr()
    assert json.loads(outputs[0])["L"] == 6
    assert len(set(outputs)) == 1


QUADRATIC_CHECKS = [
    ("admissibility", 1e-10),
    ("transfer_j_orthogonality", 1e-10),
    ("transfer_det_unimodular", 1e-8),
    ("matrix_elements_vs_oracle", 1e-9),
    ("factorization_reassembly", 1e-9),
    ("correlators_vs_oracle", 1e-8),
]
LINEAR_CHECKS = [
    ("admissibility", 1e-10),
    ("generalized_overlap_vs_oracle", 1e-9),
    ("five_factor_reassembly", 1e-9),
    ("generalized_correlators_vs_oracle", 1e-8),
]


def test_verify_subcommand(op_file, linear_op_file, singular_op_file, capsys):
    # T22 of the worked example at a = pi/2 is singular: no five factors
    cases = [(op_file, QUADRATIC_CHECKS, None), (linear_op_file, LINEAR_CHECKS, None),
             (singular_op_file, QUADRATIC_CHECKS, "skipped: pivot block not invertible")]
    for (op, expected, note), seed in itertools.product(cases, ("0", "5")):
        code, out, err = run(capsys, "verify", "--op", op, "--seed", seed)
        assert code == 0
        results = json.loads(out)["results"]
        checks = results["checks"]
        assert [(c["check"], c["tolerance"]) for c in checks] == expected
        assert all(c["passed"] for c in checks) and results["all_passed"]
        notes = {c["check"]: c["note"] for c in checks if "note" in c}
        if note is None:
            assert notes == {}
        else:
            assert list(notes) == ["factorization_reassembly"]
            assert notes["factorization_reassembly"].startswith(note)
            assert checks[4]["max_deviation"] == 0.0
        # one stderr line per check, in report order, with the note appended
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name, _ in expected]
        for line, c in zip(lines, checks):
            assert line.endswith(f"  ({c['note']})" if "note" in c else f"tol={c['tolerance']:.1e}")


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
    # an L that is not a JSON integer, a ragged M and a non-numeric M entry;
    # the float, string and bool L were read as 2, 2 and 1, and with an M
    # and configurations of that size the overlap exited 0
    zero_m = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    zero_m2 = [[[0, 0]] * 4] * 4
    for name, doc, bits, needle in [
        ("l.json", {"L": "two", "M": zero_m}, "0", "'two'"),
        ("float.json", {"L": 2.7, "M": zero_m2}, "00", "got 2.7"),
        ("str.json", {"L": "2", "M": zero_m2}, "00", "got '2'"),
        ("bool.json", {"L": True, "M": zero_m}, "0", "got True"),
        ("ragged.json", {"L": 1, "M": [[[0, 0], [0, 0]], [[0, 0]]]}, "0", "M must be"),
        ("entry.json", {"L": 1, "M": [[[0, 0], [0, 0]], [[0, 0], ["a", 0]]]}, "0", "M must be"),
    ]:
        (tmp_path / name).write_text(json.dumps(doc))
        code, out, err = run(capsys, "overlap", "--op", str(tmp_path / name), "--bra", bits,
                             "--ket", bits)
        assert code == 3 and out == "" and needle in err, name
    # bra and ket operators on different site counts
    op2 = write_operator(tmp_path / "two.json", np.zeros((4, 4)))
    for cmd in (["overlap"], ["correlate", "--string", "c1"]):
        code, out, err = run(capsys, *cmd, "--op", op, "--op2", op2, "--bra", "0", "--ket", "0")
        assert code == 3 and out == "" and "site counts differ" in err, cmd


@pytest.mark.parametrize("argv, needle", [
    (["overlap", "--op", "{missing}", "--bra", "0", "--ket", "0"], "cannot read {missing}"),
    (["cp-scan", "--op", "{no_m}"], "{no_m}: operator file needs fields 'L' and 'M'"),
    (["cp-scan", "--op", "{listed}"], "{listed}: operator file needs fields 'L' and 'M'"),
    (["overlap", "--op", "{op}", "--bra", "0a1", "--ket", "000"],
     "--bra: configuration string must be nonempty over 0/1, got '0a1'"),
    (["decompose", "--input", "{lin}", "--form", "normal"],
     "normal/antinormal forms require a quadratic operator"),
    (["compose", "--inputs", "{op}", "{lin}", "--output", "{out}"], "site counts differ: 3 vs 2"),
    (["correlate", "--op", "{op}", "--bra", "000", "--ket", "000", "--string", "c9"],
     "operator site out of range 1..3"),
    (["cp-scan", "--op", "{lin}"], "cp-scan operates on quadratic operators"),
])
def test_refusals_exit_with_the_parse_code(tmp_path, op_file, linear_op_file, capsys, argv,
                                           needle):
    files = {"op": op_file, "lin": linear_op_file, "missing": str(tmp_path / "missing.json"),
             "no_m": str(tmp_path / "no_m.json"), "listed": str(tmp_path / "listed.json"),
             "out": str(tmp_path / "out.json")}
    (tmp_path / "no_m.json").write_text(json.dumps({"L": 1}))
    (tmp_path / "listed.json").write_text(json.dumps([1, 2]))
    code, out, err = run(capsys, *[a.format(**files) for a in argv])
    assert code == 3 and out == "" and f"error: {needle.format(**files)}" in err, err
    assert not (tmp_path / "out.json").exists()


def test_decompose_generalized_singular_lists_the_restoring_subsets(singular_op_file, capsys):
    code, out, err = run(capsys, "decompose", "--input", singular_op_file, "--form", "generalized")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "site subsets restoring T22: [[1]" in err, err


@pytest.mark.parametrize("name, text, needle", [
    # an odd shape: a 3 x 3 M under L = 1
    ("odd", json.dumps({"L": 1, "M": [[[0, 0]] * 3] * 3}), "shape (2, 2)"),
    ("nan", '{"L": 1, "M": [[[NaN, 0], [0, 0]], [[0, 0], [0, 0]]]}', "non-finite"),
    ("inf", '{"L": 1, "M": [[[1e400, 0], [0, 0]], [[0, 0], [-1e400, 0]]]}', "non-finite"),
    # J M symmetric, not antisymmetric
    ("inadmissible", json.dumps({"L": 1, "M": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
     "antisymmetric"),
])
def test_malformed_operator_file_exits_with_the_parse_code(tmp_path, capsys, name, text, needle):
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    with pytest.raises(CliError) as err:
        cli.load_operator(str(path))
    assert err.value.code == 3 and needle in str(err.value)
    code, out, err_text = run(capsys, "cp-scan", "--op", str(path))
    assert code == 3 and out == "" and needle in err_text


@pytest.mark.parametrize("argv, checks", [
    (["cp-scan", "--op", "{op}"], 1),
    (["decompose", "--input", "{op}"], 1),
    (["overlap", "--op", "{op}", "--bra", "110", "--ket", "000"], 2),   # and the identity bra
])
def test_operator_file_is_validated_once(op_file, capsys, monkeypatch, argv, checks):
    # the operator's generator checks M, and the command computes with it
    op, _ = cli.load_operator(op_file)
    assert isinstance(op.generator, QuadraticGenerator) and op.generator.m is op.m
    calls = []
    defect = quadratic.admissibility_defect
    monkeypatch.setattr(quadratic, "admissibility_defect", lambda m: calls.append(m) or defect(m))
    code, _, _ = run(capsys, *(a.format(op=op_file) for a in argv))
    assert code == 0 and len(calls) == checks


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_exits_with_the_parse_code(tmp_path, op_file, capsys, target):
    # an output path in a missing directory, or a directory, is refused like
    # an unreadable input: exit 3 naming the path, no traceback
    out = str(tmp_path / target)
    for argv in (["overlap", "--op", op_file, "--bra", "000", "--ket", "000"],
                 ["cp-scan", "--op", op_file],
                 ["compose", "--inputs", op_file, op_file]):
        code, stdout, err = run(capsys, *argv, "--output", out)
        assert code == 3 and stdout == "" and f"cannot write {out}" in err, argv
    b = write_linear(tmp_path / "b.json", compose_pair(2, 1)[1])
    code, stdout, err = run(capsys, "compose", "--inputs", b, b, "--output", out)
    assert code == 3 and stdout == "" and f"cannot write {out}" in err


@pytest.mark.parametrize("argv", [
    ["overlap", "--op", "x.json", "--ket", "0"],
    ["overlap", "--op", "x.json", "--bra", "0", "--ket", "0", "--no-such-flag"],
    ["decompose", "--input", "x.json", "--form", "sideways"],
    # only verify takes a seed: it picks the spot-check inputs
    ["correlate", "--op", "x.json", "--bra", "0", "--ket", "0", "--string", "c1", "--seed", "1"],
    ["overlap", "--op", "x.json", "--bra", "0", "--ket", "0", "--cp-magnitude", "--seed", "1"],
    ["verify", "--op", "x.json", "--seed", "-1"],
    ["no-such-command"],
    [],
    ["wick", "--op", "x.json", "--bra", "0", "--ket", "0", "--string", "c1", "--seed", "1"],
    ["verify", "--op", "x.json", "--seed", "one"],
    # no option forces the epsilon route, and wick is the one way to the term table
    ["overlap", "--op", "x.json", "--bra", "0", "--ket", "0", "--epsilon"],
    ["decompose", "--input", "x.json", "--epsilon"],
    ["correlate", "--op", "x.json", "--bra", "0", "--ket", "0", "--string", "c1", "--expand"],
])
def test_usage_errors_exit_with_the_parse_code(argv, capsys):
    # exit 2 is the singular-block code; argparse's own usage exit must not reach it
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "usage:" in err
    # the usage shown is the subcommand's, or the top level's without one
    command = argv[0] if argv and argv[0] != "no-such-command" else "[-h]"
    assert err.startswith(f"usage: fermigauss {command} "), err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_site_cap_must_be_positive(cap, capsys):
    code, out, err = run(capsys, "verify", "--op", "x.json", "--max-sites", cap)
    assert code == 3 and out == "" and "usage:" in err
    assert f"--max-sites: invalid site cap '{cap}'" in err


def test_verify_above_the_dense_cap_exits_before_the_oracle(tmp_path, capsys, monkeypatch):
    from fermigauss import fock

    def no_modes(L):
        raise AssertionError(f"oracle modes built at L={L}")

    monkeypatch.setattr(fock, "mode_operators", no_modes)
    L = fock.MAX_SITES_DENSE + 1
    op = write_operator(tmp_path / "big.json", np.zeros((2 * L, 2 * L)))
    vac = "0" * L
    for argv in [
        ("overlap", "--op", op, "--bra", vac, "--ket", vac, "--verify"),
        ("correlate", "--op", op, "--bra", vac, "--ket", vac, "--string", "c1 cd1", "--verify"),
        ("verify", "--op", op, "--max-sites", str(L)),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and f"capped at L={L - 1}" in err, argv


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_parser_is_built_once_and_reused(op_file, capsys):
    # back-to-back calls with different subcommands share one parser and
    # keep no state from each other
    from fermigauss.cli import build_parser
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "cp-scan", "--op", op_file)
    assert code == 0 and json.loads(out)["command"] == "cp-scan"
    code, out, _ = run(capsys, "overlap", "--op", op_file, "--bra", "000", "--ket", "000")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "overlap" and "cp_sites" not in doc["route"][-1]
    assert abs(complex(*doc["results"]["value"]) - np.cos(0.7)) < 1e-12
    assert run(capsys, "overlap", "--op", op_file)[0] == 3
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out
    code, out, _ = run(capsys, "decompose", "--input", op_file)
    assert code == 0 and json.loads(out)["command"] == "decompose"


def report_corpus(tmp_path, capsys, monkeypatch) -> list:
    """Every document the CLI serializes while running each subcommand at
    L = 2-4, plus the L=10 cp-scan report."""
    docs = []
    dump = cli.dump_report

    def recording(obj):
        docs.append(obj)
        return dump(obj)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "dump_report", recording)
        run_corpus(tmp_path)
    capsys.readouterr()
    return docs


def run_corpus(tmp_path) -> None:
    for L in (2, 3, 4):
        rng = np.random.default_rng(L)
        quad = write_operator(tmp_path / f"q{L}.json", random_generator(L, rng, 0.5).m)
        lin = write_operator(tmp_path / f"l{L}.json", random_generator(L, rng, 0.5).m,
                             u=0.3 * rng.standard_normal(L), v=0.3j * rng.standard_normal(L))
        sing = write_operator(tmp_path / f"s{L}.json",
                              worked_example_m(np.pi / 2) if L == 3 else np.zeros((2 * L, 2 * L)))
        bra, ket, odd = "1" * L, "1" + "0" * (L - 1), "0" * L
        string = "c1 cd2 c2" if L > 1 else "c1"
        runs = [
            ("decompose", "--input", quad, "--form", "normal"),
            ("decompose", "--input", quad, "--form", "antinormal"),
            ("decompose", "--input", lin, "--form", "generalized"),
            ("decompose", "--input", sing, "--form", "normal", "--cp", "1"),
            ("compose", "--inputs", quad, quad, "--output", str(tmp_path / "c.json")),
            ("compose", "--inputs", lin, quad, "--output", str(tmp_path / "c.json")),
            ("overlap", "--op", quad, "--op2", quad, "--bra", bra, "--ket", odd, "--verify"),
            ("overlap", "--op", lin, "--bra", bra, "--ket", ket, "--verify"),
            ("overlap", "--op", sing, "--bra", ket, "--ket", ket),
            ("overlap", "--op", quad, "--bra", ket, "--ket", ket, "--cp-magnitude"),
            ("correlate", "--op", quad, "--bra", odd, "--ket", odd, "--string", "c1 cd1",
             "--verify"),
            ("wick", "--op", lin, "--op2", lin, "--bra", bra, "--ket", odd,
             "--string", string, "--verify"),
            ("wick", "--op", lin, "--bra", bra, "--ket", ket, "--string", string),
            ("cp-scan", "--op", quad),
            ("verify", "--op", quad),
            ("verify", "--op", lin),
        ]
        for argv in runs:
            code = main(list(argv))
            assert code in (0, 2, 4), argv
    # particle-hole swaps before the factorization, in both orderings
    for name, m, site_lists in [
            ("s3", worked_example_m(np.pi / 2), ("1", "1,3")),
            ("r4", random_generator(4, 7, 0.8).m, ("2,3", "1,2,3,4")),
            ("p6", rotation_plus_sector(6, np.random.default_rng(6)).m, ("1", "2,5"))]:
        path = write_operator(tmp_path / f"cp_{name}.json", m)
        for sites, form in itertools.product(site_lists, ("normal", "antinormal")):
            assert main(["decompose", "--input", path, "--form", form, "--cp", sites]) in (0, 2)
    big = write_operator(tmp_path / "q10.json", random_generator(10, 3, 0.5).m)
    assert main(["cp-scan", "--op", big]) == 0
    # three 48 x 48 matrices of [re, im] pairs
    q48 = write_operator(tmp_path / "q48.json", random_generator(48, 5, 0.5).m)
    assert main(["decompose", "--input", q48, "--form", "normal"]) == 0
    # a singular pair: a pi/2 pair rotation (+) a sector under the sector
    # alone, rescued by the factor chain
    rng = np.random.default_rng(10)
    ket_m = rotation_plus_sector(10, rng).m
    ket_file = write_operator(tmp_path / "r10.json", ket_m)
    bra_file = write_operator(tmp_path / "n10.json",
                              ket_m - pair_rotation_generator(10, np.pi / 2).m)
    assert main(["overlap", "--op", ket_file, "--op2", bra_file, "--bra", "1100110000",
                 "--ket", "0000110000"]) == 0


PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)
FINITE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1]),
                   st.floats(allow_nan=False, allow_infinity=False))
ESCAPED = st.one_of(st.text(max_size=6),
                    st.sampled_from(['quote "', "back\\slash", "new\nline", "tab\t",
                                     "\u00e9\u2020", "%s", "100%", "{}"]))


def test_rescue_chain_reports_carry_no_diagnostics(tmp_path, capsys, monkeypatch):
    # an overlap, correlate or wick report's provenance is its route alone
    docs = [d for d in report_corpus(tmp_path, capsys, monkeypatch)
            if d.get("command") in ("overlap", "correlate", "wick")]
    assert len(docs) >= 15
    for doc in docs:
        assert "diagnostics" not in doc and "route" in doc, doc


class TestReportSerializer:
    def test_reports_read_back_as_written(self, tmp_path, capsys, monkeypatch):
        docs = report_corpus(tmp_path, capsys, monkeypatch)
        commands = {d.get("command") for d in docs}
        assert commands >= {"decompose", "compose", "overlap", "correlate", "cp-scan", "verify"}
        entries, factors, chain = docs[-3:]
        assert len(entries["results"]["entries"]) == 2 ** 10
        assert len(factors["results"]["x"]) == 48
        assert chain["method"] == "factor-chain"
        assert [e["route"] for e in chain["route"]] == ["pfaffian", "factor-chain"]
        for doc in docs:
            text = cli.dump_report(doc)
            assert cli.dump_report(json.loads(text)) == text

    @pytest.mark.parametrize("value", [1.0, -0.0, 1e16, 5e-324, 0.1])
    def test_floats_read_back_with_their_bits(self, value):
        # bare, in a list and nested in a dict: an integral float reads back
        # as a float, and -0.0 keeps its sign
        for doc, read in [(value, lambda d: [d]), ([value, 2.5], lambda d: d[:1]),
                          ({"v": [[value]]}, lambda d: d["v"][0])]:
            x, = read(json.loads(cli.dump_report(doc)))
            assert type(x) is float and x == value
            assert math.copysign(1.0, x) == math.copysign(1.0, value)

    @pytest.mark.parametrize("obj, expected", [
        ({"f": np.float64(0.1), "g": np.float32(1.5), "i": np.int64(-3), "u": np.uint8(7),
          "b": np.bool_(True), "n": None, "x": -0.0, "big": 1e300, "tiny": 5e-324},
         {"f": 0.1, "g": 1.5, "i": -3, "u": 7, "b": True, "n": None, "x": -0.0, "big": 1e300,
          "tiny": 5e-324}),
        (["quote \" backslash \\ newline \n tab \t", "unicode \u00e9 \u2020", ""], None),
        ({'a"b': 1, "back\\slash": [{"%s": 1, "\u00e9": 0.5}], "\u2020": {"k": "\u00e9"}}, None),
        ((1, 2.5, "x", None, True, np.int64(3)), [1, 2.5, "x", None, True, 3]),
        ({}, None), ([], None), ((), []),
        ({"a": {}, "b": [], "c": [[], {}, [1, [2, (3, 4)]]]},
         {"a": {}, "b": [], "c": [[], {}, [1, [2, [3, 4]]]]}),
        # lists on either side of the old 72-character split, numpy scalars
        # in a list, long integers, tables and [re, im] matrices
        ([7] * 71, None), ([7] * 72, None), (["a" * 69], None), (["a" * 70], None),
        ([np.float64(1.25)] * 3, [1.25] * 3), ([1, np.bool_(True)], [1, True]),
        ([{"s": [7] * 72}, {"s": [7]}], None),
        ([{"s": [int("1" * 71), 7]}, {"s": [int("1" * 70), 7]}], None),
        ([[0.5, 1.5], [2.5, -0.0]], None),
    ])
    def test_edge_cases_read_back(self, obj, expected):
        # numpy scalars are written as their Python values; quotes, escapes
        # and non-ASCII text, in keys and values, read back as themselves;
        # only a non-empty dict takes more than one line
        expected = obj if expected is None else expected
        text = cli.dump_report(obj)
        assert json.loads(text) == expected and cli.dump_report(expected) == text
        assert ("\n" in text) == (isinstance(obj, dict) and bool(obj))

    @pytest.mark.parametrize("obj", [
        1 + 2j, {"v": 1 + 2j}, [np.complex128(1j)], {"a": [1.0, object()]}, object(),
    ])
    def test_values_without_a_json_type_are_refused(self, obj):
        with pytest.raises(TypeError):
            cli.dump_report(obj)

    @PROPERTY
    @given(st.dictionaries(ESCAPED, st.one_of(FINITE, ESCAPED), max_size=4), st.integers(1, 3))
    def test_keys_read_back(self, row, n):
        # a key with a quote, a backslash, a % or a non-ASCII character reads
        # back as itself, in a dict and in a list of like dicts
        for doc in (row, [row] * n):
            assert json.loads(cli.dump_report(doc)) == doc

    @pytest.mark.parametrize("value", [float("nan"), np.float64(np.inf), -np.inf,
                                       np.float32(np.nan)])
    def test_non_finite_float_is_a_numerical_failure(self, value):
        with pytest.raises(CliError) as exc:
            cli.dump_report({"results": {"value": [1.0, value]}})
        assert exc.value.code == cli.EXIT_NUMERICAL

    @pytest.mark.parametrize("obj, error", [
        ({"a": [1.0, np.float64(np.inf)]}, CliError), ([[0.5, 1.5], [2.5, float("inf")]], CliError),
        ([{"a": 0.5}, {"a": float("nan")}], CliError),
        ([[1.0, 2.0], float("nan"), object()], CliError), ([object(), float("nan")], TypeError),
        ({"x": {"v": 1 + 2j}, "y": -np.inf}, TypeError), ({"y": -np.inf, "x": 1 + 2j}, CliError),
    ])
    def test_first_refusal_in_document_order(self, obj, error):
        # a non-finite float in a table or a matrix is refused like a bare one,
        # and of two refusals the first in document order is raised
        with pytest.raises(error) as exc:
            cli.dump_report(obj)
        assert error is TypeError or exc.value.code == cli.EXIT_NUMERICAL


def test_verify_builds_one_zero_generator(tmp_path, capsys, monkeypatch, count_calls):
    # the element loop used to pass a fresh zero generator for every element;
    # reusing one object changes no byte of the report
    op = write_operator(tmp_path / "op4.json", random_generator(4, 12, 0.5).m)
    calls = count_calls("mat_exp")
    assert main(["verify", "--op", op, "--seed", "3"]) == 0
    after, n_after = capsys.readouterr().out, len(calls)
    calls.clear()
    monkeypatch.setattr(cli, "state_overlap", lambda g1, g2, bra, ket, **kw: state_overlap(
        g1, QuadraticGenerator.zero(g2.L), bra, ket, **kw))
    assert main(["verify", "--op", op, "--seed", "3"]) == 0
    before, n_before = capsys.readouterr().out, len(calls)
    assert after == before
    assert json.loads(after)["results"]["all_passed"]
    # before: per parity-allowed element, one exp(0^dag) and one continuity
    # step exp(h 0^dag), each on a fresh zero generator; after: one of each.
    # The correlator context embeds its zero generator in both runs, so it
    # shares neither with the elements: the saving is two short of 4^4
    assert n_before - n_after == 4 ** 4 - 2


@pytest.mark.parametrize("linear", [False, True])
def test_verify_admissibility_equals_the_j_product(tmp_path, capsys, linear):
    # the check permutes the rows of M instead of multiplying by J; the
    # reported deviation is that of J M, bit for bit
    # (rounding-level noise, so that the deviation is not exactly zero)
    rng = np.random.default_rng(81)
    m = random_generator(4, rng, 0.7).m + 1e-13 * rng.standard_normal((8, 8))
    uv = 0.3 * (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) if linear else ()
    op = write_operator(tmp_path / "op4.json", m, *uv)
    code, out, _ = run(capsys, "verify", "--op", op)
    assert code == 0
    check, = (c for c in json.loads(out)["results"]["checks"] if c["check"] == "admissibility")
    eye, zero = np.eye(4), np.zeros((4, 4))
    assert check["max_deviation"] == skew_defect(np.block([[zero, eye], [eye, zero]]) @ m) > 0.0


def test_verify_spot_checks_at_the_largest_element(tmp_path, capsys, monkeypatch):
    # the correlator checks of a quadratic operator run at the pair of its
    # largest matrix element, in the dense basis order of fock (site 1 the
    # most significant bit), not at the bit-reversed pair
    from fermigauss import fock

    g = random_generator(4, 2, 0.5)
    op = write_operator(tmp_path / "op4.json", g.m)
    built = []
    context = correlators.CorrelatorContext

    def recording(op1, op2, bra, ket):
        built.append((bra, ket))
        return context(op1, op2, bra, ket)

    monkeypatch.setattr(correlators, "CorrelatorContext", recording)
    code, _, _ = run(capsys, "verify", "--op", op)
    assert code == 0
    (bra, ket), = built
    f = fock.dense_gaussian(g.m)
    assert abs(fock.dense_element(f, bra, ket)) == np.max(np.abs(f))


def test_import_leaves_thread_variables_unset():
    # importing the CLI edits no environment variable: a THREADS setting is
    # not copied into the BLAS thread variables
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in names}
    out = subprocess.run([sys.executable, "-c",
                          "import os, sys, fermigauss.cli; "
                          "print([os.environ.get(name) for name in sys.argv[1:]])", *names],
                         env={**env, "PYTHONPATH": path, "THREADS": "3"},
                         check=True, capture_output=True, text=True).stdout
    assert out == "[None, None, None]\n"


def test_correlator_reports_independent_of_hash_seed(tmp_path):
    # the expansion iterates dicts of configurations: two interpreters with
    # different string hashing must still write the same bytes
    rng = np.random.default_rng(31)
    op = write_operator(tmp_path / "lin4.json", random_generator(4, rng, 0.5).m,
                        u=0.4 * rng.standard_normal(4) + 0.2j, v=0.3j * rng.standard_normal(4))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"wick{hash_seed}.json"
        argv = ["wick", "--op", op, "--bra", "1010", "--ket", "0111",
                "--string", "cd1 c2 c4", "--output", str(out)]
        subprocess.run([sys.executable, "-c",
                        "import sys; from fermigauss.cli import main; sys.exit(main())", *argv],
                       env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                       check=True, capture_output=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["method"] == "pfaffian" and len(doc["results"]["terms"]) == 3
