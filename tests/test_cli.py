import json

import numpy as np
import pytest

from fermigauss import cli
from fermigauss.cli import CliError, main
from fermigauss.overlaps import state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator

from conftest import compose_pair, worked_example_m


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


def write_linear(path, op):
    return write_operator(path, op.m, op.u, op.v)


def test_compose_inadmissible_log(tmp_path, capsys):
    b = write_linear(tmp_path / "b.json", compose_pair(2, 1)[1])
    out_path = tmp_path / "composed.json"
    code, out, _ = run(capsys, "compose", "--inputs", b, b, "--output", str(out_path))
    assert code == 0
    assert json.loads(out)["results"]["generator_available"] is False
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


@pytest.mark.parametrize("argv", [
    ["overlap", "--op", "x.json", "--ket", "0"],
    ["overlap", "--op", "x.json", "--bra", "0", "--ket", "0", "--no-such-flag"],
    ["decompose", "--input", "x.json", "--form", "sideways"],
    ["correlate", "--op", "x.json", "--bra", "0", "--ket", "0", "--string", "c1", "--seed", "one"],
    ["no-such-command"],
    [],
])
def test_usage_errors_exit_with_the_parse_code(argv, capsys):
    # exit 2 is the singular-block code; argparse's own usage exit must not reach it
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and "usage:" in err


def test_route_flags_are_exclusive(singular_op_file, capsys):
    code, out, err = run(capsys, "overlap", "--op", singular_op_file, "--bra", "100",
                         "--ket", "101", "--epsilon", "--cp-magnitude")
    assert code == 3 and out == ""
    assert "not allowed with" in err


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
    assert doc["command"] == "overlap" and "cp_sites" not in doc["diagnostics"]
    assert abs(complex(*doc["results"]["value"]) - np.cos(0.7)) < 1e-12
    assert run(capsys, "overlap", "--op", op_file)[0] == 3
    for flag in ("--help", "--version"):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out
    code, out, _ = run(capsys, "decompose", "--input", op_file)
    assert code == 0 and json.loads(out)["command"] == "decompose"


def reference_dump_report(obj, indent: int = 0) -> str:
    """The report serializer as written before its scalar fast paths; the
    current one must reproduce it byte for byte."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {reference_dump_report(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [reference_dump_report(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple)) for v in seq) and sum(map(len, rendered)) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(f"{pad}  {r}" for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise CliError(cli.EXIT_NUMERICAL, f"non-finite value {x} in report")
        return format(x, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)} in report")


def serialized(dump, obj):
    """``dump(obj)``, or the type, message and exit code of what it raised."""
    try:
        return dump(obj)
    except (CliError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "code", None)


def report_corpus(tmp_path, capsys, monkeypatch) -> list:
    """Every document the CLI serializes while running each subcommand at
    L = 2-4, plus the L=10 cp-scan report."""
    docs = []
    dump = cli.dump_report

    def recording(obj, indent=0):
        if indent == 0:
            docs.append(obj)
        return dump(obj, indent)

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
            ("decompose", "--input", sing, "--form", "normal", "--epsilon"),
            ("compose", "--inputs", quad, quad, "--output", str(tmp_path / "c.json")),
            ("compose", "--inputs", lin, quad, "--output", str(tmp_path / "c.json")),
            ("overlap", "--op", quad, "--op2", quad, "--bra", bra, "--ket", odd, "--verify"),
            ("overlap", "--op", lin, "--bra", bra, "--ket", ket, "--verify"),
            ("overlap", "--op", sing, "--bra", ket, "--ket", ket, "--epsilon"),
            ("overlap", "--op", quad, "--bra", ket, "--ket", ket, "--cp-magnitude"),
            ("correlate", "--op", quad, "--bra", odd, "--ket", odd, "--string", "c1 cd1",
             "--verify"),
            ("correlate", "--op", lin, "--op2", lin, "--bra", bra, "--ket", odd,
             "--string", string, "--expand", "--verify"),
            ("wick", "--op", lin, "--bra", bra, "--ket", ket, "--string", string),
            ("cp-scan", "--op", quad),
            ("verify", "--op", quad),
            ("verify", "--op", lin),
        ]
        for argv in runs:
            code = main(list(argv))
            assert code in (0, 2, 4), argv
    big = write_operator(tmp_path / "q10.json", random_generator(10, 3, 0.5).m)
    assert main(["cp-scan", "--op", big]) == 0


class TestReportSerializer:
    def test_reports_byte_identical_to_reference(self, tmp_path, capsys, monkeypatch):
        docs = report_corpus(tmp_path, capsys, monkeypatch)
        commands = {d.get("command") for d in docs}
        assert commands >= {"decompose", "compose", "overlap", "correlate", "cp-scan", "verify"}
        assert len(docs[-1]["results"]["entries"]) == 2 ** 10
        for doc in docs:
            assert cli.dump_report(doc) == reference_dump_report(doc)

    @pytest.mark.parametrize("obj", [
        {"f": np.float64(0.1), "i": np.int64(-3), "t": True, "n": False, "z": None,
         "g": np.float32(1.5), "k": 7, "x": -0.0, "big": 1e300, "tiny": 5e-324},
        ["quote \" backslash \\ newline \n tab \t", "unicode \u00e9 \u2020", ""],
        (1, 2.5, "x", None, True, np.int64(3)),
        {}, [], (), {"a": {}, "b": [], "c": [[], {}, [1, [2, (3, 4)]]]},
        [7] * 71, [7] * 72, ["a" * 69], ["a" * 70], [np.float64(1.25)] * 3,
        [1, np.bool_(True)], {"v": 1 + 2j}, [float("nan")], {"a": [1.0, np.float64(np.inf)]},
        [-np.inf], [[1.0, 2.0], float("nan"), object()],
    ])
    def test_edge_cases_match_reference(self, obj):
        assert serialized(cli.dump_report, obj) == serialized(reference_dump_report, obj)

    def test_scalar_list_width(self):
        assert "\n" not in cli.dump_report([7] * 71)
        assert "\n" in cli.dump_report([7] * 72)

    @pytest.mark.parametrize("value", [float("nan"), np.float64(np.inf), -np.inf])
    def test_non_finite_float_is_a_numerical_failure(self, value):
        with pytest.raises(CliError) as exc:
            cli.dump_report({"results": {"value": [1.0, value]}})
        assert exc.value.code == cli.EXIT_NUMERICAL


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
    # step exp(h 0^dag), each on a fresh zero generator; after: one of each
    assert n_before - n_after == 4 ** 4
