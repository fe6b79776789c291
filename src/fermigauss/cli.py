"""Command-line front end.

Subcommands: decompose | compose | overlap | correlate | wick | cp-scan |
verify.  Operators are read from JSON files with fields ``L``, ``M``
(2L x 2L nested array of [re, im] pairs, rows/columns in the 1-based
``(c^dag, c) x (c, c^dag)`` ordering) and optional length-L arrays ``u``,
``v``.  Every command emits a deterministic JSON run report (stdout or
``--output``) whose floats carry 17 significant digits.

Exit codes: 0 ok, 2 singular block, 3 parse/validation error,
4 zero-overlap normalization guard, 5 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

# honor a THREADS override before any BLAS backend initializes
if "THREADS" in os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["THREADS"])

import numpy as np

from . import __version__
from .configs import FockConfig
from .linalg import LinalgError, SingularBlockError, skew_defect
from .linearpart import (
    LinearGaussianOp,
    compose_linear,
    generalized_bbd,
)
from .overlaps import EPS_SCHEDULE, EPS_SEED, generalized_overlap, state_overlap
from .quadratic import (
    QuadraticGenerator,
    bbd_antinormal,
    bbd_normal,
    cp_scan,
    cp_suggestions,
    cp_transform,
    random_generator,
    transfer_of,
)

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_PARSE = 3
EXIT_GUARD = 4
EXIT_NUMERICAL = 5


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# deterministic JSON with full-precision floats
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CliError(EXIT_NUMERICAL, f"non-finite value {x} in report")
    return format(x, ".17g")


def _dump_scalar(obj) -> str:
    """One JSON scalar.  A report is mostly built-in floats, bools and ints,
    so their exact types are tested first; everything else, numpy scalars
    included, takes the isinstance chain."""
    cls = type(obj)
    if cls is float:
        return _fmt_float(obj)
    if cls is bool:
        return "true" if obj else "false"
    if cls is int:
        return str(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)} in report")


def dump_report(obj, indent: int = 0) -> str:
    """Serialize a report to JSON text with 17-significant-digit floats.

    A list of scalars whose items render to fewer than 72 characters in
    total stays on one line."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {dump_report(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(isinstance(v, (dict, list, tuple)) for v in obj):
            rendered = [dump_report(v, indent + 1) for v in obj]
        else:
            rendered = [_dump_scalar(v) for v in obj]
            if sum(map(len, rendered)) < 72:
                return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(f"{pad}  {r}" for r in rendered) + "\n" + pad + "]"
    return _dump_scalar(obj)


def as_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_pairs(m: np.ndarray) -> list:
    return [[as_pair(v) for v in row] for row in np.asarray(m)]


def vector_pairs(v: np.ndarray) -> list:
    return [as_pair(x) for x in np.asarray(v)]


# ---------------------------------------------------------------------------
# operator files
# ---------------------------------------------------------------------------

def _pairs_to_complex(data, shape, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != shape + (2,):
        raise CliError(EXIT_PARSE, f"{what} must have shape {shape} of [re, im] pairs, "
                                   f"got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def load_operator(path: str) -> tuple[LinearGaussianOp, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}")
    if not isinstance(doc, dict) or "L" not in doc or "M" not in doc:
        raise CliError(EXIT_PARSE, f"{path}: operator file needs fields 'L' and 'M'")
    L = int(doc["L"])
    if L < 1:
        raise CliError(EXIT_PARSE, f"{path}: L must be positive")
    m = _pairs_to_complex(doc["M"], (2 * L, 2 * L), "M")
    u = _pairs_to_complex(doc["u"], (L,), "u") if doc.get("u") is not None else None
    v = _pairs_to_complex(doc["v"], (L,), "v") if doc.get("v") is not None else None
    try:
        op = LinearGaussianOp(m, u, v)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}")
    digest = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return op, digest


def write_operator_file(path: str, op: LinearGaussianOp) -> None:
    doc = {
        "L": op.L,
        "M": matrix_pairs(op.m),
        "u": vector_pairs(op.u),
        "v": vector_pairs(op.v),
    }
    with open(path, "w") as fh:
        fh.write(dump_report(doc) + "\n")


def parse_bits(s: str, L: int, what: str) -> FockConfig:
    try:
        cfg = FockConfig.from_string(s)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{what}: {exc}")
    if cfg.L != L:
        raise CliError(EXIT_PARSE, f"{what} has {cfg.L} bits, operator has L={L}")
    return cfg


def parse_sites(s: str, L: int):
    try:
        sites = tuple(sorted(int(tok) for tok in s.replace(",", " ").split()))
    except ValueError:
        raise CliError(EXIT_PARSE, f"bad site list {s!r}")
    if any(not 1 <= k <= L for k in sites) or len(set(sites)) != len(sites):
        raise CliError(EXIT_PARSE, f"site list {s!r} invalid for L={L}")
    return sites


def emit(report: dict, output: str | None) -> None:
    text = dump_report(report) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def base_report(command: str, inputs: dict, **extra) -> dict:
    report = {
        "tool": "fermigauss",
        "version": __version__,
        "command": command,
        "inputs": inputs,
    }
    report.update(extra)
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    op, digest = load_operator(args.input)
    inputs = {"input": digest}
    diagnostics = {}
    if args.form in ("normal", "antinormal"):
        if not op.is_quadratic:
            raise CliError(EXIT_PARSE,
                           "normal/antinormal forms require a quadratic operator; "
                           "use --form generalized for linear parts")
        gen = QuadraticGenerator(op.m)
        sites = parse_sites(args.cp, op.L) if args.cp else ()
        if sites:
            gen = cp_transform(gen, sites).generator
            diagnostics["cp_sites"] = list(sites)
        if args.epsilon:
            g = random_generator(op.L, EPS_SEED)
            eps = EPS_SCHEDULE[0]
            gen = QuadraticGenerator(gen.m + eps * g.m)
            diagnostics["epsilon"] = eps
            diagnostics["epsilon_seed"] = EPS_SEED
        t = transfer_of(gen)
        try:
            fac = bbd_normal(t) if args.form == "normal" else bbd_antinormal(t)
        except SingularBlockError as exc:
            suggestions = [list(s) for s in cp_suggestions(t)]
            raise CliError(EXIT_SINGULAR,
                           f"{exc}; site subsets restoring T22: {suggestions}")
        results = {
            "form": args.form,
            "x": matrix_pairs(fac.x),
            "exp_y": matrix_pairs(fac.exp_y),
            "y": None if fac.y is None else matrix_pairs(fac.y),
            "z": matrix_pairs(fac.z),
            "prefactor": as_pair(fac.prefactor),
        }
        diagnostics["rcond"] = fac.rcond
        sign_certain = fac.sign_certain
    else:
        try:
            fac = generalized_bbd(op)
        except SingularBlockError as exc:
            t = transfer_of(QuadraticGenerator(op.m)) if op.is_quadratic else None
            hint = f"; site subsets restoring T22: {[list(s) for s in cp_suggestions(t)]}" if t else ""
            raise CliError(EXIT_SINGULAR, f"{exc}{hint}")
        results = {
            "form": "generalized",
            "q": vector_pairs(fac.q),
            "x": matrix_pairs(fac.x),
            "exp_y": matrix_pairs(fac.exp_y),
            "y": None if fac.y is None else matrix_pairs(fac.y),
            "z": matrix_pairs(fac.z),
            "p": vector_pairs(fac.p),
            "prefactor": as_pair(fac.prefactor),
        }
        diagnostics["rcond"] = fac.rcond
        sign_certain = fac.sign_certain
    report = base_report("decompose", inputs, method="pfaffian",
                         sign_certain=sign_certain,
                         diagnostics=diagnostics, results=results)
    emit(report, args.output)
    return EXIT_OK


def cmd_compose(args) -> int:
    op1, d1 = load_operator(args.inputs[0])
    op2, d2 = load_operator(args.inputs[1])
    if op1.L != op2.L:
        raise CliError(EXIT_PARSE, f"site counts differ: {op1.L} vs {op2.L}")
    res = compose_linear(op1, op2)
    if res.generator_available:
        write_operator_file(args.output, res.op)
        report = base_report("compose", {"a": d1, "b": d2},
                             results={"generator_available": True,
                                      "output": args.output})
    else:
        doc = base_report("compose", {"a": d1, "b": d2},
                          results={
                              "generator_available": False,
                              "extended_transfer": matrix_pairs(res.transfer.t),
                          })
        with open(args.output, "w") as fh:
            fh.write(dump_report(doc) + "\n")
        report = doc
    sys.stdout.write(dump_report(report) + "\n")
    return EXIT_OK


def _oracle_overlap(op1, op2, bra, ket) -> complex:
    from . import fock

    modes = fock.mode_operators(op1.L)
    f1 = fock.dense_gaussian(op1.m, op1.u, op1.v, modes=modes)
    f2 = fock.dense_gaussian(op2.m, op2.u, op2.v, modes=modes)
    dim = f1.shape[0]
    return fock.dense_expectation(f2, np.eye(dim), f1, bra, ket, modes=modes)


def cmd_overlap(args) -> int:
    op1, d1 = load_operator(args.op)
    inputs = {"op": d1}
    if args.op2:
        op2, d2 = load_operator(args.op2)
        inputs["op2"] = d2
    else:
        op2 = LinearGaussianOp.zero(op1.L)
    bra = parse_bits(args.bra, op1.L, "--bra")
    ket = parse_bits(args.ket, op1.L, "--ket")
    method = "cp-magnitude" if args.cp_magnitude else "epsilon" if args.epsilon else "auto"
    try:
        if op1.is_quadratic and op2.is_quadratic:
            res = state_overlap(QuadraticGenerator(op1.m), QuadraticGenerator(op2.m), bra, ket,
                                method=method, eps_seed=args.seed)
        else:
            res = generalized_overlap(op1, op2, bra, ket, method=method, eps_seed=args.seed)
    except SingularBlockError as exc:
        raise CliError(EXIT_SINGULAR, str(exc))
    except LinalgError as exc:
        raise CliError(EXIT_NUMERICAL, str(exc))
    diagnostics = dict(res.diagnostics)
    diagnostics["seed"] = args.seed
    results = {"value": as_pair(res.value)}
    if args.verify:
        ref = _oracle_overlap(op1, op2, bra, ket)
        dev = abs(res.value - ref) if res.sign_certain else abs(abs(res.value) - abs(ref))
        results["oracle"] = as_pair(ref)
        results["oracle_deviation"] = float(dev)
    report = base_report("overlap", inputs,
                         args={"bra": str(bra), "ket": str(ket)},
                         method=res.method, sign_certain=res.sign_certain,
                         route=res.route, diagnostics=diagnostics, results=results)
    emit(report, args.output)
    return EXIT_OK


def cmd_correlate(args) -> int:
    from .correlators import (
        CorrelatorContext,
        ZeroOverlapError,
        generalized_expectation,
        generalized_wick_expansion,
        n_point,
        parse_mode_string,
    )

    op1, d1 = load_operator(args.op)
    inputs = {"op": d1}
    if args.op2:
        op2, d2 = load_operator(args.op2)
        inputs["op2"] = d2
    else:
        op2 = LinearGaussianOp.zero(op1.L)
    bra = parse_bits(args.bra, op1.L, "--bra")
    ket = parse_bits(args.ket, op1.L, "--ket")
    try:
        ops = parse_mode_string(args.string)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    if any(op.site > op1.L for op in ops):
        raise CliError(EXIT_PARSE, f"operator site out of range 1..{op1.L}")
    ctx = CorrelatorContext(op1, op2, bra, ket, eps_seed=args.seed)
    results: dict = {"string": [str(o) for o in ops]}
    try:
        if ctx.quadratic:
            value = n_point(ctx, ops)
            method = "wick-pfaffian"
        else:
            value = generalized_expectation(ctx, ops)
            method = "ancilla-extended"
        results["value"] = as_pair(value)
        if args.expand:
            expansion, terms = generalized_wick_expansion(ctx, ops)
            results["expansion_value"] = as_pair(expansion)
            results["terms"] = [
                {
                    "sign": t.sign,
                    "pairs": [list(p) for p in t.pairs],
                    "singleton": t.singleton,
                    "factors": [as_pair(f) for f in t.factors],
                    "value": as_pair(t.value),
                }
                for t in terms
            ]
    except ZeroOverlapError as exc:
        report = base_report("correlate", inputs,
                             args={"bra": str(bra), "ket": str(ket), "string": args.string},
                             method="guard", sign_certain=True,
                             diagnostics={"overlap": as_pair(exc.overlap),
                                          "n_factors": exc.n_factors},
                             results={"unnormalized_sum": as_pair(exc.unnormalized)})
        emit(report, args.output)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    except SingularBlockError as exc:
        raise CliError(EXIT_SINGULAR, str(exc))
    if args.verify:
        from . import fock

        modes = fock.mode_operators(op1.L)
        f1 = fock.dense_gaussian(op1.m, op1.u, op1.v, modes=modes)
        f2 = fock.dense_gaussian(op2.m, op2.u, op2.v, modes=modes)
        a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops], modes)
        ref = fock.dense_expectation(f2, a, f1, bra, ket, modes=modes)
        results["oracle"] = as_pair(ref)
        results["oracle_deviation"] = float(abs(value - ref))
    report = base_report("correlate", inputs,
                         args={"bra": str(bra), "ket": str(ket), "string": args.string},
                         method=method, sign_certain=True,
                         diagnostics={"seed": args.seed}, results=results)
    emit(report, args.output)
    return EXIT_OK


def cmd_cp_scan(args) -> int:
    op, digest = load_operator(args.op)
    if not op.is_quadratic:
        raise CliError(EXIT_PARSE, "cp-scan operates on quadratic operators")
    t = transfer_of(QuadraticGenerator(op.m))
    entries = [
        {
            "sites": list(e.sites),
            "t22_invertible": e.t22_invertible,
            "t11_invertible": e.t11_invertible,
            "rcond_t22": e.rcond_t22,
            "rcond_t11": e.rcond_t11,
        }
        for e in cp_scan(t)
    ]
    report = base_report("cp-scan", {"op": digest}, results={"entries": entries})
    emit(report, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import fock
    from .correlators import (
        CorrelatorContext,
        ModeOp,
        ZeroOverlapError,
        generalized_expectation,
        n_point,
    )
    from .linearpart import factors_as_ops

    op, digest = load_operator(args.op)
    L = op.L
    if L > args.max_sites:
        raise CliError(EXIT_PARSE,
                       f"verify capped at --max-sites {args.max_sites}, operator has L={L}")
    rng = np.random.default_rng(args.seed)
    modes = fock.mode_operators(L)
    dim = 2 ** L
    f_dense = fock.dense_gaussian(op.m, op.u, op.v, modes=modes)
    checks = []

    def record(name: str, dev: float, tol: float, note: str | None = None):
        entry = {"check": name, "max_deviation": float(dev), "tolerance": tol,
                 "passed": bool(dev <= tol)}
        if note:
            entry["note"] = note
        checks.append(entry)

    record("admissibility", skew_defect(
        np.block([[np.zeros((L, L)), np.eye(L)], [np.eye(L), np.zeros((L, L))]]) @ op.m), 1e-10)

    if op.is_quadratic:
        gen = QuadraticGenerator(op.m)
        zero = QuadraticGenerator.zero(L)   # one object, so exp(0) is computed once
        t = transfer_of(gen)
        record("transfer_j_orthogonality", t.j_defect(), 1e-10)
        record("transfer_det_unimodular", abs(abs(np.linalg.det(t.t)) - 1.0), 1e-8)

        configs = [FockConfig(tuple((n >> k) & 1 for k in range(L))) for n in range(dim)]
        dev = 0.0
        for bra in configs:
            for ket in configs:
                val = state_overlap(gen, zero, bra, ket).value
                ref = fock.dense_element(f_dense, bra, ket, modes=modes)
                dev = max(dev, abs(val - ref))
        record("matrix_elements_vs_oracle", dev, 1e-9)

        try:
            ops_f = factors_as_ops(
                generalized_bbd(LinearGaussianOp.quadratic(gen)))
            prod = np.eye(dim, dtype=complex)
            for f in ops_f:
                prod = prod @ fock.dense_gaussian(f.m, f.u, f.v, modes=modes)
            record("factorization_reassembly", float(np.max(np.abs(prod - f_dense))), 1e-9)
        except (SingularBlockError, LinalgError) as exc:
            record("factorization_reassembly", 0.0, 1e-9, note=f"skipped: {exc}")

        # anchor the correlator spot checks on the largest matrix element so
        # the Wick normalization never divides by an accidental zero
        flat = int(np.argmax(np.abs(f_dense)))
        bj, ki = divmod(flat, dim)
        ctx = CorrelatorContext(gen, zero, configs[bj], configs[ki])
        dev = 0.0
        note = None
        for n in (1, 2, 3, 4):
            ops_s = tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(2)))
                          for _ in range(n))
            try:
                val = n_point(ctx, ops_s)
            except ZeroOverlapError as exc:
                note = f"length-{n} string skipped: {exc}"
                continue
            a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops_s], modes)
            ref = fock.dense_expectation(np.eye(dim, dtype=complex),
                                         a, f_dense, ctx.bra, ctx.ket, modes=modes)
            dev = max(dev, abs(val - ref))
        record("correlators_vs_oracle", dev, 1e-8, note=note)
    else:
        zero = LinearGaussianOp.zero(L)
        configs = [FockConfig(tuple((n >> k) & 1 for k in range(L))) for n in range(dim)]
        dev = 0.0
        for bra in configs:
            for ket in configs:
                val = generalized_overlap(op, zero, bra, ket).value
                ref = fock.dense_element(f_dense, bra, ket, modes=modes)
                dev = max(dev, abs(val - ref))
        record("generalized_overlap_vs_oracle", dev, 1e-9)
        try:
            prod = np.eye(dim, dtype=complex)
            for f in factors_as_ops(generalized_bbd(op)):
                prod = prod @ fock.dense_gaussian(f.m, f.u, f.v, modes=modes)
            record("five_factor_reassembly", float(np.max(np.abs(prod - f_dense))), 1e-9)
        except (SingularBlockError, LinalgError) as exc:
            record("five_factor_reassembly", 0.0, 1e-9, note=f"skipped: {exc}")
        ctx = CorrelatorContext(op, zero,
                                configs[int(rng.integers(dim))],
                                configs[int(rng.integers(dim))])
        dev = 0.0
        for n in (1, 2, 3):
            ops_s = tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(2)))
                          for _ in range(n))
            val = generalized_expectation(ctx, ops_s)
            a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops_s], modes)
            ref = fock.dense_expectation(np.eye(dim, dtype=complex),
                                         a, f_dense, ctx.bra, ctx.ket, modes=modes)
            dev = max(dev, abs(val - ref))
        record("generalized_correlators_vs_oracle", dev, 1e-8)

    all_passed = all(c["passed"] for c in checks)
    report = base_report("verify", {"op": digest},
                         args={"seed": args.seed, "max_sites": args.max_sites},
                         results={"checks": checks, "all_passed": all_passed})
    emit(report, args.output)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        note = f"  ({c['note']})" if "note" in c else ""
        sys.stderr.write(
            f"{status} {c['check']}: max_dev={c['max_deviation']:.3e} tol={c['tolerance']:.1e}{note}\n"
        )
    return EXIT_OK if all_passed else 1


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the parse/validation code, not argparse's 2,
    which here means a singular block."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(EXIT_PARSE, f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="fermigauss",
        description="Factorizations, overlaps and correlators of fermionic "
                    "Gaussian operators with linear terms.",
    )
    parser.add_argument("--version", action="version", version=f"fermigauss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor an operator into normal-ordered exponentials")
    p.add_argument("--input", required=True)
    p.add_argument("--form", choices=["normal", "antinormal", "generalized"], default="normal")
    p.add_argument("--cp", help="comma-separated sites for a particle-hole permutation first")
    p.add_argument("--epsilon", action="store_true",
                   help="decompose a nearby regularized operator when a block is singular")
    p.add_argument("--output")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("compose", help="multiply two operators")
    p.add_argument("--inputs", nargs=2, required=True, metavar=("A", "B"))
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("overlap", help="configuration-basis matrix element <bra|F2^dag F1|ket>")
    p.add_argument("--op", required=True, help="ket-side operator file")
    p.add_argument("--op2", help="bra-side operator file (default: identity)")
    p.add_argument("--bra", required=True)
    p.add_argument("--ket", required=True)
    route = p.add_mutually_exclusive_group()
    route.add_argument("--epsilon", action="store_true", help="force the perturbative route")
    route.add_argument("--cp-magnitude", action="store_true", help="force the magnitude route")
    p.add_argument("--verify", action="store_true", help="also run the dense oracle")
    p.add_argument("--seed", type=int, default=EPS_SEED)
    p.add_argument("--output")
    p.set_defaults(func=cmd_overlap)

    for name, expand in (("correlate", False), ("wick", True)):
        p = sub.add_parser(name, help="expectation value of an operator string"
                           + (" with the Wick term table" if expand else ""))
        p.add_argument("--op", required=True)
        p.add_argument("--op2")
        p.add_argument("--bra", required=True)
        p.add_argument("--ket", required=True)
        p.add_argument("--string", required=True,
                       help="whitespace-separated tokens c<k> / cd<k>, 1-based sites")
        if expand:
            p.set_defaults(expand=True)
        else:
            p.add_argument("--expand", action="store_true",
                           help="include the pairing/singleton term table")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--seed", type=int, default=EPS_SEED)
        p.add_argument("--output")
        p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("cp-scan", help="invertibility report over particle-hole permutations")
    p.add_argument("--op", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_cp_scan)

    p = sub.add_parser("verify", help="oracle-equivalence suite on one operator")
    p.add_argument("--op", required=True)
    p.add_argument("--max-sites", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except SingularBlockError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SINGULAR
    except LinalgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
