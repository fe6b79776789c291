"""Command-line front end.

Subcommands: decompose | compose | overlap | correlate | wick | cp-scan |
verify.  Operators are read from JSON files with fields ``L``, ``M``
(2L x 2L nested array of [re, im] pairs, rows/columns in the 1-based
``(c^dag, c) x (c, c^dag)`` ordering) and optional length-L arrays ``u``,
``v``.  Every command emits a deterministic JSON run report (stdout or
``--output``) whose floats are written in their shortest round-trip form.

Exit codes: 0 ok, 2 singular block, 3 parse/validation error,
4 zero-overlap normalization guard (only the normalized Wick term table of
``wick``), 5 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .configs import FockConfig
from .linalg import LinalgError, SingularBlockError
from .linearpart import (
    LinearGaussianOp,
    compose_linear,
    generalized_bbd,
)
from .overlaps import generalized_overlap, state_overlap
from .quadratic import (
    QuadraticGenerator,
    admissibility_defect,
    bbd_antinormal,
    bbd_normal,
    cp_scan,
    cp_suggestions,
    cp_transform,
    transfer_of,
    validate_sites,
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
# deterministic JSON reports
# ---------------------------------------------------------------------------

def _python_scalar(obj):
    """A numpy scalar as its Python value, for the encoder; anything else
    that JSON has no type for, a complex number included, is refused."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)} in report")


_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False, default=_python_scalar)


def dump_report(obj) -> str:
    """A report as JSON text: every dict reached through dicts one key per
    line, indented two spaces per level, and every other value on one
    compact line, floats in their shortest round-trip form.  A non-finite
    float is a numerical failure."""

    def layout(obj, pad: str) -> str:
        if isinstance(obj, dict) and obj:
            items = [f"{pad}  {_ENCODER.encode(str(k))}: {layout(v, pad + '  ')}"
                     for k, v in obj.items()]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        return _ENCODER.encode(obj)

    try:
        return layout(obj, "")
    except ValueError as exc:
        raise CliError(EXIT_NUMERICAL, f"non-finite value in report: {exc}") from None


def as_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def pairs(a: np.ndarray | None) -> list | None:
    """A complex vector or matrix as nested [re, im] pairs; None stays None."""
    if a is None:
        return None
    a = np.asarray(a)
    return [as_pair(x) for x in a] if a.ndim == 1 else [[as_pair(v) for v in row] for row in a]


# ---------------------------------------------------------------------------
# operator files
# ---------------------------------------------------------------------------

def _pairs_to_complex(data, shape, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(EXIT_PARSE, f"{what} must be nested arrays of [re, im] numbers: {exc}")
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
    L = doc["L"]
    if type(L) is not int or L < 1:
        raise CliError(EXIT_PARSE, f"{path}: L must be a positive integer, got {L!r}")
    try:
        m = _pairs_to_complex(doc["M"], (2 * L, 2 * L), "M")
        u = _pairs_to_complex(doc["u"], (L,), "u") if doc.get("u") is not None else None
        v = _pairs_to_complex(doc["v"], (L,), "v") if doc.get("v") is not None else None
        op = LinearGaussianOp(m, u, v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}")
    digest = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return op, digest


def write_operator_file(path: str, op: LinearGaussianOp) -> None:
    doc = {
        "L": op.L,
        "M": pairs(op.m),
        "u": pairs(op.u),
        "v": pairs(op.v),
    }
    write_text(path, dump_report(doc) + "\n")


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}")


def parse_bits(s: str, L: int, what: str) -> FockConfig:
    try:
        cfg = FockConfig.from_string(s)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"{what}: {exc}")
    if cfg.L != L:
        raise CliError(EXIT_PARSE, f"{what} has {cfg.L} bits, operator has L={L}")
    return cfg


def parse_sites(s: str, L: int) -> tuple[int, ...]:
    try:
        return validate_sites([int(tok) for tok in s.replace(",", " ").split()], L)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad site list {s!r}: {exc}")


def emit(report: dict, output: str | None) -> None:
    text = dump_report(report) + "\n"
    if output:
        write_text(output, text)
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
    diagnostics = {}
    t = None
    if args.form == "generalized":
        if args.cp:
            raise CliError(EXIT_PARSE, "--cp applies to the normal and antinormal forms only")
        factorize = functools.partial(generalized_bbd, op)
        fields = ("q", "x", "exp_y", "y", "z", "p")
    else:
        if not op.is_quadratic:
            raise CliError(EXIT_PARSE,
                           "normal/antinormal forms require a quadratic operator; "
                           "use --form generalized for linear parts")
        gen = op.generator
        sites = parse_sites(args.cp, op.L) if args.cp else ()
        if sites:
            gen = cp_transform(gen, sites)
            diagnostics["cp_sites"] = list(sites)
        t = transfer_of(gen)
        factorize = functools.partial(bbd_normal if args.form == "normal" else bbd_antinormal, t)
        fields = ("x", "exp_y", "y", "z")
    try:
        fac = factorize()
    except SingularBlockError as exc:
        if t is None and op.is_quadratic:
            t = transfer_of(op.generator)
        hint = "" if t is None else f"; site subsets restoring T22: {[list(s) for s in cp_suggestions(t)]}"
        raise CliError(EXIT_SINGULAR, f"{exc}{hint}")
    diagnostics["rcond"] = fac.rcond
    results = {"form": args.form, **{k: pairs(getattr(fac, k)) for k in fields},
               "prefactor": as_pair(fac.prefactor)}
    report = base_report("decompose", {"input": digest}, method="pfaffian",
                         sign_certain=fac.sign_certain,
                         diagnostics=diagnostics, results=results)
    emit(report, args.output)
    return EXIT_OK


def cmd_compose(args) -> int:
    op1, d1 = load_operator(args.inputs[0])
    op2, d2 = load_operator(args.inputs[1])
    if op1.L != op2.L:
        raise CliError(EXIT_PARSE, f"site counts differ: {op1.L} vs {op2.L}")
    res = compose_linear(op1, op2)
    if res.op is not None:
        # exp(M') equals the product transfer, but the operators only up to
        # sign: F_1 F_2 = +-e^{M^'}
        write_operator_file(args.output, res.op)
        report = base_report("compose", {"a": d1, "b": d2}, sign_certain=False,
                             results={"generator_available": True,
                                      "output": args.output})
    else:
        report = base_report("compose", {"a": d1, "b": d2},
                             results={"generator_available": False,
                                      "extended_transfer": pairs(res.transfer.t)})
        emit(report, args.output)
    emit(report, None)
    return EXIT_OK


def _load_sandwich(args):
    """The ket operator, the bra operator (the identity without ``--op2``),
    their input digests and the two configurations of <bra| F2^dag ... F1 |ket>."""
    op1, d1 = load_operator(args.op)
    inputs = {"op": d1}
    if args.op2:
        op2, d2 = load_operator(args.op2)
        inputs["op2"] = d2
        if op2.L != op1.L:
            raise CliError(EXIT_PARSE, f"site counts differ: {op1.L} vs {op2.L}")
    else:
        op2 = LinearGaussianOp.zero(op1.L)
    return op1, op2, inputs, parse_bits(args.bra, op1.L, "--bra"), parse_bits(args.ket, op1.L, "--ket")


def _oracle_value(op1, op2, ops, bra, ket) -> complex:
    """<bra| F2^dag A F1 |ket> by the dense oracle, A the product of the mode
    operators ``ops`` (the identity for none), for ``--verify``."""
    from . import fock

    if op1.L > fock.MAX_SITES_DENSE:
        raise CliError(EXIT_PARSE, f"--verify capped at L={fock.MAX_SITES_DENSE}, got L={op1.L}")
    f1 = fock.dense_gaussian(op1.m, op1.u, op1.v)
    f2 = fock.dense_gaussian(op2.m, op2.u, op2.v)
    a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops], op1.L)
    return fock.dense_expectation(f2, a, f1, bra, ket)


def cmd_overlap(args) -> int:
    op1, op2, inputs, bra, ket = _load_sandwich(args)
    method = "cp-magnitude" if args.cp_magnitude else "auto"
    if op1.is_quadratic and op2.is_quadratic:
        res = state_overlap(op1.generator, op2.generator, bra, ket, method=method)
    else:
        res = generalized_overlap(op1, op2, bra, ket, method=method)
    results = {"value": as_pair(res.value)}
    if args.verify:
        ref = _oracle_value(op1, op2, (), bra, ket)
        dev = abs(res.value - ref) if res.sign_certain else abs(abs(res.value) - abs(ref))
        results["oracle"] = as_pair(ref)
        results["oracle_deviation"] = float(dev)
    report = base_report("overlap", inputs,
                         args={"bra": str(bra), "ket": str(ket)},
                         method=res.method, sign_certain=res.sign_certain,
                         route=res.route, results=results)
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

    op1, op2, inputs, bra, ket = _load_sandwich(args)
    try:
        ops = parse_mode_string(args.string)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))
    if any(op.site > op1.L for op in ops):
        raise CliError(EXIT_PARSE, f"operator site out of range 1..{op1.L}")
    ctx = CorrelatorContext(op1, op2, bra, ket)
    results: dict = {"string": [str(o) for o in ops]}
    try:
        value = (n_point if ctx.quadratic else generalized_expectation)(ctx, ops)
        # the value's provenance, before the expansion's values replace it
        method, sign_certain, route = ctx.method, ctx.sign_certain, ctx.route
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
        report = base_report(args.command, inputs,
                             args={"bra": str(bra), "ket": str(ket), "string": args.string},
                             method="guard", sign_certain=True,
                             diagnostics={"overlap": as_pair(exc.overlap),
                                          "n_factors": exc.n_factors},
                             results={"unnormalized_sum": as_pair(exc.unnormalized)})
        emit(report, args.output)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_GUARD
    if args.verify:
        ref = _oracle_value(op1, op2, ops, bra, ket)
        results["oracle"] = as_pair(ref)
        results["oracle_deviation"] = float(abs(value - ref))
    report = base_report(args.command, inputs,
                         args={"bra": str(bra), "ket": str(ket), "string": args.string},
                         method=method, sign_certain=sign_certain,
                         route=route, results=results)
    emit(report, args.output)
    return EXIT_OK


def cmd_cp_scan(args) -> int:
    op, digest = load_operator(args.op)
    if not op.is_quadratic:
        raise CliError(EXIT_PARSE, "cp-scan operates on quadratic operators")
    scan = cp_scan(transfer_of(op.generator))
    keys = ("sites", "t22_invertible", "t11_invertible", "rcond_t22", "rcond_t11")
    entries = [dict(zip(keys, row)) for row in zip(*(getattr(scan, k) for k in keys))]
    report = base_report("cp-scan", {"op": digest}, results={"entries": entries})
    emit(report, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import fock
    from .correlators import (
        CorrelatorContext,
        ModeOp,
        generalized_expectation,
        n_point,
    )
    from .linearpart import factors_as_ops

    op, digest = load_operator(args.op)
    L = op.L
    cap = min(args.max_sites, fock.MAX_SITES_DENSE)
    if L > cap:
        raise CliError(EXIT_PARSE, f"verify capped at L={cap} (--max-sites, dense oracle), got L={L}")
    rng = np.random.default_rng(args.seed)
    dim = 2 ** L
    f_dense = fock.dense_gaussian(op.m, op.u, op.v)
    checks = []

    def record(name: str, dev: float, tol: float, note: str | None = None):
        entry = {"check": name, "max_deviation": float(dev), "tolerance": tol,
                 "passed": bool(dev <= tol)}
        if note:
            entry["note"] = note
        checks.append(entry)

    record("admissibility", admissibility_defect(op.m), 1e-10)

    # the operator kind picks the functions, the check names and the anchor
    if op.is_quadratic:
        ket_op, zero = op.generator, QuadraticGenerator.zero(L)  # exp(0) computed once
        t = transfer_of(ket_op)
        record("transfer_j_orthogonality", t.j_defect(), 1e-10)
        record("transfer_det_unimodular", abs(abs(np.linalg.det(t.t)) - 1.0), 1e-8)
        element, correlator, lengths = state_overlap, n_point, (1, 2, 3, 4)
        grid_name, reassembly_name, correlator_name = (
            "matrix_elements_vs_oracle", "factorization_reassembly", "correlators_vs_oracle")
        # anchor the correlator spot checks on the largest matrix element
        bj, ki = divmod(int(np.argmax(np.abs(f_dense))), dim)
    else:
        ket_op, zero = op, LinearGaussianOp.zero(L)
        element, correlator, lengths = generalized_overlap, generalized_expectation, (1, 2, 3)
        grid_name, reassembly_name, correlator_name = (
            "generalized_overlap_vs_oracle", "five_factor_reassembly",
            "generalized_correlators_vs_oracle")
        bj, ki = int(rng.integers(dim)), int(rng.integers(dim))

    # in the dense basis order: site 1 is the most significant bit
    configs = [FockConfig.from_string(format(n, f"0{L}b")) for n in range(dim)]
    dev = 0.0
    for bra in configs:
        for ket in configs:
            val = element(ket_op, zero, bra, ket).value
            ref = fock.dense_element(f_dense, bra, ket)
            dev = max(dev, abs(val - ref))
    record(grid_name, dev, 1e-9)

    try:
        prod = np.eye(dim, dtype=complex)
        for f in factors_as_ops(generalized_bbd(op)):
            prod = prod @ fock.dense_gaussian(f.m, f.u, f.v)
        record(reassembly_name, float(np.max(np.abs(prod - f_dense))), 1e-9)
    except (SingularBlockError, LinalgError) as exc:
        record(reassembly_name, 0.0, 1e-9, note=f"skipped: {exc}")

    ctx = CorrelatorContext(ket_op, zero, configs[bj], configs[ki])
    dev = 0.0
    for n in lengths:
        ops_s = tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(2)))
                      for _ in range(n))
        val = correlator(ctx, ops_s)
        a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops_s], L)
        ref = fock.dense_expectation(np.eye(dim, dtype=complex), a, f_dense, ctx.bra, ctx.ket)
        dev = max(dev, abs(val - ref))
    record(correlator_name, dev, 1e-8)

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

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:    # refused here, a subcommand's unknown argument shows its usage
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return args, extra

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

    def seed(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"invalid seed {text!r}: must be non-negative")
        return int(text)

    def site_cap(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"invalid site cap {text!r}: must be positive")
        return int(text)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor an operator into normal-ordered exponentials")
    p.add_argument("--input", required=True)
    p.add_argument("--form", choices=["normal", "antinormal", "generalized"], default="normal")
    p.add_argument("--cp", help="comma-separated sites for a particle-hole permutation first")
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
    p.add_argument("--cp-magnitude", action="store_true", help="force the magnitude route")
    p.add_argument("--verify", action="store_true", help="also run the dense oracle")
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
        p.add_argument("--verify", action="store_true")
        p.add_argument("--output")
        p.set_defaults(func=cmd_correlate, expand=expand)

    p = sub.add_parser("cp-scan", help="invertibility report over particle-hole permutations")
    p.add_argument("--op", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_cp_scan)

    p = sub.add_parser("verify", help="oracle-equivalence suite on one operator")
    p.add_argument("--op", required=True)
    p.add_argument("--max-sites", type=site_cap, default=6)
    p.add_argument("--seed", type=seed, default=0)
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
