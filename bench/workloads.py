"""The benchmark's workloads: inputs, operations and their correctness checks.

One op is one public call.  Each workload hands the runner its ops in
*rounds*: a round holds a fixed number of ops of every category, shuffled by
the workload seed, so every run sees the same mix.  Within a category the
inputs are drawn in seed-shuffled passes over the category's pool, so a run
covers the pool evenly instead of by chance.

``overlap-sweep``
    A generator-coordinate basis at L in {16, 32, 48}, scale in {0.5, 3}.
    Per category a round holds 5 ``state_overlap`` ops, 2
    ``generalized_overlap`` ops on operators with linear parts and 1
    factorization (``bbd_normal`` or ``generalized_bbd``).  Every op builds
    a fresh kernel, so ``expm`` and sign-continuity tracking dominate; each
    generator recurs across many ordered pairs.  All sizes are above the
    dense-oracle limit: the ops are drawn from the stored reference pool.
``correlator-table``
    State pairs whose engine serves many values.  A round is one quadratic
    L=16 context (the full one-body table ``n_point(ctx, (cd_a, c_b))``, then
    64 two-body strings ``cd_a cd_b c_c c_d``, from the stored pool) and one
    L=8 context with
    linear parts (24 ``generalized_expectation`` strings of length 1-3,
    checked against the dense oracle).  Time goes to the expansion loops,
    the element cache and small Pfaffians, not to kernel construction.
``singular-rescue``
    Composed operators at L in {8, 10} whose T22 is singular or badly
    scaled: a pi/2 pair rotation (+) a random sector through the
    epsilon route, the same operators through the cp-magnitude route and its
    exhaustive ``cp_scan``, and large-norm random generators (scale 10-30)
    that the library rejects today.  Half of the ops go through
    ``cli.main`` in process on operator files written at set-up.  Only this
    workload drives the rescue chain, the CLI report path and failures.

Inputs are made in two steps: ``*_inputs`` draws raw numpy arrays from the seed and
reads the reference file (input generation, excluded from set-up time), and
the workload constructor turns them into library objects and files (set-up).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from fermigauss import cli, correlators, linearpart, overlaps, quadratic
from fermigauss.configs import FockConfig

#: tolerances pinned by ``fermigauss verify``, relative to max(1, |ref|)
ELEMENT_TOL = 1e-9
CORRELATOR_TOL = 1e-8

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


# ---------------------------------------------------------------------------
# ops, outcomes, verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Raised:
    """Outcome of an op whose call raised."""

    exc: BaseException


@dataclass(frozen=True)
class Verdict:
    ok: bool
    signed: bool = False
    reason: str | None = None   # failure label: error type, "exit N" or "wrong value"
    wrong: bool = False         # a value was returned and it disagrees with the reference


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]


class Cycle:
    """Draws from a pool in seed-shuffled passes: every entry once per pass."""

    def __init__(self, items, rng):
        self.items = list(items)
        self.rng = rng
        self.order: list[int] = []

    def take(self, n: int) -> list:
        out = []
        for _ in range(n):
            if not self.order:
                self.order = [int(k) for k in self.rng.permutation(len(self.items))]
            out.append(self.items[self.order.pop()])
        return out


def shuffled(ops: list, rng) -> list:
    return [ops[int(k)] for k in rng.permutation(len(ops))]


def close(value, ref, tol: float) -> bool:
    value, ref = complex(value), complex(ref)
    return bool(np.isfinite(value)) and abs(value - ref) <= tol * max(1.0, abs(ref))


def _wrong() -> Verdict:
    return Verdict(False, reason="wrong value", wrong=True)


def _guard(name: str, ref: complex, overlap_ref: complex | None = None) -> Verdict:
    """A documented guard outcome is correct only when the oracle agrees it applies:
    a singular-block refusal only when the reference value does not fit in a
    double, a zero-overlap refusal only when the reference overlap vanishes."""
    if name in ("SingularBlockError", "exit 2"):
        applies = not np.isfinite(complex(ref))
    elif name in ("ZeroOverlapError", "exit 4"):
        applies = overlap_ref is not None and abs(complex(overlap_ref)) <= 1e-12
    else:
        applies = False
    return Verdict(applies, reason=None if applies else name)


def check_overlap(outcome, ref: complex) -> Verdict:
    """Check an ``OverlapResult``; magnitude-only results compare magnitudes."""
    if isinstance(outcome, Raised):
        return _guard(type(outcome.exc).__name__, ref)
    return _check_value(outcome.value, outcome.method, outcome.sign_certain, ref)


def _check_value(value, method: str, sign_certain: bool, ref: complex) -> Verdict:
    if method == "cp-magnitude" or not sign_certain:
        return Verdict(True) if close(abs(complex(value)), abs(complex(ref)), ELEMENT_TOL) \
            else _wrong()
    return Verdict(True, signed=True) if close(value, ref, ELEMENT_TOL) else _wrong()


def run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_cli_overlap(outcome, ref: complex) -> Verdict:
    if isinstance(outcome, Raised):
        return Verdict(False, reason=type(outcome.exc).__name__)
    code, text = outcome
    if code != 0:
        return _guard(f"exit {code}", ref)
    doc = json.loads(text)
    value = complex(*doc["results"]["value"])
    return _check_value(value, doc["method"], doc["sign_certain"], ref)


# ---------------------------------------------------------------------------
# raw input generation (numpy only)
# ---------------------------------------------------------------------------

def random_m(rng, L: int, scale: float) -> np.ndarray:
    """Random admissible generator [[A, B], [C, -A^T]], B and C antisymmetric."""
    s = scale / max(1.0, np.sqrt(L))

    def cplx(shape):
        return s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a, b, c = cplx((L, L)), cplx((L, L)), cplx((L, L))
    return np.block([[a, 0.5 * (b - b.T)], [0.5 * (c - c.T), -a.T]])


def random_linear(rng, L: int, scale: float):
    s = 0.3 * scale / max(1.0, np.sqrt(L))
    u = s * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    v = s * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    return u, v


def basis_member(seed: int, L: int, scale: float):
    """(M, u, v) of one stored basis operator, reproducible from its seed."""
    rng = np.random.default_rng(seed)
    m = random_m(rng, L, scale)
    u, v = random_linear(rng, L, scale)
    return m, u, v


def fingerprint(m: np.ndarray) -> float:
    return float(np.sum(np.abs(m)))


def random_bits(rng, L: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=L))


def matched_bits(rng, L: int) -> tuple[str, str]:
    """(bra, ket) with equal particle-number parity."""
    bra, ket = random_bits(rng, L), random_bits(rng, L)
    if (bra.count("1") + ket.count("1")) % 2:
        k = int(rng.integers(L))
        ket = ket[:k] + ("0" if ket[k] == "1" else "1") + ket[k + 1:]
    return bra, ket


def pair_rotation_m(L: int) -> np.ndarray:
    """exp(a (c1^dag c2^dag + c2 c1)) at a = pi/2: T22 vanishes on sites 1, 2."""
    m = np.zeros((2 * L, 2 * L), dtype=complex)
    b = np.zeros((L, L))
    b[0, 1], b[1, 0] = np.pi / 2, -np.pi / 2
    m[:L, L:] = b
    m[L:, :L] = b
    return m


def sector_m(rng, L: int, scale: float) -> np.ndarray:
    """Random generator acting on sites 3..L only."""
    m = random_m(rng, L, scale)
    mask = np.zeros((2 * L, 2 * L))
    for r in (0, L):
        for c in (0, L):
            mask[r + 2: r + L, c + 2: c + L] = 1.0
    return m * mask


def _reference_pool(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def _verified_basis(seeds, fingerprints, L: int, scale: float):
    out = []
    for seed, fp in zip(seeds, fingerprints):
        m, u, v = basis_member(seed, L, scale)
        if abs(fingerprint(m) - fp) > 1e-12 * fp:
            raise RuntimeError("stored basis does not reproduce: numpy's random "
                               "stream changed; regenerate reference.json")
        out.append((m, u, v))
    return out


def _configs(*bits):
    return [FockConfig.from_string(b) for b in bits]


# ---------------------------------------------------------------------------
# overlap-sweep
# ---------------------------------------------------------------------------

SWEEP_DRAWS = {"state": 5, "generalized": 2, "factor": 1}


def overlap_sweep_inputs() -> dict:
    pool = _reference_pool("overlap_sweep")
    cats = []
    for cat in pool["categories"]:
        basis = _verified_basis(cat["seeds"], cat["fingerprints"], cat["L"], cat["scale"])
        cats.append({"L": cat["L"], "scale": cat["scale"], "basis": basis, "ops": cat["ops"]})
    return {"categories": cats}


class OverlapSweep:
    name = "overlap-sweep"

    def __init__(self, raw: dict):
        self.categories = []
        for cat in raw["categories"]:
            gens = [quadratic.QuadraticGenerator(m) for m, _, _ in cat["basis"]]
            lins = [linearpart.LinearGaussianOp(m, u, v) for m, u, v in cat["basis"]]
            by_op: dict = {}
            for entry in cat["ops"]:
                group = "factor" if entry["op"] in ("bbd", "generalized_bbd") else entry["op"]
                by_op.setdefault(group, []).append(entry)
            self.categories.append((cat["L"], cat["scale"], gens, lins, by_op))

    def rounds(self, rng):
        cycles = {(c, group): Cycle(cat[4][group], rng)
                  for c, cat in enumerate(self.categories) for group in SWEEP_DRAWS}
        while True:
            ops = []
            for c, (L, scale, gens, lins, _) in enumerate(self.categories):
                tag = f"L{L}/s{scale:g}"
                for group, count in SWEEP_DRAWS.items():
                    ops.extend(self._op(entry, tag, gens, lins)
                               for entry in cycles[c, group].take(count))
            yield shuffled(ops, rng)

    @staticmethod
    def _op(entry: dict, tag: str, gens, lins) -> Op:
        kind = entry["op"]
        if kind in ("state", "generalized"):
            bra, ket = _configs(entry["bra"], entry["ket"])
            ref = complex(*entry["value"])
            i, j = entry["i"], entry["j"]
            if kind == "state":
                def run():
                    return overlaps.state_overlap(gens[i], gens[j], bra, ket)
            else:
                def run():
                    return overlaps.generalized_overlap(lins[i], lins[j], bra, ket)
            return Op(f"{kind}/{tag}", run, lambda out: check_overlap(out, ref))
        i = entry["i"]
        if kind == "bbd":
            def run():
                return quadratic.bbd_normal(quadratic.transfer_of(gens[i]))
        else:
            def run():
                return linearpart.generalized_bbd(lins[i])
        return Op(f"{kind}/{tag}", run, lambda out: check_factorization(out, entry))


def factor_summary(fac) -> tuple[complex, list[float]]:
    """Prefactor and the Frobenius norms of the factor data (stored as reference)."""
    parts = [fac.x, fac.exp_y, fac.z]
    if hasattr(fac, "q"):
        parts = [fac.q, *parts, fac.p]
    return complex(fac.prefactor), [float(np.linalg.norm(p)) for p in parts]


def check_factorization(outcome, entry: dict) -> Verdict:
    ref = complex(*entry["prefactor"])
    if isinstance(outcome, Raised):
        return _guard(type(outcome.exc).__name__, ref)
    prefactor, norms = factor_summary(outcome)
    if outcome.sign_certain != entry["sign_certain"]:
        return _wrong()
    ok = close(prefactor, ref, ELEMENT_TOL) and all(
        close(a, b, ELEMENT_TOL) for a, b in zip(norms, entry["norms"]))
    return Verdict(True, signed=bool(outcome.sign_certain)) if ok else _wrong()


# ---------------------------------------------------------------------------
# correlator-table
# ---------------------------------------------------------------------------

LINEAR_L = 8
LINEAR_CONTEXTS = 8
LINEAR_STRINGS_PER_LENGTH = 8


def correlator_table_inputs(seed: int) -> dict:
    pool = _reference_pool("correlator_table")
    quad = []
    for ctx in pool["contexts"]:
        (m1, _, _), (m2, _, _) = _verified_basis(
            [ctx["seed1"], ctx["seed2"]], ctx["fingerprints"], ctx["L"], ctx["scale"])
        quad.append({**ctx, "m1": m1, "m2": m2})
    rng = np.random.default_rng([seed, 2])
    linear = []
    L = LINEAR_L
    for _ in range(LINEAR_CONTEXTS):
        ops = []
        for _side in range(2):
            m = random_m(rng, L, 0.5)
            u, v = random_linear(rng, L, 1.0)
            ops.append((m, u, v))
        strings = [
            tuple((int(rng.integers(1, L + 1)), bool(rng.integers(2))) for _ in range(n))
            for n in (1, 2, 3) for _ in range(LINEAR_STRINGS_PER_LENGTH)
        ]
        linear.append({"op1": ops[0], "op2": ops[1], "bra": random_bits(rng, L),
                       "ket": random_bits(rng, L), "strings": strings})
    return {"quadratic": quad, "linear": linear}


class _Visit:
    """One evaluation session on a state pair: a fresh context, built by its first op."""

    def __init__(self, args):
        self.args = args
        self.ctx = None

    def context(self):
        if self.ctx is None:
            self.ctx = correlators.CorrelatorContext(*self.args)
        return self.ctx


class CorrelatorTable:
    name = "correlator-table"

    def __init__(self, raw: dict, oracle_for=None):
        self.oracle_for = oracle_for
        self.quad = []
        for ctx in raw["quadratic"]:
            L = ctx["L"]
            args = (quadratic.QuadraticGenerator(ctx["m1"]), quadratic.QuadraticGenerator(ctx["m2"]),
                    *_configs(ctx["bra"], ctx["ket"]))
            values = []
            for a in range(L):
                for b in range(L):
                    values.append(((correlators.ModeOp(a + 1, True), correlators.ModeOp(b + 1, False)),
                                   complex(*ctx["table"][a * L + b])))
            strings = [(correlators.parse_mode_string(text), complex(*val))
                       for text, val in ctx["strings"]]
            self.quad.append((args, values, strings, complex(*ctx["overlap"])))
        self.linear = []
        for k, lin in enumerate(raw["linear"]):
            op1 = linearpart.LinearGaussianOp(*lin["op1"])
            op2 = linearpart.LinearGaussianOp(*lin["op2"])
            bra, ket = _configs(lin["bra"], lin["ket"])
            strings = [tuple(correlators.ModeOp(s, d) for s, d in st) for st in lin["strings"]]
            self.linear.append(((op1, op2, bra, ket), strings, lin, k))

    def rounds(self, rng):
        quad, linear = Cycle(self.quad, rng), Cycle(self.linear, rng)
        while True:
            q = self._quad_visit(quad.take(1)[0], rng)
            lin = self._linear_visit(linear.take(1)[0], rng)
            yield q + lin if rng.integers(2) else lin + q

    @staticmethod
    def _quad_visit(entry, rng) -> list[Op]:
        args, table, strings, overlap_ref = entry
        visit = _Visit(args)
        ops = []
        values = shuffled(table, rng) + shuffled(strings, rng)
        for n, (mode_ops, ref) in enumerate(values):
            kind = "n_point/engine-build/L16" if n == 0 else f"n_point/{len(mode_ops)}pt/L16"

            def run(mode_ops=mode_ops):
                return correlators.n_point(visit.context(), mode_ops)

            def check(out, ref=ref):
                if isinstance(out, Raised):
                    return _guard(type(out.exc).__name__, ref, overlap_ref)
                return Verdict(True, signed=True) if close(out, ref, CORRELATOR_TOL) else _wrong()

            ops.append(Op(kind, run, check))
        return ops

    def _linear_visit(self, entry, rng) -> list[Op]:
        args, strings, lin, key = entry
        visit = _Visit(args)
        ops = []
        for n, mode_ops in enumerate(shuffled(strings, rng)):
            kind = (f"generalized_expectation/engine-build/L{LINEAR_L}" if n == 0
                    else f"generalized_expectation/{len(mode_ops)}pt/L{LINEAR_L}")

            def run(mode_ops=mode_ops):
                return correlators.generalized_expectation(visit.context(), mode_ops)

            def check(out, mode_ops=mode_ops):
                ref = self._linear_reference(lin, key, mode_ops)
                if isinstance(out, Raised):
                    return _guard(type(out.exc).__name__, ref)
                return Verdict(True, signed=True) if close(out, ref, CORRELATOR_TOL) else _wrong()

            ops.append(Op(kind, run, check))
        return ops

    def _linear_reference(self, lin, key, mode_ops) -> complex:
        oracle = self.oracle_for(LINEAR_L)
        bra = [int(c) for c in lin["bra"]]
        ket = [int(c) for c in lin["ket"]]
        return oracle.sandwich((("lin1", key), *lin["op1"]), (("lin2", key), *lin["op2"]),
                               bra, ket, [(o.site, o.dagger) for o in mode_ops])


# ---------------------------------------------------------------------------
# singular-rescue
# ---------------------------------------------------------------------------

RESCUE_SIZES = (8, 10)
RESCUE_INSTANCES = 3
RESCUE_CONFIGS = 4


def singular_rescue_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    sizes = {}
    for L in RESCUE_SIZES:
        pairs = []
        for kind in ("singular", "large"):
            for _ in range(RESCUE_INSTANCES):
                if kind == "singular":
                    m1 = pair_rotation_m(L) + sector_m(rng, L, 0.5)
                    m2 = sector_m(rng, L, 0.5)
                else:
                    m1 = random_m(rng, L, float(rng.uniform(10.0, 30.0)))
                    m2 = random_m(rng, L, float(rng.uniform(10.0, 30.0)))
                configs = [matched_bits(rng, L) for _ in range(RESCUE_CONFIGS)]
                pairs.append({"kind": kind, "m1": m1, "m2": m2, "configs": configs})
        sizes[L] = pairs
    return {"sizes": sizes}


def _write_operator(path: str, m: np.ndarray) -> str:
    L = m.shape[0] // 2
    doc = {"L": L, "M": [[[float(z.real), float(z.imag)] for z in row] for row in m]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


# ops per round for every (L, kind): two library calls and two CLI calls
RESCUE_ROUTES = {
    "eps": ("api", "api", "cli-overlap", "cli-overlap"),
    "cp": ("api", "api", "cli-cp-magnitude", "cli-cp-scan"),
    "large": ("api", "api", "cli-overlap", "cli-overlap"),
}


class SingularRescue:
    name = "singular-rescue"

    def __init__(self, raw: dict, workdir: str, oracle_for=None):
        self.oracle_for = oracle_for
        self.instances = {}
        for L, pairs in raw["sizes"].items():
            built = []
            for k, p in enumerate(pairs):
                g1 = quadratic.QuadraticGenerator(p["m1"])
                g2 = quadratic.QuadraticGenerator(p["m2"])
                f1 = _write_operator(os.path.join(workdir, f"L{L}-{k}-ket.json"), p["m1"])
                f2 = _write_operator(os.path.join(workdir, f"L{L}-{k}-bra.json"), p["m2"])
                configs = [(b, k_, *_configs(b, k_)) for b, k_ in p["configs"]]
                built.append({**p, "index": k, "g1": g1, "g2": g2, "f1": f1, "f2": f2,
                              "cfgs": configs})
            self.instances[L] = built

    def rounds(self, rng):
        cycles = {}
        for L, built in self.instances.items():
            for kind in RESCUE_ROUTES:
                family = "large" if kind == "large" else "singular"
                cycles[L, kind] = Cycle([(inst, cfg) for inst in built if inst["kind"] == family
                                         for cfg in inst["cfgs"]], rng)
        while True:
            ops = []
            for L in self.instances:
                for kind, routes in RESCUE_ROUTES.items():
                    draws = cycles[L, kind].take(len(routes))
                    ops.extend(self._op(L, kind, route, inst, cfg)
                               for route, (inst, cfg) in zip(routes, draws))
            yield shuffled(ops, rng)

    def _op(self, L: int, kind: str, route: str, inst: dict, cfg) -> Op:
        bra_s, ket_s, bra, ket = cfg
        g1, g2 = inst["g1"], inst["g2"]
        label = f"{kind}/{route}/L{L}"
        overlap_args = ["overlap", "--op", inst["f1"], "--op2", inst["f2"],
                        "--bra", bra_s, "--ket", ket_s]

        def reference():
            return self._reference(L, inst, bra_s, ket_s)

        if route == "cli-cp-scan":
            return Op(label, lambda: run_cli(["cp-scan", "--op", inst["f1"]]),
                      lambda out: check_cp_scan(out, L))
        if route.startswith("cli"):
            argv = overlap_args + (["--cp-magnitude"] if route == "cli-cp-magnitude" else [])
            return Op(label, lambda: run_cli(argv),
                      lambda out: check_cli_overlap(out, reference()))
        if kind == "cp":
            def run():
                t = overlaps.compose_bra_ket(quadratic.transfer_of(g2), quadratic.transfer_of(g1))
                return overlaps.overlap_magnitude_cp(t, bra, ket)
        else:
            def run():
                return overlaps.state_overlap(g1, g2, bra, ket)
        return Op(label, run, lambda out: check_overlap(out, reference()))

    def _reference(self, L: int, inst: dict, bra_s: str, ket_s: str) -> complex:
        oracle = self.oracle_for(L)
        key = (L, inst["index"])
        return oracle.sandwich((("ket", key), inst["m1"], None, None),
                               (("bra", key), inst["m2"], None, None),
                               [int(c) for c in bra_s], [int(c) for c in ket_s])


def check_cp_scan(outcome, L: int) -> Verdict:
    """The ket operator is a pi/2 rotation on sites 1, 2 (+) a generic sector:
    its T22 is singular, the swap on site 1 restores it, and the scan must list
    every subset ordered by size, then lexicographically."""
    if isinstance(outcome, Raised):
        return Verdict(False, reason=type(outcome.exc).__name__)
    code, text = outcome
    if code != 0:
        return Verdict(False, reason=f"exit {code}")
    entries = json.loads(text)["results"]["entries"]
    sites = [tuple(e["sites"]) for e in entries]
    verdicts = {tuple(e["sites"]): e["t22_invertible"] for e in entries}
    ok = (len(entries) == 2 ** L
          and sites == sorted(sites, key=lambda s: (len(s), s))
          and verdicts.get(()) is False and verdicts.get((1,)) is True)
    return Verdict(True) if ok else _wrong()


def build(name: str, seed: int, workdir: str, oracle_for=None):
    """Generate the inputs of a workload and set it up; returns (workload, input seconds)."""
    t0 = time.perf_counter()
    if name == "overlap-sweep":
        raw = overlap_sweep_inputs()
    elif name == "correlator-table":
        raw = correlator_table_inputs(seed)
    elif name == "singular-rescue":
        raw = singular_rescue_inputs(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    input_s = time.perf_counter() - t0
    if name == "overlap-sweep":
        return OverlapSweep(raw), input_s
    if name == "correlator-table":
        return CorrelatorTable(raw, oracle_for), input_s
    return SingularRescue(raw, workdir, oracle_for), input_s
