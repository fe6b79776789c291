"""Expectation values of operator strings between Gaussian states.

Every value outside the Wick route comes from one expansion,
``_Engine.string_element``: each string operator is conjugated through
the ket-side transfer matrix into its coefficient rows over the bare
modes, the bare operators act on the configuration (with the usual string
signs), and the Pfaffian overlap formula is applied to each modified
configuration.  Even quadratic-sector strings of length 4 or more instead
take the Pfaffian of the matrix of two-point values, divided by the
overlap once per extra pair; every other string, odd ones included, is
expanded whole and never divides by an overlap.

With linear terms present, every string maps into the ancilla-extended
space: products of substituted operators collapse pairwise, so an even
string passes through unchanged while an odd string acquires a single
leftmost ``c0^dag - c0`` factor, which enters the expansion as one
operator.  The generalized Wick expansion -- all pairings plus at most
one singleton, each factor a one- or two-point value -- follows from the
extended-space pairing sum and is exposed both as a theorem check and as
a term table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .configs import FockConfig, apply_mode
from .linalg import RCOND_TOL, SingularBlockError, pfaffian
from .linearpart import LinearGaussianOp, embed
from .overlaps import EPS_SCHEDULE, EPS_SEED, _dispatch, _pair_kernel
from .quadratic import QuadraticGenerator

#: relative threshold below which the normalizing overlap counts as zero
ZERO_OVERLAP_TOL = 1e-13


@dataclass(frozen=True)
class ModeOp:
    """A single creation (``dagger=True``) or annihilation operator."""

    site: int
    dagger: bool

    def __post_init__(self):
        if self.site < 1:
            raise ValueError(f"mode sites are 1-based, got {self.site}")

    def __str__(self) -> str:
        return f"c{'d' if self.dagger else ''}{self.site}"

    def shifted(self, offset: int) -> "ModeOp":
        return ModeOp(self.site + offset, self.dagger)


_TOKEN = re.compile(r"^c(d?)([1-9][0-9]*)$")


def parse_mode_string(s: str) -> tuple[ModeOp, ...]:
    """Parse ``"c1 cd2 c3"`` into mode operators (cd = creation), 1-based sites."""
    ops = []
    for tok in s.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad operator token {tok!r}: expected c<k> or cd<k>")
        ops.append(ModeOp(int(m.group(2)), m.group(1) == "d"))
    return tuple(ops)


class ZeroOverlapError(Exception):
    """The Wick normalization divides by a vanishing overlap.

    Carries the unnormalized pairing sum so the caller can still report it.
    """

    def __init__(self, unnormalized: complex, n_factors: int, overlap: complex):
        super().__init__(
            f"overlap {overlap} too small to normalize a {n_factors}-factor expansion; "
            "unnormalized sum attached"
        )
        self.unnormalized = unnormalized
        self.n_factors = n_factors
        self.overlap = overlap


def pairings_with_sign(indices):
    """Perfect matchings of ``indices`` with their Pfaffian expansion signs.

    Yields ``(sign, pairs)`` where pairs keep each pair in original relative
    order and the sign is the parity of the permutation mapping the input
    order to the concatenated pair order.
    """
    idx = tuple(indices)
    if not idx:
        yield 1, ()
        return
    first = idx[0]
    for pos in range(1, len(idx)):
        partner = idx[pos]
        rest = idx[1:pos] + idx[pos + 1:]
        s = -1 if (pos - 1) % 2 else 1
        for s2, pairs in pairings_with_sign(rest):
            yield s * s2, ((first, partner),) + pairs


class _Engine:
    """Formula evaluation for one composed pair of quadratic generators.

    Holds the overlap kernel of ``exp(m2dag) exp(m1)`` together with the
    ket-side transfer matrix (for conjugating string operators) and value
    caches keyed by configuration bits.  Callers pass parity-allowed
    strings only.
    """

    def __init__(self, g1: QuadraticGenerator, g2: QuadraticGenerator,
                 rcond_tol: float = RCOND_TOL):
        self.L = g1.L
        self.kern, self.t1 = _pair_kernel(g1, g2, rcond_tol)
        self.rcond = self.kern.rcond
        self.sign_certain = self.kern.sign_certain
        self._elements: dict = {}
        self._two_points: dict = {}

    def element(self, bra_bits, ket_bits) -> complex:
        key = (bra_bits, ket_bits)
        val = self._elements.get(key)
        if val is None:
            val = self.kern.element(FockConfig(bra_bits), FockConfig(ket_bits))
            self._elements[key] = val
        return val

    def _coeff_rows(self, op: ModeOp):
        """The coefficients of ``op`` conjugated through the ket-side transfer:
        ``F op = (sum_j cc_j c_j + cd_j c_j^dag) F`` gives ``(cc, cd)``."""
        r = op.site - 1 + (self.L if op.dagger else 0)
        return self.t1[r, : self.L], self.t1[r, self.L:]

    def n_point(self, ops, bra_bits, ket_bits) -> complex:
        n = len(ops)
        if n == 0:
            return self.element(bra_bits, ket_bits)
        if n == 1:
            return self.one_point(ops[0], bra_bits, ket_bits)
        if n == 2:
            return self.two_point(ops[0], ops[1], bra_bits, ket_bits)
        if n % 2 == 0:
            return self._wick_even(ops, bra_bits, ket_bits)
        return self._odd_reduction(ops, bra_bits, ket_bits)

    def one_point(self, op: ModeOp, bra_bits, ket_bits) -> complex:
        return self.string_element((self._coeff_rows(op),), bra_bits, ket_bits)

    def two_point(self, op_a: ModeOp, op_b: ModeOp, bra_bits, ket_bits) -> complex:
        """Cached, since :meth:`_wick_even` reuses each pair across strings."""
        key = (op_a, op_b, bra_bits, ket_bits)
        val = self._two_points.get(key)
        if val is None:
            rows = (self._coeff_rows(op_a), self._coeff_rows(op_b))
            val = self._two_points[key] = self.string_element(rows, bra_bits, ket_bits)
        return val

    def _wick_even(self, ops, bra_bits, ket_bits) -> complex:
        """Even strings of length 4 or more: Pfaffian of the two-point
        matrix over the overlap once per extra pair."""
        n = len(ops)
        g = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                val = self.two_point(ops[a], ops[b], bra_bits, ket_bits)
                g[a, b] = val
                g[b, a] = -val
        pairing_sum = pfaffian(g)
        n_pairs = n // 2
        ovl = self.element(bra_bits, ket_bits)
        scale = max(1.0, float(np.max(np.abs(g))))
        if abs(ovl) < ZERO_OVERLAP_TOL * scale:
            raise ZeroOverlapError(pairing_sum, n_pairs, ovl)
        return pairing_sum / ovl ** (n_pairs - 1)

    def _odd_reduction(self, ops, bra_bits, ket_bits) -> complex:
        """Odd strings of length 3 or more: :meth:`string_element`, which
        never divides by an overlap."""
        return self.string_element([self._coeff_rows(op) for op in ops], bra_bits, ket_bits)

    def string_element(self, rows, bra_bits, ket_bits) -> complex:
        """<J| F phi_1 ... phi_n |I> by direct expansion, no normalization.

        ``rows[k]`` holds the coefficient rows ``(cc, cd)`` of phi_{k+1}
        (see :meth:`_coeff_rows`), so any linear combination of mode
        operators is one operator.  Expands the rightmost operator into
        bare modes acting on the ket configuration and recurses on the
        prefix, memoized on (prefix length, configuration).  Unlike the
        Wick route this never divides by an overlap, so it stays exact at
        superselection points.
        """
        memo: dict = {}

        def expand(k: int, bits) -> complex:
            if k == 0:
                return self.element(bra_bits, bits)
            key = (k, bits)
            val = memo.get(key)
            if val is not None:
                return val
            cc, cd = rows[k - 1]
            total = complex(0.0)
            for j in range(self.L):
                for dag, coeff in ((False, cc[j]), (True, cd[j])):
                    if coeff == 0.0:
                        continue
                    s, nb = apply_mode(bits, j + 1, dag)
                    if s:
                        total += coeff * s * expand(k - 1, nb)
            memo[key] = total
            return total

        return expand(len(rows), ket_bits)


class CorrelatorContext:
    """A bra/ket pair of Gaussian states with cached composition data.

    ``op1`` generates the ket state from configuration ``ket``; ``op2`` the
    bra state from ``bra``.  Both may carry linear parts; the purely
    quadratic formulas demand both be quadratic.  When the composed T22 is
    singular, or the sign of its det(T22)^(1/2) cannot be tracked,
    evaluations transparently switch to the perturbative continuation of
    the ket-side generator.
    """

    def __init__(self, op1, op2, bra: FockConfig, ket: FockConfig, *,
                 rcond_tol: float = RCOND_TOL,
                 eps_schedule=EPS_SCHEDULE, eps_seed: int = EPS_SEED):
        # (ket, bra) generators per sector, False (quadratic) or True
        # (extended); generators given for the quadratic sector are kept,
        # and the extended sector's come from ``embed``, which caches them
        # on the operators, so their exponentials serve every context
        # built on the same objects
        self._gens: dict = {}
        if isinstance(op1, QuadraticGenerator) and isinstance(op2, QuadraticGenerator):
            self._gens[False] = (op1, op2)
        if isinstance(op1, QuadraticGenerator):
            op1 = LinearGaussianOp.quadratic(op1)
        if isinstance(op2, QuadraticGenerator):
            op2 = LinearGaussianOp.quadratic(op2)
        if not (op1.L == op2.L == bra.L == ket.L):
            raise ValueError("inconsistent site counts across operators and configurations")
        self.op1 = op1
        self.op2 = op2
        self.bra = bra
        self.ket = ket
        self.rcond_tol = rcond_tol
        self.eps_schedule = eps_schedule
        self.eps_seed = eps_seed
        self.quadratic = op1.is_quadratic and op2.is_quadratic
        # configurations in the ancilla-extended space: the ket's ancilla
        # makes the two parities equal
        anc = 0 if bra.parity == ket.parity else 1
        self._extended_bits = ((0,) + bra.bits, (anc,) + ket.bits)
        # engine per (sector, perturbation), or the SingularBlockError that
        # building it raised; the sector is False (quadratic) or True
        # (extended), the perturbation None or the bytes of the shift of
        # the ket-side generator
        self._engines: dict = {}

    @property
    def L(self) -> int:
        return self.op1.L

    def _engine(self, extended: bool, delta, rcond_tol: float) -> _Engine:
        wrap = embed if extended else (lambda op: QuadraticGenerator(op.m))
        if extended not in self._gens:
            self._gens[extended] = (wrap(self.op1), wrap(self.op2))
        g1, g2 = self._gens[extended]
        if delta is not None:
            g1 = wrap(LinearGaussianOp(self.op1.m + delta, self.op1.u, self.op1.v))
        return _Engine(g1, g2, rcond_tol)

    def _eval(self, fn, extended: bool = False) -> complex:
        """``fn(engine)`` through the overlap rescue chain, quadratic or
        ancilla-extended.  The magnitude route is left out: correlators
        need the sign."""
        def kernel_at(delta, tol):
            key = (extended, None if delta is None else delta.tobytes())
            if key not in self._engines:
                try:
                    self._engines[key] = self._engine(extended, delta, tol)
                except SingularBlockError as exc:
                    self._engines[key] = exc
            engine = self._engines[key]
            if isinstance(engine, SingularBlockError):
                raise engine.with_traceback(None)
            return engine

        return _dispatch(kernel_at, fn, self.L, cp=None, method="auto",
                         rcond_tol=self.rcond_tol, eps_schedule=self.eps_schedule,
                         eps_seed=self.eps_seed).value

    def _checked(self, ops) -> tuple:
        ops = tuple(ops)
        for op in ops:
            if op.site > self.L:
                raise ValueError(f"operator {op} acts outside sites 1..{self.L}")
        return ops


# -- quadratic-sector correlators --------------------------------------


def overlap_value(ctx: CorrelatorContext) -> complex:
    """<M2(J)|M1(I)> for the context's state pair (quadratic sector)."""
    return n_point(ctx, ())


def one_point(ctx: CorrelatorContext, op: ModeOp) -> complex:
    """<J, M2| phi |M1, I>; exactly zero for equal-parity configurations."""
    return n_point(ctx, (op,))


def two_point(ctx: CorrelatorContext, op_a: ModeOp, op_b: ModeOp) -> complex:
    """<J, M2| phi_a phi_b |M1, I>; exactly zero for opposite parities."""
    return n_point(ctx, (op_a, op_b))


def n_point(ctx: CorrelatorContext, ops) -> complex:
    """Wick evaluation of an arbitrary operator string (quadratic sector).

    Even same-parity strings of length 4 or more: Pfaffian of the
    two-point matrix divided by the overlap once per extra pair.  Every
    other string: direct expansion of the whole string through the
    ket-side transfer matrix, with no normalization.  Parity-forbidden
    strings are exact zeros.

    Raises :class:`ZeroOverlapError` when the normalization would divide
    by a vanishing overlap; the unnormalized pairing sum rides along.
    """
    ops = ctx._checked(ops)
    if not ctx.quadratic:
        raise ValueError("this formula requires purely quadratic operators (u = v = 0); "
                         "use generalized_expectation instead")
    if (ctx.ket.n_occupied + len(ops) + ctx.bra.n_occupied) % 2:
        return complex(0.0)
    return ctx._eval(lambda e: e.n_point(ops, ctx.bra.bits, ctx.ket.bits))


# -- linear-sector correlators ------------------------------------------


def generalized_overlap_value(ctx: CorrelatorContext) -> complex:
    """Overlap of the two states through the ancilla embedding (any parities)."""
    return generalized_expectation(ctx, ())


def generalized_expectation(ctx: CorrelatorContext, ops) -> complex:
    """Expectation of an operator string between states with linear parts.

    The string is mapped into the ancilla-extended space: even strings pass
    through unchanged (substituted operators collapse pairwise), odd strings
    acquire one leftmost ``c0^dag - c0`` factor, expanded as one operator.
    The extended string element is then evaluated by direct expansion,
    which never normalizes by an overlap and therefore survives
    superselection points (u = v = 0 limits).
    """
    shifted = tuple(op.shifted(1) for op in ctx._checked(ops))
    bra_bits, ket_bits = ctx._extended_bits

    def value(e: _Engine) -> complex:
        rows = [e._coeff_rows(op) for op in shifted]
        if len(shifted) % 2:
            (pc, pd), (mc, md) = e._coeff_rows(ModeOp(1, True)), e._coeff_rows(ModeOp(1, False))
            rows.insert(0, (pc - mc, pd - md))
        return e.string_element(rows, bra_bits, ket_bits)

    return ctx._eval(value, extended=True)


@dataclass(frozen=True)
class WickTerm:
    """One completely contracted product in the generalized expansion."""

    sign: int
    pairs: tuple[tuple[int, int], ...]
    singleton: int | None
    factors: tuple[complex, ...]

    @property
    def value(self) -> complex:
        out = complex(self.sign)
        for f in self.factors:
            out *= f
        return out


def generalized_wick_expansion(ctx: CorrelatorContext, ops):
    """Expectation via the sum over pairings (plus one singleton when odd).

    Returns ``(value, terms)``.  Every term is a product of one- and
    two-point expectations with the Pfaffian pairing sign; the sum is
    divided by the overlap once per factor beyond the first.  Validates
    the generalized Wick theorem against :func:`generalized_expectation`
    and exposes the term table.
    """
    ops = ctx._checked(ops)
    n = len(ops)
    ovl = generalized_overlap_value(ctx)
    if n == 0:
        return ovl, [WickTerm(1, (), None, (ovl,))]
    pair_vals: dict[tuple[int, int], complex] = {}
    for a in range(n):
        for b in range(a + 1, n):
            pair_vals[(a, b)] = generalized_expectation(ctx, (ops[a], ops[b]))
    single_vals = {}
    if n % 2:
        for a in range(n):
            single_vals[a] = generalized_expectation(ctx, (ops[a],))
    terms = []
    if n % 2 == 0:
        for sign, pairs in pairings_with_sign(range(n)):
            terms.append(WickTerm(sign, pairs, None,
                                  tuple(pair_vals[p] for p in pairs)))
    else:
        # index -1 stands for the ancilla-charge slot; its partner is the singleton
        for sign, pairs in pairings_with_sign((-1,) + tuple(range(n))):
            singleton = pairs[0][1]
            rest = pairs[1:]
            factors = (single_vals[singleton],) + tuple(pair_vals[p] for p in rest)
            terms.append(WickTerm(sign, rest, singleton, factors))
    total = sum(t.value for t in terms)
    n_factors = (n + 1) // 2 if n % 2 else n // 2
    if n_factors <= 1:
        return total, terms
    scale = max([1.0] + [abs(v) for v in pair_vals.values()])
    if abs(ovl) < ZERO_OVERLAP_TOL * scale:
        raise ZeroOverlapError(total, n_factors, ovl)
    return total / ovl ** (n_factors - 1), terms
