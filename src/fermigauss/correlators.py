"""Expectation values of operator strings between Gaussian states.

Every value is computed in the ancilla-extended space of
:mod:`~fermigauss.linearpart`, whose u = v = 0 case is a purely quadratic
pair, so one engine serves both.  Products of substituted operators
collapse pairwise: an odd string acquires one leftmost ``c0^dag - c0``
factor, taken as one operator, so every extended string is even.

Each string operator is first conjugated through the ket-side transfer
matrix into its coefficient rows over the bare modes.  A string of three
or more operators is then one Pfaffian, the overlap kernel's
:meth:`~fermigauss.overlaps.OverlapKernel.bordered`: its matrix, the
pair's pairing matrix or, on a singular pair, its factor chain, restricted
exactly as for an overlap, bordered by one row and column per operator
holding its contractions (the Balian-Brezin contraction structure, summed
by the Pfaffian minor-summation identity).  One- and two-operator strings
take the direct expansion, ``_Engine.string_element``: the amplitudes of
the configurations reached from the ket are pushed forward through the
rows (with the usual string signs), and the kernel gives the matrix
element of each reached configuration, one stacked Pfaffian per submatrix
order.  Neither route divides by an overlap, so both stay exact where it
vanishes.  A context picks its rescue route once; one engine on the
accepted kernel and the context's configuration pair serves every value.

The generalized Wick expansion -- all pairings plus at most one
singleton, each factor a one- or two-point value -- follows from the
extended-space pairing sum and is exposed both as a theorem check and as
a term table; it alone normalizes by the overlap.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

from .configs import FockConfig
from .linalg import remember
from .linearpart import LinearGaussianOp, embed
from .overlaps import _chain_kernel, _dispatch, _pair_kernel
from .quadratic import QuadraticGenerator, transfer_of

#: relative threshold below which the normalizing overlap counts as zero
ZERO_OVERLAP_TOL = 1e-13


@dataclass(frozen=True)
class ModeOp:
    """A single creation (``dagger=True``) or annihilation operator."""

    site: int
    dagger: bool

    def __post_init__(self):
        site = self.site
        if isinstance(site, bool) or not isinstance(site, numbers.Integral) or site < 1:
            raise ValueError(f"mode sites are integers from 1, got {site!r}")

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
    """The normalized term table of :func:`generalized_wick_expansion`
    divides by a vanishing overlap.

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
    """Formula evaluation on one kernel of ``exp(M2')^dag exp(M1')``, the
    product's or the factor chain's, bound to one (bra, ket) pair of
    configuration bits.

    Holds the kernel, which evaluates the bordered strings; the ket-side
    transfer matrix ``t1`` (for conjugating string operators); and the
    matrix elements <bra| F |config> keyed by the configuration bits, on
    the L + 1 sites of the ancilla-extended space.  Callers pass
    parity-allowed strings only.  ``one_point``, ``two_point`` and
    ``_odd_reduction`` have no caller in the library; ``bench/tracing.py``
    wraps them by name.
    """

    def __init__(self, kern, t1, bra_bits, ket_bits):
        self.kern, self.t1, self.L = kern, t1, kern.L
        self.bra, self.ket = bra_bits, ket_bits
        self._elements: dict = {}

    def element(self) -> complex:
        """<J| F |I> of the engine's pair."""
        val = self._elements.get(self.ket)
        if val is None:
            val = self.kern.element(FockConfig(self.bra), FockConfig(self.ket))
            self._elements[self.ket] = val
        return val

    def _coeff_rows(self, op: ModeOp):
        """The coefficients of ``op`` conjugated through the ket-side transfer:
        ``F op = (sum_j cc_j c_j + cd_j c_j^dag) F`` gives ``(cc, cd)``."""
        r = op.site - 1 + (self.L if op.dagger else 0)
        return self.t1[r, : self.L], self.t1[r, self.L:]

    def n_point(self, rows) -> complex:
        """<J| F phi_1 ... phi_n |I> for the coefficient rows of the string:
        the matrix element for none, :meth:`string_element` for one or two,
        the kernel's bordered Pfaffian for more."""
        if not rows:
            return self.element()
        if len(rows) < 3:
            return self.string_element(rows)
        return self._wick_even(rows)

    def one_point(self, op: ModeOp) -> complex:
        return self.string_element((self._coeff_rows(op),))

    def two_point(self, op_a: ModeOp, op_b: ModeOp) -> complex:
        """<J| F phi_a phi_b |I> by :meth:`string_element`."""
        return self.string_element((self._coeff_rows(op_a), self._coeff_rows(op_b)))

    def _wick_even(self, rows) -> complex:
        """Even strings of 4 or more coefficient rows: the kernel's bordered Pfaffian."""
        return self.kern.bordered(rows, self.bra, self.ket)

    def _odd_reduction(self, rows) -> complex:
        """Odd strings of 3 or more coefficient rows: the kernel's bordered Pfaffian."""
        return self.kern.bordered(rows, self.bra, self.ket)

    def string_element(self, rows) -> complex:
        """<J| F phi_1 ... phi_n |I> by direct expansion, no normalization.

        ``rows[k]`` holds the coefficient rows ``(cc, cd)`` of phi_{k+1}
        (see :meth:`_coeff_rows`), so any linear combination of mode
        operators is one operator.  A forward expansion: the amplitudes of
        the configurations reached from the ket are pushed through the
        operators from right to left, each bare mode acting with its
        string sign.  Every element <J|F|config> the value needs is then
        known before any is evaluated, and the ones missing from the
        element cache are filled in by one stacked Pfaffian per matrix
        order.  Unlike the Wick route this never divides by an overlap, so
        it stays exact at superselection points.
        """
        level = {self.ket: 1.0}
        for cc, cd in reversed(rows):
            # by occupation: c_j^dag acts on an empty site, c_j on an occupied one
            acting = (cd.tolist(), cc.tolist())
            nxt: dict = {}
            for bits, amp in level.items():
                odd = False
                for j, occ in enumerate(bits):
                    coeff = acting[occ][j]
                    if coeff != 0.0:
                        nb = bits[:j] + (1 - occ,) + bits[j + 1:]
                        term = -amp * coeff if odd else amp * coeff
                        nxt[nb] = nxt.get(nb, 0.0) + term
                    if occ:
                        odd = not odd
            level = nxt
        cache = self._elements
        missing = [bits for bits in level if bits not in cache]
        if missing:
            vals = self.kern.elements([(self.bra, bits) for bits in missing])
            cache.update(zip(missing, vals))
        total = complex(0.0)
        for bits, amp in level.items():
            total += amp * cache[bits]
        return total


class CorrelatorContext:
    """A bra/ket pair of Gaussian states with cached composition data.

    ``op1`` generates the ket state from configuration ``ket``; ``op2`` the
    bra state from ``bra``.  A :class:`QuadraticGenerator` stands for its
    u = v = 0 :class:`LinearGaussianOp`, one per generator object.  The
    context holds one generator pair, ``embed(op1)`` and ``embed(op2)``,
    cached on the operators, so their exponentials serve every context
    built on the same objects.  The first value that needs a kernel runs
    the overlaps' rescue chain pfaffian -> factor-chain once, and one engine
    on the accepted kernel serves every later value; the engine and its
    route, or the refusal, are kept by :func:`~fermigauss.linalg.remember`.
    ``route``, ``method`` and ``sign_certain`` describe the last value as
    an overlap result does, in a fresh copy each.
    """

    def __init__(self, op1, op2, bra: FockConfig, ket: FockConfig):
        op1, op2 = (LinearGaussianOp.quadratic(op) if isinstance(op, QuadraticGenerator) else op
                    for op in (op1, op2))
        if not (op1.L == op2.L == bra.L == ket.L):
            raise ValueError("inconsistent site counts across operators and configurations")
        self.op1 = op1
        self.op2 = op2
        self.bra = bra
        self.ket = ket
        self.quadratic = op1.is_quadratic and op2.is_quadratic
        self._bare_bra = op2.is_quadratic and not op2.m.any()    # F2 = I
        self._pair = (embed(op1), embed(op2))
        # configurations in the ancilla-extended space: the ket's ancilla
        # makes the two parities equal
        anc = 0 if bra.parity == ket.parity else 1
        self._extended_bits = (bra.with_ancilla(0).bits, ket.with_ancilla(anc).bits)
        self._zero()    # no value yet: an empty route

    @property
    def L(self) -> int:
        return self.op1.L

    def _zero(self) -> complex:
        """An exact parity zero, described as an overlap describes one."""
        self.route, self.method, self.sign_certain = [], "pfaffian", True
        return complex(0.0)

    def _engine(self) -> _Engine:
        """The context's engine; the route, method and sign certainty of
        the value it is about to give are kept."""
        def choose():
            g1, g2 = self._pair
            kern, route = _dispatch({"pfaffian": lambda: _pair_kernel(g1, g2),
                                     "factor-chain": lambda: _chain_kernel(g1, g2)},
                                    method="auto")
            return _Engine(kern, transfer_of(g1).t, *self._extended_bits), route

        engine, route = remember(self.__dict__, "_choice", choose)
        self.route = [dict(entry) for entry in route]
        self.method, self.sign_certain = route[-1]["route"], engine.kern.sign_certain
        return engine

    def _checked(self, ops) -> tuple:
        ops = tuple(ops)
        for op in ops:
            if op.site > self.L:
                raise ValueError(f"operator {op} acts outside sites 1..{self.L}")
        return ops


def _extended_value(ctx: CorrelatorContext, ops: tuple) -> complex:
    """<J, M2| phi_1 ... phi_n |M1, I> in the ancilla-extended space: the
    string shifted past the ancilla, led by ``c0^dag - c0`` when odd.  An
    exact zero when it annihilates a bare bra <J| (F2 = I), acting on it."""
    bits = list(ctx.bra.bits) if ctx._bare_bra else None
    for op in ops if ctx._bare_bra else ():
        if bits[op.site - 1] != op.dagger:     # c_a^dag needs a occupied, c_b b empty
            return ctx._zero()
        bits[op.site - 1] ^= 1
    e = ctx._engine()
    rows = [e._coeff_rows(op.shifted(1)) for op in ops]
    if len(ops) % 2:
        (pc, pd), (mc, md) = e._coeff_rows(ModeOp(1, True)), e._coeff_rows(ModeOp(1, False))
        rows.insert(0, (pc - mc, pd - md))
    return e.n_point(rows)


# -- quadratic correlators ----------------------------------------------


def overlap_value(ctx: CorrelatorContext) -> complex:
    """<M2(J)|M1(I)> for the context's state pair (quadratic operators)."""
    return n_point(ctx, ())


def one_point(ctx: CorrelatorContext, op: ModeOp) -> complex:
    """<J, M2| phi |M1, I>; exactly zero for equal-parity configurations."""
    return n_point(ctx, (op,))


def two_point(ctx: CorrelatorContext, op_a: ModeOp, op_b: ModeOp) -> complex:
    """<J, M2| phi_a phi_b |M1, I>; exactly zero for opposite parities."""
    return n_point(ctx, (op_a, op_b))


def n_point(ctx: CorrelatorContext, ops) -> complex:
    """<J, M2| phi_1 ... phi_n |M1, I> for any operator string (quadratic operators).

    Parity-forbidden strings are exact zeros.  Every other string is the
    u = v = 0 case of :func:`generalized_expectation`, on the same engine
    and with the same value bit for bit.
    """
    ops = ctx._checked(ops)
    if not ctx.quadratic:
        raise ValueError("this formula requires purely quadratic operators (u = v = 0); "
                         "use generalized_expectation instead")
    if (ctx.ket.n_occupied + len(ops) + ctx.bra.n_occupied) % 2:
        return ctx._zero()
    return _extended_value(ctx, ops)


# -- correlators with linear parts --------------------------------------


def generalized_expectation(ctx: CorrelatorContext, ops) -> complex:
    """Expectation of an operator string between states with linear parts.

    The string is mapped into the ancilla-extended space: even strings pass
    through unchanged (substituted operators collapse pairwise), odd strings
    acquire one leftmost ``c0^dag - c0`` factor, taken as one operator.
    An extended string of 3 or more operators is then one bordered
    Pfaffian, a shorter one a direct expansion.  Neither normalizes by an
    overlap, so both survive superselection points (u = v = 0 limits).
    """
    return _extended_value(ctx, ctx._checked(ops))


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
    ovl = generalized_expectation(ctx, ())
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
