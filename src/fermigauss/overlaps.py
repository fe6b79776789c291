"""Configuration-basis matrix elements of Gaussian operators.

The central formula: for a composed quadratic operator with transfer
matrix T (T22 invertible),

    <J| F |I> = (-1)^(n_I (n_I + 1)/2) (-1)^(n_I n_J)
                det(T22)^(1/2) pf(A restricted),

where ``A = [[X, e^Y], [-e^(Y^T), Z]]`` is built from the factorization
data and the restriction keeps the rows/columns of the occupied sites of
J in the first block and of I in the second block (equivalently, removes
the empty ones), both in increasing order.  Over a product of factored
operators F_1 ... F_k it is one Pfaffian of a larger chain matrix (Robledo,
PRC 79, 021302(R), 2009; Bertsch & Robledo, PRL 108, 042505, 2012);
:class:`OverlapKernel` evaluates both.  It also gives the correlators'
strings of three or more operators: through a configuration pair's
contraction matrix G = K + B^T M0^-1 B (Balian and Brezin's contraction
structure, one inversion of the restricted matrix M0 per pair and one
Pfaffian of the string's order per value, times the element the caller
keeps), or, where M0 is singular or ill-conditioned
(:data:`CONTRACTION_RCOND`), through the bordered form of M0.

When T22 is singular three rescue routes exist.  When the generators
are known, the factor chain keeps the product unmultiplied: each factor's
own factor data enter the kernel, and a factor whose own T22 is singular
enters as its two halves e^(M/2) e^(M/2).  Behind it come an analytic
continuation in a small admissible perturbation of the generator (signed
value, Richardson-extrapolated), and the particle-hole permutation route
which recovers the magnitude only.  One front end, on a pair of generators,
chooses the route of the chain Pfaffian -> factor chain -> continuation ->
permutation for every public overlap function, records each attempt in
``route`` and hands back the accepted kernel for the caller to evaluate.  A
generator keeps its chain factors, or their refusal, by the caching rule of
:func:`~fermigauss.linalg.remember`.  The signed overlaps
take generators only: a transfer matrix fixes its Fock operator only up
to sign, so a bare one has just the magnitude of
:func:`overlap_magnitude_cp`.

The paper's pair states exp((1/2) c^dag R c^dag + u^dag c^dag)|0> are
one-factor kernels on L + 1 sites, so their amplitudes, norms and overlaps,
with or without an operator between them, are kernel elements too; the
closed form <psi|psi>^2 = det(I + R^dag R) at u = 0 lives only in the
tests, as the independent reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .configs import FockConfig
from .linalg import (
    LinalgError,
    SingularBlockError,
    _pfaffian_exact,
    check_skew,
    mat_exp,
    rcond_estimate,
    remember,
    sqrt_det_continuous,
)
from .linearpart import LinearGaussianOp, embed
from .quadratic import (
    FactoredGaussian,
    QuadraticGenerator,
    TransferMatrix,
    _normal_factors,
    _t22_rcond_bound,
    bbd_normal,
    cp_apply_transfer,
    cp_suggestions,
    random_generator,
    transfer_of,
)

#: perturbation schedule of the analytic-continuation fallback
EPS_SCHEDULE = (1e-4, 5e-5)
#: seed of the recorded random perturbation direction
EPS_SEED = 20240817
#: maximum relative disagreement between successive extrapolations
EPS_AGREE_TOL = 1e-6
#: complex entries (1 MB) of one stack of restricted pairing matrices in
#: :meth:`OverlapKernel.elements`, which bounds its working memory
STACK_ENTRIES = 1 << 16
#: rcond of a pair's restricted chain matrix M0 above which
#: :meth:`OverlapKernel.contracted` reads the pair's contraction matrix; at
#: or below it, and for a singular M0, it takes the bordered Pfaffian.  On
#: pairs built near-singular the contraction matrix rounds to about
#: eps / rcond(M0)^2 of max(1, |value|, |element|): 4e-11 at 1e-3, 8e-13 at
#: 1e-2.  Random pairs at L 1-8, scales 0.5-3, keep within 1e-13 of the
#: bordered value above 1e-3, and the correlator benchmark's L = 16 pairs
#: (rcond 0.0019-0.094) all stay above it.
CONTRACTION_RCOND = 1e-3


class ExtrapolationError(LinalgError):
    """The perturbative fallback did not converge; magnitude via the
    particle-hole permutation route is still available."""

    def __init__(self, disagreement: float):
        super().__init__(
            f"epsilon extrapolation disagreement {disagreement:.3e} > {EPS_AGREE_TOL:.1e}; "
            "consider the cp-magnitude route"
        )
        self.disagreement = disagreement


@dataclass
class OverlapResult:
    """Overlap value plus provenance.

    ``method`` is one of ``"pfaffian"``, ``"factor-chain"``,
    ``"epsilon-regularized"`` or ``"cp-magnitude"``; ``sign_certain`` is
    False for the last one, whose value is a magnitude, and for a forced
    Pfaffian whose det(T22)^(1/2) has no principal log.  ``route`` lists
    the attempts of the rescue chain that produced the value (see
    :func:`_dispatch`) and ends with the one accepted entry, the data of the
    answering route; it is empty for an exact parity zero.
    """

    value: complex
    method: str
    sign_certain: bool = True
    route: list = field(default_factory=list)


class OverlapKernel:
    """Pfaffian evaluation engine for a product of factored operators.

    ``factors`` holds the normal-ordered factor data of F_1 ... F_k, left
    to right.  The chain matrix C (``pairing``) has each factor's
    :attr:`~fermigauss.quadratic.FactoredGaussian.pairing` block
    [[X, E], [-E^T, Z]] on its diagonal, and +I coupling each factor's Z
    block to the next factor's X block; then

        <J| F_1 ... F_k |I> = sigma p_1 ... p_k pf(C restricted),

    the restriction keeping J's rows of the first block, every inner block
    and I's rows of the last block, and
    sigma = (-1)^((k-1) L (L-1)/2 + n_I (n_I-1)/2).  For one factor
    (``k`` = 1) C is its read-only pairing matrix and this is the central
    formula above.  ``element`` evaluates any configuration pair,
    ``elements`` many pairs at once, and ``contracted`` a pair's element of
    a string of operators, from the pair's contraction matrix or, as its
    fallback, ``bordered``: the restricted C bordered by the string's rows.
    The kernel alone knows C's layout and sigma.

    The prefactors p_i = det(T22)^(1/2) carry the physical sign, so the
    caller fixes their branches: the signed overlaps by continuity along a
    path from the identity, :func:`overlap_magnitude_cp` on the principal
    branch of :func:`~fermigauss.quadratic.bbd_normal`.  ``rcond`` is the
    factors' smallest, ``sign_certain`` holds when every factor's does, and
    ``branch`` is ``"continuity"`` when every root was fixed that way.
    """

    def __init__(self, factors: list[FactoredGaussian]):
        L = self.L = factors[0].x.shape[0]
        k = self.k = len(factors)
        n = 2 * k * L
        c = factors[0].pairing
        if k > 1:
            c = np.zeros((n, n), dtype=complex)
            for i, fac in enumerate(factors):
                a = 2 * i * L
                c[a:a + 2 * L, a:a + 2 * L] = fac.pairing
                if i:
                    c[a - L:a, a:a + L] = np.eye(L)
                    c[a:a + L, a - L:a] = -np.eye(L)
        self.pairing = c
        self.prefactor = functools.reduce(lambda p, q: p * q, (fac.prefactor for fac in factors))
        self.rcond = min(fac.rcond for fac in factors)
        self.sign_certain = all(fac.sign_certain for fac in factors)
        self.branch = ("continuity" if all(fac.branch == "continuity" for fac in factors)
                       else "principal")
        self._inner = list(range(L, n - L))
        self._restricted: dict = {}    # (bra bits, ket bits) -> bordered's blocks
        self._contractions: dict = {}  # (bra bits, ket bits) -> M0^-1, or None

    def _keep(self, bra_bits, ket_bits) -> tuple[list[int], int, int]:
        """The rows of ``pairing`` that <J| ... |I> keeps, in increasing
        order, with n_J and n_I."""
        L = self.L
        if len(bra_bits) != L or len(ket_bits) != L:
            raise ValueError("configuration length does not match operator size")
        jj = [j for j, b in enumerate(bra_bits) if b]
        last = len(self.pairing) - L
        ii = [last + i for i, b in enumerate(ket_bits) if b]
        return jj + self._inner + ii, len(jj), len(ii)

    def _sigma(self, n_j: int, n_i: int, n: int) -> int:
        """The parity of sigma's exponent for a restriction to n_J and n_I
        rows bordered by n operators, (k-1) L(L-1)/2 + n(n-1)/2 +
        n_I(n_I+1)/2 + n_I n_J; for n = 0 and even n_I + n_J it is the
        class docstring's."""
        return ((self.k - 1) * (self.L * (self.L - 1) // 2) + n * (n - 1) // 2
                + n_i * (n_i + 1) // 2 + n_i * n_j) % 2

    def element(self, bra: FockConfig, ket: FockConfig) -> complex:
        """<J| F_1 ... F_k |I>; exact zero on parity mismatch."""
        return self.elements([(bra.bits, ket.bits)])[0]

    def elements(self, pairs) -> list[complex]:
        """<J| F_1 ... F_k |I> for many ``(bra bits, ket bits)`` pairs.

        The restricted chain matrices of one order are gathered in one
        fancy-index step and go to one stacked Pfaffian; an order with more
        than :data:`STACK_ENTRIES` matrix entries goes in chunks of at most
        that many.  A parity-forbidden pair gives an exact zero; an empty
        restriction gives the prefactor.  An element's last bits depend on
        the pairs evaluated with it (see :func:`~fermigauss.linalg.pfaffian`).
        """
        out = [complex(0.0)] * len(pairs)
        by_order: dict = {}      # order -> (positions, keep lists, signs)
        for pos, (bra_bits, ket_bits) in enumerate(pairs):
            keep, n_j, n_i = self._keep(bra_bits, ket_bits)
            if (n_i + n_j) % 2:
                continue
            group = by_order.setdefault(len(keep), ([], [], []))
            group[0].append(pos)
            group[1].append(keep)
            group[2].append(-1.0 if self._sigma(n_j, n_i, 0) else 1.0)
        for order, (positions, keeps, signs) in by_order.items():
            idx = np.array(keeps, dtype=np.intp).reshape(len(keeps), order)
            step = max(1, STACK_ENTRIES // max(1, order * order))
            pfs = []
            for part in (idx[lo:lo + step] for lo in range(0, len(idx), step)):
                pfs += _pfaffian_exact(self.pairing[part[:, :, None], part[:, None, :]]).tolist()
            for pos, sign, pf in zip(positions, signs, pfs):
                scale = sign * self.prefactor    # exactly 1 keeps pf's signed zeros
                out[pos] = pf if scale == 1.0 else scale * pf
        return out

    def _blocks(self, bra_bits, ket_bits) -> tuple:
        """A pair's restricted blocks, built once: n_J, the number h of kept
        rows ahead of I, I's sites, the kept C in its upper triangle, the
        Z-block columns of those h rows (the last factor's E on its X-block
        rows, zero above) and that Z block's columns Z_:I."""
        key = (bra_bits, ket_bits)
        if key not in self._restricted:
            L, c = self.L, self.pairing
            keep, n_j, n_i = self._keep(bra_bits, ket_bits)
            h = len(keep) - n_i
            ii = [i for i, b in enumerate(ket_bits) if b]
            self._restricted[key] = (n_j, h, ii, np.triu(c[np.ix_(keep, keep)], 1),
                                     c[keep[:h], -L:], c[-L:, -L:][:, ii])
        return self._restricted[key]

    def bordered(self, rows, bra_bits, ket_bits) -> complex:
        """<J| F_1 ... F_k phi_1 ... phi_n |I> as one Pfaffian, no normalization.

        ``rows[k]`` holds the coefficients (alpha | beta) of phi_{k+1} over
        ``(c, c^dag)``, one row of 2L.  C restricted as in :meth:`elements`
        is bordered by one row per operator, in the order [J, inner blocks,
        phi_1..phi_n, I].  The string stands right of the last factor: with
        E, Z and X that factor's coupling and ket blocks and its X-block
        rows (J's for one factor), the border holds the contractions

            [X, phi_b]     = E beta_b
            [phi_a, phi_b] = beta_a Z beta_b^T - alpha_a . beta_b   (a < b)
            [phi_a, I]     = (beta_a Z - alpha_a)_I

        (Balian and Brezin's contraction structure; the Pfaffian
        minor-summation identity sums the bare-mode expansion into one
        Pfaffian).  The matrix is built from its upper triangle, so it is
        exactly antisymmetric, and the value is sigma (:meth:`_sigma`) times
        the prefactor times its Pfaffian.  It divides by nothing, so
        :meth:`contracted` falls back to it.
        """
        n_j, h, ii, inner, e_h, z_i = self._blocks(bra_bits, ket_bits)
        n_i, n = len(ii), len(rows)
        mid = slice(h, h + n)
        m = np.zeros((h + n + n_i,) * 2, dtype=complex)
        m[:h, :h] = inner[:h, :h]
        m[:h, h + n:] = inner[:h, h:]
        m[h + n:, h + n:] = inner[h:, h:]
        m[:h, mid], m[mid, h + n:], among = self._border(rows, e_h, ii, z_i)
        m[mid, mid] = np.triu(among, 1)
        m -= m.T
        pf = _pfaffian_exact(m)
        return -self.prefactor * pf if self._sigma(n_j, n_i, n) else self.prefactor * pf

    def _border(self, rows, e_h, ii, z_i) -> tuple:
        """The contractions of :meth:`bordered`'s string with the kept rows
        ahead of I, with I, and among its rows (all pairs), as blocks."""
        L = self.L
        r = np.reshape(rows, (len(rows), 2 * L))
        alpha, beta = r[:, :L], r[:, L:]
        return (e_h @ beta.T, beta @ z_i - alpha[:, ii],
                (beta @ self.pairing[-L:, -L:] - alpha) @ beta.T)

    def _contraction(self, bra_bits, ket_bits):
        """M0^-1 of a pair, or None when M0, the restricted C that
        :meth:`elements` takes the Pfaffian of, has an rcond of at most
        :data:`CONTRACTION_RCOND`."""
        inner = self._blocks(bra_bits, ket_bits)[3]
        m0 = inner - inner.T
        return None if rcond_estimate(m0) <= CONTRACTION_RCOND else np.linalg.inv(m0)

    def contracted(self, rows, bra_bits, ket_bits, element) -> complex:
        """:meth:`bordered`'s value through the pair's contraction matrix.

        Over the 2L bare modes (c, c^dag), :meth:`bordered` borders M0 by
        the columns B r_b^T, B = [[0, E_h], [S_I, -Z_:I^T]] (S_I selecting
        I's sites), and contracts two rows as r_a K r_b^T, K = [[0, -I],
        [0, Z]].  The Schur complement of M0 gives pf(bordered) =
        (-1)^(n n_I) pf(M0) pf(W), W_ab = r_a G r_b^T for a < b with the
        pair's contraction matrix G = K + B^T M0^-1 B, so the value is
        (-1)^(n(n-1)/2 + n n_I) times the pair's element, ``element()``,
        which the caller keeps, times pf(W): one Pfaffian of order n, after
        one inversion of M0 per pair (:meth:`_contraction`).  G is read in
        that factored form, W = R K R^T + (B R^T)^T M0^-1 (B R^T), with R K
        R^T and B R^T the blocks of :meth:`bordered` (:meth:`_border`): the
        formed product B^T M0^-1 B, between large rows, loses up to 1e-10 of
        max(1, |value|, |element|) at scale 3, where the factored form keeps
        to 1e-13.  A pair whose M0 is singular or ill-conditioned, where G
        would divide by a vanishing pf(M0), takes :meth:`bordered`, which
        divides by nothing and calls no ``element()``.
        """
        m0_inv = remember(self._contractions, (bra_bits, ket_bits),
                          lambda: self._contraction(bra_bits, ket_bits))
        if m0_inv is None:
            return self.bordered(rows, bra_bits, ket_bits)
        value = element()
        _, _, ii, _, e_h, z_i = self._blocks(bra_bits, ket_bits)
        ahead, with_i, among = self._border(rows, e_h, ii, z_i)
        b_r = np.concatenate((ahead, -with_i.T))     # B R^T, M0's border columns
        w = np.triu(among + b_r.T @ (m0_inv @ b_r), 1)
        w -= w.T
        pf = _pfaffian_exact(w)
        n = len(rows)
        return -value * pf if (n * (n - 1) // 2 + n * len(ii)) % 2 else value * pf


class _ProductPath:
    """The continuity path ``s -> T22(s)`` of exp(s M2^dag) exp(s M1).

    ``g1`` and ``g2`` are the ket and bra generators (``g2`` None for the
    identity).  Only the right L columns C(s) of exp(s M) reach T22, and
    exp(s M2^dag) = exp(conj(s) M2)^dag, so T22(s) = C2(conj(s))^dag C1(s):
    both generators are stepped alike.  A real point is reached from the
    last one evaluated by one step, C(s+h) = e^{hM} C(s).  A step within
    rounding of the current one reuses it; a new step length is taken from
    the generators, which cache its exponentials, so an equally spaced grid
    costs one ``mat_exp`` per generator the first time and none after.  A
    point whose real part does not increase begins a new path at the
    identity.  Complex points (the detours) are exponentiated directly.
    """

    def __init__(self, g1: QuadraticGenerator, g2: QuadraticGenerator | None):
        self.gens = [g1] if g2 is None else [g1, g2]
        self.half = g1.L
        self._s = None      # last real point; None after a complex one
        self._cols = None   # C(s) per generator; None stands for the identity
        self._step = None   # (h, e^{hM} per generator)

    def _step_exp(self, h: float):
        if self._step is None or abs(h - self._step[0]) > 1e-12 * h:
            self._step = (h, [g._step_exp(h) for g in self.gens])
        return self._step[1]

    def __call__(self, s: complex) -> np.ndarray:
        s, half = complex(s), self.half
        if s.imag != 0.0:
            self._s = None
            cols = [mat_exp(z * g.m)[:, half:] for z, g in zip((s, s.conjugate()), self.gens)]
        else:
            if self._s is None or s.real <= self._s:
                self._s, self._cols = 0.0, [None] * len(self.gens)
            steps = self._step_exp(s.real - self._s)
            self._s = s.real
            self._cols = cols = [e[:, half:] if c is None else e @ c
                                 for e, c in zip(steps, self._cols)]
        return cols[0][half:] if len(cols) == 1 else cols[1].conj().T @ cols[0]


def _product(g1: QuadraticGenerator, g2: QuadraticGenerator | None) -> TransferMatrix:
    """The transfer exp(M2)^dag exp(M1) of the pair: :func:`compose_bra_ket`
    of the transfers cached on the generators, or that of ``g1`` alone for
    an identity bra operator (``g2`` None)."""
    return transfer_of(g1) if g2 is None else compose_bra_ket(g2, g1)


def _pair_kernel(g1: QuadraticGenerator, g2: QuadraticGenerator | None,
                 t: TransferMatrix | None = None) -> OverlapKernel:
    """Kernel for <J| exp(M2^dag) exp(M1) |I> with a continuity-tracked sign.

    ``g1`` is the ket generator M1 and ``g2`` the bra generator M2 (None for
    an identity bra operator); ``t`` is their :func:`_product`, formed here
    when not given.  The det(T22)^(1/2) branch is fixed by following the
    path s -> exp(s M2^dag) exp(s M1) from the identity, which is
    holomorphic in s and therefore admits complex detours around
    determinant zeros.
    """
    t = _product(g1, g2) if t is None else t
    path = _ProductPath(g1, g2)
    return OverlapKernel([_normal_factors(t.t12, t.t21, t.t22,
                                          lambda t22: sqrt_det_continuous(path, t22))])


def compose_bra_ket(op2, op1) -> TransferMatrix:
    """Transfer matrix of e^(M2^dag) e^(M1), i.e. of <M2(J)| ... |M1(I)>,
    as T2^dag T1: the bra side is the adjoint of its own transfer.

    Works at the transfer level only, so it never hits a log-branch failure.
    """
    t1 = op1 if isinstance(op1, TransferMatrix) else transfer_of(op1)
    t2 = op2 if isinstance(op2, TransferMatrix) else transfer_of(op2)
    return TransferMatrix(t2.t.conj().T @ t1.t)


# ---------------------------------------------------------------------------
# the factor chain
# ---------------------------------------------------------------------------

class UnfixedBranchError(LinalgError):
    """No continuity path fixes the branch of a chain factor's
    det(T22)^(1/2); the factor chain refuses the principal-branch value."""

    def __init__(self, det: complex):
        super().__init__(f"no continuity path fixes det(T22)^(1/2) of a chain factor "
                         f"(|det T22| = {abs(det):.3e})")
        self.abs_det = abs(det)


def _path_factors(g: QuadraticGenerator) -> FactoredGaussian:
    """The factor data of exp(M), p = det(T22)^(1/2) fixed by the
    continuity path of ``g`` alone; raises :class:`UnfixedBranchError` when
    no path fixes it."""
    def det_root(t22):
        root = sqrt_det_continuous(_ProductPath(g, None), t22)
        if root[0] is None:
            raise UnfixedBranchError(root[1])     # the refusal carries det(T22)
        return root

    t = transfer_of(g)
    return _normal_factors(t.t12, t.t21, t.t22, det_root)


def _chain_factors(g: QuadraticGenerator) -> tuple:
    """exp(M) as chain factors, kept on ``g``: itself, or, when its T22
    fails the rcond test, its half exp(M/2) twice."""
    def build():
        try:
            return (_path_factors(g),)
        except SingularBlockError:
            half = _path_factors(QuadraticGenerator(0.5 * g.m))
            return half, half

    return remember(g.__dict__, "_chain", build)


def _chain_kernel(g1: QuadraticGenerator, g2: QuadraticGenerator | None) -> OverlapKernel:
    """The factor-chain kernel of exp(M2^dag) exp(M1): the adjoints of the
    :func:`_chain_factors` of ``g2`` (None for the identity) in reverse
    order, then those of ``g1``."""
    bra_side = () if g2 is None else _chain_factors(g2)
    return OverlapKernel([f.adjoint for f in reversed(bra_side)] + list(_chain_factors(g1)))


# ---------------------------------------------------------------------------
# the rescue chain
# ---------------------------------------------------------------------------

#: the routes in the order ``method="auto"`` tries them
ROUTES = ("pfaffian", "factor-chain", "epsilon", "cp-magnitude")


def _dispatch(routes: dict, *, method: str) -> tuple:
    """Choose a route of the rescue chain over ``routes``, an ordered
    mapping from route names to thunks; returns ``(answer, route)``.

    The overlaps pass all of :data:`ROUTES`; the correlators, which need a
    signed value, pass the first two.  The ``"pfaffian"`` and
    ``"factor-chain"`` thunks build the kernel of the pair's product and of
    its factor chain (anything with ``rcond``, ``sign_certain``, ``branch``
    and ``k``), an answer that the caller evaluates; the ``"epsilon"`` and
    ``"cp-magnitude"`` thunks return their route's :class:`OverlapResult`,
    the answer itself, whose ``route`` becomes the whole list.

    ``method="auto"`` tries the routes in order and accepts the Pfaffian
    only with a certain sign; a route name forces that route alone, which
    then accepts whatever sign it finds.  Every attempt is recorded in
    ``route``, the rejected ones before the accepted one: the route name,
    whether it was accepted, on rejection the ``reason``, and the data that
    decided it.  The Pfaffian records its ``rcond``, ``sign_certain`` and
    the ``branch`` of det(T22)^(1/2); the factor chain its number of
    ``factors`` and their smallest ``rcond``, or on rejection the reason
    ``"rcond"`` (a factor's T22 is singular even after the split into
    halves) or ``"branch"`` (no continuity path fixes a factor's root, with
    that factor's ``abs_det``); the epsilon route its ``eps_schedule``,
    ``eps_seed`` and ``eps_disagreement``; the cp-magnitude route its
    ``cp_sites`` and ``rcond``, or on rejection, as ``rcond_bound``, the
    bound that :func:`overlap_magnitude_cp` puts on the rcond of every
    permuted T22.  Any :class:`LinalgError` rejects its route; one that none
    of these names has the reason ``"numerical"`` and its ``message``.  When
    every route fails, the last route's error is raised with the same list
    attached as ``.route``.
    """
    if method != "auto" and method not in routes:
        raise ValueError(f"unknown method {method!r}; expected 'auto' or one of {tuple(routes)}")
    names = list(routes) if method == "auto" else [method]
    tried: list[dict] = []
    for name in names:
        try:
            res = routes[name]()     # a kernel, or epsilon's and cp's result
        except LinalgError as exc:
            if isinstance(exc, ExtrapolationError):
                d = exc.disagreement
                why = {"reason": "eps_disagreement",
                       "eps_disagreement": float(d) if np.isfinite(d) else None}
            elif isinstance(exc, UnfixedBranchError):
                why = {"reason": "branch", "abs_det": exc.abs_det}
            elif not isinstance(exc, SingularBlockError):
                why = {"reason": "numerical", "message": str(exc)}
            elif name == "cp-magnitude":
                why = {"reason": "cp_sites", "cp_sites": None, "rcond_bound": exc.rcond}
            else:
                why = {"reason": "rcond", "rcond": exc.rcond}
            tried.append({"route": name, "accepted": False, **why})
            if name == names[-1]:
                exc.route = tried
                raise
            continue
        if isinstance(res, OverlapResult):
            res.route = tried + res.route
            return res, res.route
        why = ({"rcond": res.rcond, "sign_certain": res.sign_certain, "branch": res.branch}
               if name == "pfaffian" else {"factors": res.k, "rcond": res.rcond})
        if not res.sign_certain and name == "pfaffian" and len(names) > 1:
            tried.append({"route": name, "accepted": False, "reason": "sign_certain", **why})
            continue
        return res, tried + [{"route": name, "accepted": True, **why}]


def _pair_overlap(g1: QuadraticGenerator, g2: QuadraticGenerator | None,
                  bra: FockConfig, ket: FockConfig, method: str) -> OverlapResult:
    """<J| exp(M2^dag) exp(M1) |I> through the rescue chain.

    ``g1`` and ``g2`` are the ket and bra generators (``g2`` None for the
    identity).  The pair's :func:`_product` is formed once, or refused once
    by the rule of :func:`~fermigauss.linalg.remember`, for the Pfaffian and
    the magnitude routes; the factor chain is :func:`_chain_kernel`; the
    epsilon route, built here alone, perturbs ``g1``.  An odd total
    occupation is an exact zero, with an empty ``route``.
    """
    if not (bra.L == ket.L == g1.L == (g1.L if g2 is None else g2.L)):
        raise ValueError("inconsistent site counts")
    if (bra.n_occupied + ket.n_occupied) % 2:
        return OverlapResult(complex(0.0), "pfaffian", True)
    product = functools.partial(remember, {}, "product", lambda: _product(g1, g2))
    answer, route = _dispatch(dict(zip(ROUTES, (
        lambda: _pair_kernel(g1, g2, product()),
        lambda: _chain_kernel(g1, g2),
        lambda: _epsilon_extrapolate(lambda eps, g: _pair_kernel(
            QuadraticGenerator(g1.m + eps * g.m), g2).element(bra, ket), g1.L),
        lambda: overlap_magnitude_cp(product(), bra, ket)))), method=method)
    if isinstance(answer, OverlapResult):
        return answer
    return OverlapResult(answer.element(bra, ket), route[-1]["route"], answer.sign_certain, route)


def _require_generators(*ops) -> None:
    """Refuse anything but generators: a transfer matrix fixes its Fock
    operator only up to sign, so it has no signed overlap."""
    for op in ops:
        if not isinstance(op, QuadraticGenerator):
            raise TypeError(f"expected a QuadraticGenerator, got {type(op).__name__}; a transfer "
                            "fixes its operator only up to sign, and overlap_magnitude_cp "
                            "gives the magnitude")


def overlap(composed: QuadraticGenerator, bra: FockConfig, ket: FockConfig, *,
            method: str = "auto") -> OverlapResult:
    """<J| F |I> for an already-composed quadratic operator.

    ``composed`` is the generator M (with exp(M2^dag) exp(M1) = exp(M)).  A
    transfer matrix raises TypeError: it fixes F only up to sign, and
    :func:`overlap_magnitude_cp` gives its magnitude.  ``method="auto"``
    uses the Pfaffian formula when T22 is invertible, then falls back to
    the factor chain, to the perturbative continuation and finally to the
    permutation magnitude.  Forced methods: ``"pfaffian"``,
    ``"factor-chain"``, ``"epsilon"``, ``"cp-magnitude"``.
    """
    _require_generators(composed)
    return _pair_overlap(composed, None, bra, ket, method)


def state_overlap(op1: QuadraticGenerator, op2: QuadraticGenerator, bra: FockConfig,
                  ket: FockConfig, *, method: str = "auto") -> OverlapResult:
    """<M2(J)|M1(I)> for two quadratic generators.

    Takes the same inputs and methods as :func:`overlap`.  The sign is
    tracked, and the perturbative fallback perturbs the ket-side generator.
    """
    _require_generators(op1, op2)
    return _pair_overlap(op1, op2, bra, ket, method)


@functools.lru_cache(maxsize=None)
def epsilon_direction(L: int) -> QuadraticGenerator:
    """The perturbation direction G of the epsilon route on L sites: a random
    admissible generator drawn from :data:`EPS_SEED`, once per L."""
    return random_generator(L, EPS_SEED, scale=1.0)


def _epsilon_extrapolate(value_at, L: int) -> OverlapResult:
    """Quadratic Richardson extrapolation of ``value_at(eps, G)`` to eps -> 0.

    G is :func:`epsilon_direction`, which generically restores the
    invertibility of T22.  The two-point :data:`EPS_SCHEDULE` is augmented
    with one halved point; the convergence diagnostic compares the linear
    extrapolations of successive pairs and fails loudly when they disagree
    beyond EPS_AGREE_TOL.  The result's ``route`` is its one accepted
    ``"epsilon"`` entry, with the ``eps_schedule``, the ``eps_seed`` of G
    and the ``eps_disagreement``.
    """
    g = epsilon_direction(L)
    e1, e2 = float(EPS_SCHEDULE[0]), float(EPS_SCHEDULE[1])
    e3 = 0.5 * e2
    eps = (e1, e2, e3)
    vals = [complex(value_at(e, g)) for e in eps]
    r12 = (e1 * vals[1] - e2 * vals[0]) / (e1 - e2)
    r23 = (e2 * vals[2] - e3 * vals[1]) / (e2 - e3)
    # quadratic (three-point Lagrange) extrapolation to eps = 0
    val = complex(
        vals[0] * (eps[1] * eps[2]) / ((eps[0] - eps[1]) * (eps[0] - eps[2]))
        + vals[1] * (eps[0] * eps[2]) / ((eps[1] - eps[0]) * (eps[1] - eps[2]))
        + vals[2] * (eps[0] * eps[1]) / ((eps[2] - eps[0]) * (eps[2] - eps[1]))
    )
    disagreement = abs(r23 - r12) / max(1.0, abs(val))
    if disagreement > EPS_AGREE_TOL:
        raise ExtrapolationError(disagreement)
    return OverlapResult(val, "epsilon-regularized", True, [
        {"route": "epsilon", "accepted": True, "eps_schedule": eps, "eps_seed": EPS_SEED,
         "eps_disagreement": disagreement}])


def overlap_magnitude_cp(t: TransferMatrix, bra: FockConfig, ket: FockConfig) -> OverlapResult:
    """|<J| F |I>| through a particle-hole permutation, F having the
    transfer matrix ``t`` (anything else raises TypeError).

    Applies the first site subset S, in :func:`cp_scan` order, that makes
    the permuted T22 invertible (the search stops there), exchanges
    occupations 0 <-> 1 on S in both configurations and evaluates the
    permuted overlap.  The sign is genuinely ambiguous in this picture, so
    the magnitude is returned with ``sign_certain=False``.  The result's
    ``route`` is its one accepted ``"cp-magnitude"`` entry, with the
    ``cp_sites`` S and the permuted T22's ``rcond``.

    When no subset restores invertibility, the :class:`SingularBlockError`
    carries as its ``rcond`` an upper bound on the rcond of every permuted
    T22: min(1, ceiling / floor), where the ceiling s_L + c eps s_1
    (c = 8L) of one SVD of T bounds their smallest singular value, rounding
    of that SVD included, and the floor from the magnitudes of T bounds
    their largest one from below.
    """
    if not isinstance(t, TransferMatrix):
        raise TypeError(f"overlap_magnitude_cp takes a TransferMatrix, got {type(t).__name__}")
    found = cp_suggestions(t, limit=1)
    if not found:
        raise SingularBlockError(
            "no site subset restores invertibility; unsupported instance",
            _t22_rcond_bound(t)[0],
        )
    sites = found[0]
    kern = OverlapKernel([bbd_normal(cp_apply_transfer(t, sites))])
    val = kern.element(bra.flipped(sites), ket.flipped(sites))
    return OverlapResult(complex(abs(val)), "cp-magnitude", False, [
        {"route": "cp-magnitude", "accepted": True, "cp_sites": sites, "rcond": kern.rcond}])


# ---------------------------------------------------------------------------
# overlaps of states generated by operators with linear parts
# ---------------------------------------------------------------------------

def generalized_overlap(op1: LinearGaussianOp, op2: LinearGaussianOp,
                        bra: FockConfig, ket: FockConfig, *,
                        method: str = "auto") -> OverlapResult:
    """<(M2,u2,v2)(J) | (M1,u1,v1)(I)> via the ancilla embedding.

    Takes the same methods as :func:`overlap`, on the embedded generators
    (the perturbative fallback perturbs the ket's).  The bra ancilla is
    always empty; the ket ancilla carries the parity mismatch of the two
    configurations, so the embedded pair has an even total occupation:
    opposite-parity overlaps are generally nonzero once linear terms are
    present.  Two quadratic operators (u = v = 0) conserve parity, so their
    ket ancilla stays empty, and an opposite-parity pair is the exact
    parity zero of the quadratic overlaps, for every method.
    """
    ket_anc = int(bra.parity != ket.parity and not (op1.is_quadratic and op2.is_quadratic))
    return _pair_overlap(embed(op1), embed(op2), bra.with_ancilla(0), ket.with_ancilla(ket_anc),
                         method)


# ---------------------------------------------------------------------------
# pair states  exp((1/2) c^dag R c^dag + u^dag c^dag) |0>
# ---------------------------------------------------------------------------

def _pair_state(r: np.ndarray, u) -> FactoredGaussian:
    """|psi(R, u)> = F|0>, F one factor on L + 1 sites with the ancilla last:
    X = [[R, conj u], [-conj u^T, 0]], e^Y = I, Z = 0 and p = 1."""
    r = check_skew(np.asarray(r, dtype=complex), name="R")
    L = r.shape[0]
    uc = np.zeros(L) if u is None else np.asarray(u, dtype=complex).conj()
    if uc.shape != (L,):
        raise ValueError(f"u must have length {L}, got shape {uc.shape}")
    x = np.block([[r, uc[:, None]], [-uc, 0.0]])
    return FactoredGaussian("normal", x, np.eye(L + 1), np.zeros_like(x), 1.0)


def pair_state_amplitude(r: np.ndarray, u, cfg: FockConfig) -> complex:
    """<J | exp((1/2) c^dag R c^dag + u^dag c^dag) |0> (``u`` None for 0): the
    state's factor between J, the ancilla occupied when J is odd, and |0>."""
    bra = FockConfig(cfg.bits + (cfg.n_occupied % 2,))
    return OverlapKernel([_pair_state(r, u)]).element(bra, FockConfig.vacuum(cfg.L + 1))


def pair_state_overlap(r0: np.ndarray, u0, r1: np.ndarray, u1, op=None) -> complex:
    """<psi(R0, u0)| F |psi(R1, u1)>, F = exp(M) of the generator ``op`` or
    the identity for None: one kernel over F0^dag, F's :func:`_chain_factors`
    (raising as the factor chain's do) with an idle ancilla, and F1, between
    vacua, where both ancilla sectors, so both parities of the states, add.
    ``op`` keeps its padded generator, so a repeated ``op`` is exponentiated
    once.  Any other ``op`` raises TypeError: linear parts would need a
    second ancilla."""
    if not (op is None or isinstance(op, QuadraticGenerator)):
        raise TypeError(f"op must be a QuadraticGenerator or None, got {type(op).__name__}")
    f0, f1 = _pair_state(r0, u0), _pair_state(r1, u1)
    n = len(f1.x)
    if len(f0.x) != n or not (op is None or op.L + 1 == n):
        raise ValueError("site counts differ")
    chain = ()
    if op is not None:
        def padded():
            m = np.zeros((2 * n, 2 * n), dtype=complex)
            idle = np.r_[:n - 1, n:2 * n - 1]    # every row but the ancilla's two
            m[np.ix_(idle, idle)] = op.m
            return QuadraticGenerator(m)

        chain = _chain_factors(remember(op.__dict__, "_padded", padded))
    return OverlapKernel([f0.adjoint, *chain, f1]).element(*[FockConfig.vacuum(n)] * 2)


def pair_state_norm(r: np.ndarray, u) -> float:
    """<psi|psi> of the (unnormalized) pair state: the real part of its
    :func:`pair_state_overlap` with itself."""
    return float(pair_state_overlap(r, u, r, u).real)
