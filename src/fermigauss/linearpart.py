"""Gaussian operators with linear terms.

The operator ``F = exp((1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c)``
is handled by adjoining one ancillary site (index 0) through the
substitution ``c_j -> c0^dag c_j - c0 c_j``, ``c_j^dag -> c_j^dag c0 -
c_j^dag c0^dag``, which turns the linear terms into quadratic ones.  The
enlarged generator acts on L+1 sites and all quadratic machinery applies;
physics on the original chain is recovered on the subspace spanned by the
symmetric ancilla combinations ``(|0,n> + |1,n>)/sqrt(2)``.

A :class:`LinearGaussianOp` holds read-only views of (M, u, v) and builds
its enlarged generator on first use: :func:`embed` returns that one
:class:`QuadraticGenerator` on every call, so its cached ``exp(M')`` and
``exp(M'^dag)`` are computed once per operator object, and its five-factor
data are kept by the caching rule of :func:`~fermigauss.linalg.remember`.

Provided here: the embedding (one index map and one border reader serve
M', ``T' = exp(M')`` and their inverses), the five-factor factorization

    F = exp(q.c^dag) exp((1/2) c^dag X c^dag) exp(c^dag Y c - tr(Y)/2)
        exp((1/2) c Z c) exp(p.c),

the closed-form single-mode orderings, and the nonlinear canonical
transformation describing ``F^-1 c F`` (linear + quadratic + constant).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import MatrixLogBranchError, MatrixLogError, mat_log, remember
from .quadratic import (
    QuadraticGenerator,
    TransferMatrix,
    _normal_factors,
    _principal_y,
    _read_only,
    compose_transfers,
    transfer_of,
)

#: tolerance for the structural redundancy checks on the extended transfer
STRUCTURE_TOL = 1e-10


def _chain(n: int) -> np.ndarray:
    """Chain rows (and columns) of a 2n x 2n enlarged matrix: the ancilla is at 0 and n."""
    return np.r_[1:n, n + 1:2 * n]


def _embedding(op: "LinearGaussianOp") -> QuadraticGenerator:
    """The enlarged generator M' of ``op``; :func:`embed` documents its layout."""
    n = op.L + 1
    chain = _chain(n)
    r = np.concatenate([op.v, op.u.conj()])
    c = np.roll(r, op.L)    # (conj(u), v)
    mp = np.zeros((2 * n, 2 * n), dtype=complex)
    mp[np.ix_(chain, chain)] = op.m
    mp[0, chain], mp[n, chain] = r, -r
    mp[chain, 0], mp[chain, n] = c, -c
    return QuadraticGenerator(mp)


def _read_border(a: np.ndarray, corner: float):
    """k, r, c, the chain block and two deviations of ``a``, bordered like M'.

    The border is :func:`embed`'s, the corners ``[[corner + k, -k], [-k,
    corner + k]]``.  k, r and c are means of their copies; the deviations are
    the largest of a copy from its mean, at the corners and on the border.
    """
    n = a.shape[0] // 2
    chain = _chain(n)

    def mean(*copies):
        m = sum(copies) / len(copies)
        return m, max(float(np.max(np.abs(x - m), initial=0.0)) for x in copies)

    k, k_dev = mean(a[0, 0] - corner, -a[0, n], -a[n, 0], a[n, n] - corner)
    r, r_dev = mean(a[0, chain], -a[n, chain])
    c, c_dev = mean(a[chain, 0], -a[chain, n])
    return k, r, c, a[np.ix_(chain, chain)], k_dev, max(r_dev, c_dev)


@dataclass(frozen=True)
class LinearGaussianOp:
    """Gaussian operator data (M, u, v).

    The exponent is ``(1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c``,
    i.e. ``conj(u_j)`` multiplies ``c_j^dag`` and ``v_j`` multiplies ``c_j``.

    ``m``, ``u`` and ``v`` are read-only views of the arrays passed in, not
    copies, so the caller must not mutate those arrays afterwards.
    ``generator`` is M's :class:`QuadraticGenerator`, which checks M.  The
    enlarged generator (see :func:`embed`) is built on first use and cached
    on the instance, together with its exponentials.
    """

    m: np.ndarray
    u: np.ndarray
    v: np.ndarray
    generator: QuadraticGenerator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gen = QuadraticGenerator(self.m)
        L = gen.L
        u = np.zeros(L, dtype=complex) if self.u is None else np.asarray(self.u, dtype=complex)
        v = np.zeros(L, dtype=complex) if self.v is None else np.asarray(self.v, dtype=complex)
        if u.shape != (L,) or v.shape != (L,):
            raise ValueError(f"u, v must have length {L}, got {u.shape}, {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite entries in (u, v)")
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "m", gen.m)
        object.__setattr__(self, "u", _read_only(u))
        object.__setattr__(self, "v", _read_only(v))

    _embedded = functools.cached_property(_embedding)

    @classmethod
    def quadratic(cls, gen: QuadraticGenerator) -> "LinearGaussianOp":
        """``gen`` with u = v = 0: one operator per generator object, kept on it."""
        return remember(gen.__dict__, "_linear", lambda: cls(gen.m, None, None))

    @classmethod
    def zero(cls, L: int) -> "LinearGaussianOp":
        return cls(np.zeros((2 * L, 2 * L), dtype=complex), None, None)

    @property
    def L(self) -> int:
        return self.m.shape[0] // 2

    @property
    def is_quadratic(self) -> bool:
        return not (np.any(self.u) or np.any(self.v))


def embed(op: LinearGaussianOp) -> QuadraticGenerator:
    """Enlarged generator M' on L+1 sites (ancilla first), cached on ``op``.

    Index order is ``(c0^dag, c1^dag, ..., cL^dag, c0, c1, ..., cL)`` on rows
    and the matching ``(c0, ..., cL, c0^dag, ..., cL^dag)`` on columns.  The
    ancilla is at 0 and n = L + 1: row 0 holds r = (v, conj(u)), row n -r,
    column 0 c = (conj(u), v), column n -c; the corners are 0, the rest is M.
    The generator is built on the first call and the same object is
    returned on every later one, so exp(M') and exp(M'^dag) are computed
    once per operator object.
    """
    return op._embedded


def extract_op(gen: QuadraticGenerator) -> LinearGaussianOp:
    """Inverse of :func:`embed`: read (M, u, v) off an enlarged generator.

    The border vectors occur twice with opposite signs; they are averaged
    and their mutual consistency is enforced to :data:`STRUCTURE_TOL`.
    """
    n = gen.L
    scale = max(1.0, float(np.max(np.abs(gen.m))))
    _, r, c, m, _, dev = _read_border(gen.m, 0.0)
    if 2.0 * dev > STRUCTURE_TOL * scale:     # the two copies differ by 2 dev
        raise ValueError("enlarged generator lacks the ancilla border redundancy")
    if np.max(np.abs(gen.m[np.ix_([0, n], [0, n])])) > STRUCTURE_TOL * scale:
        raise ValueError("enlarged generator has nonzero ancilla corners")
    v, uc = np.split((r + np.roll(c, n - 1)) / 2, 2)
    return LinearGaussianOp(m, uc.conj(), v)


@dataclass(frozen=True)
class ExtendedTransferParts:
    """Decomposition of the transfer matrix of an embedded operator.

    The extended ``T' = exp(M')`` carries each border vector and the corner
    scalar in several redundant positions; they are averaged here and the
    mutual consistency defect is recorded (and bounded by :data:`STRUCTURE_TOL`).
    """

    t11_scalar: complex
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t_quad: np.ndarray  # 2L x 2L physical-block transfer (T11 T12; T21 T22)
    defect: float


def split_extended_transfer(tp: TransferMatrix) -> ExtendedTransferParts:
    """Extract the corner scalar, border vectors and physical blocks of T'.

    Expected layout (rows = images of (c0, c, c0^dag, c^dag)):

        [[1 + t11,  t1^T,   -t11,    t2^T ],
         [t3,       T11,    -t3,     T12  ],
         [-t11,     -t1^T,  1 + t11, -t2^T],
         [t4,       T21,    -t4,     T22  ]]
    """
    scale = max(1.0, float(np.max(np.abs(tp.t))))
    t11s, r, c, t_quad, k_dev, dev = _read_border(tp.t, 1.0)
    defect = max(k_dev, dev) / scale
    if defect > STRUCTURE_TOL:
        raise ValueError(
            f"extended transfer lacks the corner/border redundancy (defect {defect:.3e})"
        )
    return ExtendedTransferParts(complex(t11s), *np.split(r, 2), *np.split(c, 2), t_quad, defect)


@dataclass(frozen=True)
class GeneralizedFactored:
    """Five-factor decomposition of a Gaussian operator with linear parts.

    Factor order is fixed as

        exp(sum_j q_j c_j^dag) exp((1/2) c^dag X c^dag)
        exp(c^dag Y c - tr(Y)/2) exp((1/2) c Z c) exp(sum_j p_j c_j),

    i.e. ``q`` and ``p`` hold the linear coefficients of the outer factors
    directly.  ``prefactor = exp(-tr(Y)/2)``.  At u = v = 0 the vectors
    vanish and (X, Y, Z) reduce to the plain quadratic factorization.
    """

    q: np.ndarray
    x: np.ndarray
    exp_y: np.ndarray
    z: np.ndarray
    p: np.ndarray
    prefactor: complex
    sign_certain: bool = True
    rcond: float = 1.0

    y = functools.cached_property(_principal_y)


def generalized_bbd_from_transfer(tp: TransferMatrix) -> GeneralizedFactored:
    """Five-factor data from an (already composed) extended transfer matrix.

    The normal factorization of the physical blocks, with the rank-one
    corrections of the linear factors subtracted from X and Z.  Computed
    once per transfer object and kept on ``tp``, like
    :func:`~fermigauss.quadratic.bbd_normal`, or its refusal is.
    """
    def factorize():
        parts = split_extended_transfer(tp)
        tq, L = parts.t_quad, tp.L - 1
        fac = _normal_factors(tq[:L, L:], tq[L:, :L], tq[L:, L:])
        q = fac.exp_y @ parts.t2      # row vector t2^T T22^-1, stored as 1-D
        p = fac.exp_y.T @ parts.t4    # T22^-1 t4
        arrays = (q, fac.x - np.outer(q, q), fac.exp_y, fac.z - np.outer(p, p), p)
        return GeneralizedFactored(*map(_read_only, arrays),
                                   fac.prefactor, fac.sign_certain, fac.rcond)

    return remember(tp.__dict__, "_generalized", factorize)


def generalized_bbd(op: LinearGaussianOp) -> GeneralizedFactored:
    """Five-factor decomposition of a single operator (M, u, v).

    The embedded transfer is one object per operator, so this is computed
    once per operator object and the same result is returned after.
    """
    return generalized_bbd_from_transfer(transfer_of(embed(op)))


def factors_as_ops(f: GeneralizedFactored):
    """The five factors as LinearGaussianOp values (for reassembly checks)."""
    L = f.q.shape[0]
    if f.y is None:
        raise MatrixLogBranchError("number factor has no generator (log branch)")
    zero = np.zeros((L, L), dtype=complex)

    def quad(m11, m12, m21):
        m = np.block([[m11, m12], [m21, -m11.T]])
        return LinearGaussianOp(m, None, None)

    return [
        LinearGaussianOp(np.zeros((2 * L, 2 * L)), f.q.conj(), None),  # exp(q.c^dag)
        quad(zero, f.x, zero),
        quad(f.y, zero, zero),
        quad(zero, zero, f.z),
        LinearGaussianOp(np.zeros((2 * L, 2 * L)), None, f.p),        # exp(p.c)
    ]


# ---------------------------------------------------------------------------
# composition with linear parts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearComposeResult:
    transfer: TransferMatrix          # extended (L+1)-site transfer
    op: LinearGaussianOp | None       # composed (M, u, v) when a valid principal log exists


def compose_linear(op1: LinearGaussianOp, op2: LinearGaussianOp) -> LinearComposeResult:
    """Product F_1 F_2 through the embedding: exp(M1') exp(M2') = exp(M').

    The extended transfer product is exact; the composed (M, u, v) is
    recovered from the principal log of the product when it exists and
    passes the checks of :class:`QuadraticGenerator` and
    :class:`LinearGaussianOp`; a log accurate only to about 1e-10 or worse
    can fail them, as can one that scipy flags inaccurate
    (:class:`~fermigauss.linalg.MatrixLogError`), and then no generator is
    returned either.  The recovered operator is right only up to sign:
    F_1 F_2 = +-e^{M^'}, since a transfer fixes its operator only up to sign.
    """
    if op1.L != op2.L:
        raise ValueError(f"site counts differ: {op1.L} vs {op2.L}")
    t1 = transfer_of(embed(op1))
    t2 = transfer_of(embed(op2))
    tp = compose_transfers(t1, t2)
    try:
        mp = mat_log(tp.t)
    except MatrixLogError:
        return LinearComposeResult(tp, None)
    try:
        op = extract_op(QuadraticGenerator(mp))
    except ValueError:
        return LinearComposeResult(tp, None)
    return LinearComposeResult(tp, op)


# ---------------------------------------------------------------------------
# single-mode closed forms
# ---------------------------------------------------------------------------

#: factor orderings of the six closed-form types; "A" = exp(alpha c^dag),
#: "B" = exp(beta c), "D" = exp(gamma/2 (2 c^dag c - 1))
SINGLE_MODE_ORDERS = {
    "I": ("A", "D", "B"),
    "II": ("B", "D", "A"),
    "III": ("A", "B", "D"),
    "IV": ("B", "A", "D"),
    "V": ("D", "B", "A"),
    "VI": ("D", "A", "B"),
}


@dataclass(frozen=True)
class SingleModeFactors:
    kind: str
    order: tuple[str, str, str]
    alpha: complex
    beta: complex
    gamma: complex


def _sinhc(x: complex) -> complex:
    """sinh(x)/x with the removable singularity handled by series."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return np.sinh(x) / x


def factor_orderings(a: complex, b: complex, d: complex):
    """All six ordered factorizations of ``exp(a c^dag + b c + (d/2)(2 c^dag c - 1))``.

    Closed forms depend on theta = sqrt(4 a b + d^2)/2 only through even
    functions (cosh, sinh(x)/x), so the square-root branch is immaterial.
    Types I, III and VI share one gamma branch, types II, IV and V the other.
    """
    theta = 0.5 * np.sqrt(complex(4 * a * b + d * d))
    sc = _sinhc(theta)
    ch = np.cosh(theta)
    cm = ch - 0.5 * d * sc   # exp(-gamma/2) for types I, III, VI
    cp = ch + 0.5 * d * sc   # exp(+gamma/2) for types II, IV, V
    gm = -2.0 * np.log(cm)
    gp = 2.0 * np.log(cp)
    out = {
        "I": (gm, a * sc / cm, b * sc / cm),
        "II": (gp, a * sc / cp, b * sc / cp),
        "III": (gm, a * sc / cm, b * sc * cm),
        "IV": (gp, a * sc * cp, b * sc / cp),
        "V": (gp, a * sc / cp, b * sc * cp),
        "VI": (gm, a * sc * cm, b * sc / cm),
    }
    return [
        SingleModeFactors(kind, SINGLE_MODE_ORDERS[kind], al, be, ga)
        for kind, (ga, al, be) in out.items()
    ]


def single_mode_op(a: complex, b: complex, d: complex) -> LinearGaussianOp:
    """The L=1 operator exp(a c^dag + b c + (d/2)(2 c^dag c - 1))."""
    m = np.array([[d, 0.0], [0.0, -d]], dtype=complex)
    return LinearGaussianOp(m, np.array([np.conj(a)]), np.array([b]))


# ---------------------------------------------------------------------------
# nonlinear canonical transformation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearTransform:
    """Image of the mode vector under conjugation by F = F_(M,u,v).

    For each mode index mu (1-based),

        F^-1 c_mu F      = sum_nu Tp[mu-1, nu] phi_nu
                           + (1/2)(c^dag, c) B[mu-1] (c, c^dag)^T
                           + shift[mu-1],
        F^-1 c_mu^dag F  = sum_nu Tp[L+mu-1, nu] phi_nu
                           + (1/2)(c^dag, c) Bbar[mu-1] (c, c^dag)^T
                           + shift[L+mu-1],

    with phi = (c_1..c_L, c_1^dag..c_L^dag).  At u = v = 0 everything but
    ``Tp = T`` vanishes and the transformation is linear canonical.
    """

    tp: np.ndarray        # 2L x 2L
    b: np.ndarray         # (L, 2L, 2L)
    b_bar: np.ndarray     # (L, 2L, 2L)
    shift: np.ndarray     # 2L


def conjugate_modes(op: LinearGaussianOp) -> NonlinearTransform:
    """Nonlinear canonical transformation induced by conjugation with F.

    Derived by conjugating the substituted operators in the extended space
    and projecting back: with s = 1 + 2 t11,

        Tp    = s T - 2 (t3; t4) (t1^T, t2^T),
        shift = s (t3; t4),
        B^mu  = -4 (t2; t1) (T11[mu,:], T12[mu,:])   (outer product),
        Bbar^mu = -4 (t2; t1) (T21[mu,:], T22[mu,:]).

    The row/column placement in the quadratic coefficients was fixed by
    requiring the dense conjugation identity to hold (see tests); note the
    (t2; t1) stacking: t2 multiplies the creation-side rows.
    """
    parts = split_extended_transfer(transfer_of(embed(op)))
    L = op.L
    s = 1.0 + 2.0 * parts.t11_scalar
    t34 = np.concatenate([parts.t3, parts.t4])
    t12 = np.concatenate([parts.t1, parts.t2])
    tp = s * parts.t_quad - 2.0 * np.outer(t34, t12)
    shift = s * t34
    # B^mu[i, j] = -4 (t2; t1)_i rows_mu[j], the operands in np.outer's order
    t21_stack = np.concatenate([parts.t2, parts.t1])[None, :, None]
    b = -4.0 * (t21_stack * parts.t_quad[:L, None, :])
    b_bar = -4.0 * (t21_stack * parts.t_quad[L:, None, :])
    return NonlinearTransform(tp, b, b_bar, shift)
