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
``exp(M'^dag)`` are computed once per operator object.

Provided here: the embedding, the five-factor factorization

    F = exp(q.c^dag) exp((1/2) c^dag X c^dag) exp(c^dag Y c - tr(Y)/2)
        exp((1/2) c Z c) exp(p.c),

the closed-form single-mode orderings, and the nonlinear canonical
transformation describing ``F^-1 c F`` (linear + quadratic + constant).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import RCOND_TOL, SKEW_TOL, MatrixLogBranchError, mat_log
from .quadratic import (
    QuadraticGenerator,
    TransferMatrix,
    _normal_factors,
    _principal_y,
    _read_only,
    admissibility_defect,
    transfer_of,
)

#: tolerance for the structural redundancy checks on the extended transfer
STRUCTURE_TOL = 1e-10


def _embedding(op: "LinearGaussianOp") -> QuadraticGenerator:
    """The enlarged generator M' of ``op``; :func:`embed` documents its layout."""
    L = op.L
    n = L + 1
    mp = np.zeros((2 * n, 2 * n), dtype=complex)
    m11 = op.m[:L, :L]
    m12 = op.m[:L, L:]
    m21 = op.m[L:, :L]
    m22 = op.m[L:, L:]
    uc = op.u.conj()
    mp[0, 1:n] = op.v
    mp[0, n + 1:] = uc
    mp[1:n, 0] = uc
    mp[1:n, 1:n] = m11
    mp[1:n, n] = -uc
    mp[1:n, n + 1:] = m12
    mp[n, 1:n] = -op.v
    mp[n, n + 1:] = -uc
    mp[n + 1:, 0] = op.v
    mp[n + 1:, 1:n] = m21
    mp[n + 1:, n] = -op.v
    mp[n + 1:, n + 1:] = m22
    return QuadraticGenerator(mp)


@dataclass(frozen=True)
class LinearGaussianOp:
    """Gaussian operator data (M, u, v).

    The exponent is ``(1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c``,
    i.e. ``conj(u_j)`` multiplies ``c_j^dag`` and ``v_j`` multiplies ``c_j``.

    ``m``, ``u`` and ``v`` are read-only views of the arrays passed in, not
    copies, so the caller must not mutate those arrays afterwards.  The
    enlarged generator (see :func:`embed`) is built on first use and cached
    on the instance, together with its exponentials.
    """

    m: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        L = m.shape[0] // 2
        u = np.zeros(L, dtype=complex) if self.u is None else np.asarray(self.u, dtype=complex)
        v = np.zeros(L, dtype=complex) if self.v is None else np.asarray(self.v, dtype=complex)
        if m.ndim != 2 or m.shape != (2 * L, 2 * L):
            raise ValueError(f"M must be 2L x 2L, got {m.shape}")
        if u.shape != (L,) or v.shape != (L,):
            raise ValueError(f"u, v must have length {L}, got {u.shape}, {v.shape}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite entries in (M, u, v)")
        d = admissibility_defect(m)
        if d > SKEW_TOL:
            raise ValueError(f"J.M is not antisymmetric (defect {d:.3e})")
        object.__setattr__(self, "m", _read_only(m))
        object.__setattr__(self, "u", _read_only(u))
        object.__setattr__(self, "v", _read_only(v))

    _embedded = functools.cached_property(_embedding)

    @classmethod
    def quadratic(cls, gen: QuadraticGenerator) -> "LinearGaussianOp":
        return cls(gen.m, None, None)

    @classmethod
    def zero(cls, L: int) -> "LinearGaussianOp":
        return cls(np.zeros((2 * L, 2 * L), dtype=complex), None, None)

    @property
    def L(self) -> int:
        return self.m.shape[0] // 2

    @property
    def is_quadratic(self) -> bool:
        return not (np.any(self.u) or np.any(self.v))

    def dagger(self) -> "LinearGaussianOp":
        """Adjoint operator: (M, u, v) -> (M^dag, v, u)."""
        return LinearGaussianOp(self.m.conj().T, self.v, self.u)


def embed(op: LinearGaussianOp) -> QuadraticGenerator:
    """Enlarged generator M' on L+1 sites (ancilla first), cached on ``op``.

    Index order is ``(c0^dag, c1^dag, ..., cL^dag, c0, c1, ..., cL)`` on rows
    and the matching ``(c0, ..., cL, c0^dag, ..., cL^dag)`` on columns.  The
    linear coefficient vectors sit on the ancilla border rows/columns; for
    u = v = 0 the borders vanish and the quadratic blocks reproduce M.
    The generator is built on the first call and the same object is
    returned on every later one, so exp(M') and exp(M'^dag) are computed
    once per operator object.
    """
    return op._embedded


def extract_op(gen: QuadraticGenerator, tol: float = STRUCTURE_TOL) -> LinearGaussianOp:
    """Inverse of :func:`embed`: read (M, u, v) off an enlarged generator.

    The border vectors occur twice with opposite signs; they are averaged
    and their mutual consistency is enforced to ``tol``.
    """
    n = gen.L
    L = n - 1
    mp = gen.m
    scale = max(1.0, float(np.max(np.abs(mp))))
    pairs = [
        (mp[0, 1:n], -mp[n, 1:n]),          # v on rows
        (mp[n + 1:, 0], -mp[n + 1:, n]),    # v on columns
        (mp[0, n + 1:], -mp[n, n + 1:]),    # u* on rows
        (mp[1:n, 0], -mp[1:n, n]),          # u* on columns
    ]
    for a, b in pairs:
        if np.max(np.abs(a - b), initial=0.0) > tol * scale:
            raise ValueError("enlarged generator lacks the ancilla border redundancy")
    corners = np.array([mp[0, 0], mp[0, n], mp[n, 0], mp[n, n]])
    if np.max(np.abs(corners)) > tol * scale:
        raise ValueError("enlarged generator has nonzero ancilla corners")
    v = 0.25 * (mp[0, 1:n] - mp[n, 1:n]) + 0.25 * (mp[n + 1:, 0] - mp[n + 1:, n])
    uc = 0.25 * (mp[0, n + 1:] - mp[n, n + 1:]) + 0.25 * (mp[1:n, 0] - mp[1:n, n])
    m = np.block([
        [mp[1:n, 1:n], mp[1:n, n + 1:]],
        [mp[n + 1:, 1:n], mp[n + 1:, n + 1:]],
    ])
    return LinearGaussianOp(m, uc.conj(), v)


@dataclass(frozen=True)
class ExtendedTransferParts:
    """Decomposition of the transfer matrix of an embedded operator.

    The extended ``T' = exp(M')`` carries each border vector and the corner
    scalar in several redundant positions; they are averaged here and the
    mutual consistency defect is recorded (and bounded by ``tol``).
    """

    t11_scalar: complex
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t4: np.ndarray
    t_quad: np.ndarray  # 2L x 2L physical-block transfer (T11 T12; T21 T22)
    defect: float

    @property
    def L(self) -> int:
        return self.t_quad.shape[0] // 2

    @property
    def q11(self) -> np.ndarray:
        return self.t_quad[: self.L, : self.L]

    @property
    def q12(self) -> np.ndarray:
        return self.t_quad[: self.L, self.L:]

    @property
    def q21(self) -> np.ndarray:
        return self.t_quad[self.L:, : self.L]

    @property
    def q22(self) -> np.ndarray:
        return self.t_quad[self.L:, self.L:]


def split_extended_transfer(tp: TransferMatrix, tol: float = STRUCTURE_TOL) -> ExtendedTransferParts:
    """Extract the corner scalar, border vectors and physical blocks of T'.

    Expected layout (rows = images of (c0, c, c0^dag, c^dag)):

        [[1 + t11,  t1^T,   -t11,    t2^T ],
         [t3,       T11,    -t3,     T12  ],
         [-t11,     -t1^T,  1 + t11, -t2^T],
         [t4,       T21,    -t4,     T22  ]]
    """
    n = tp.L
    L = n - 1
    t = tp.t
    scale = max(1.0, float(np.max(np.abs(t))))

    def avg(versions):
        versions = [np.asarray(x) for x in versions]
        mean = sum(versions) / len(versions)
        d = max(float(np.max(np.abs(x - mean), initial=0.0)) for x in versions)
        return mean, d

    t11s, d0 = avg([t[0, 0] - 1.0, -t[0, n], -t[n, 0], t[n, n] - 1.0])
    t1, d1 = avg([t[0, 1:n], -t[n, 1:n]])
    t2, d2 = avg([t[0, n + 1:], -t[n, n + 1:]])
    t3, d3 = avg([t[1:n, 0], -t[1:n, n]])
    t4, d4 = avg([t[n + 1:, 0], -t[n + 1:, n]])
    defect = max(d0, d1, d2, d3, d4) / scale
    if defect > tol:
        raise ValueError(
            f"extended transfer lacks the corner/border redundancy (defect {defect:.3e})"
        )
    t_quad = np.block([
        [t[1:n, 1:n], t[1:n, n + 1:]],
        [t[n + 1:, 1:n], t[n + 1:, n + 1:]],
    ])
    return ExtendedTransferParts(complex(t11s), t1, t2, t3, t4, t_quad, defect)


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


def generalized_bbd_from_transfer(tp: TransferMatrix,
                                  rcond_tol: float = RCOND_TOL) -> GeneralizedFactored:
    """Five-factor data from an (already composed) extended transfer matrix.

    The normal factorization of the physical blocks, with the rank-one
    corrections of the linear factors subtracted from X and Z.
    """
    parts = split_extended_transfer(tp)
    fac = _normal_factors(parts.q12, parts.q21, parts.q22, rcond_tol)
    q = fac.exp_y @ parts.t2      # row vector t2^T T22^-1, stored as 1-D
    p = fac.exp_y.T @ parts.t4    # T22^-1 t4
    return GeneralizedFactored(q, fac.x - np.outer(q, q), fac.exp_y, fac.z - np.outer(p, p), p,
                               fac.prefactor, fac.sign_certain, fac.rcond)


def generalized_bbd(op: LinearGaussianOp, rcond_tol: float = RCOND_TOL) -> GeneralizedFactored:
    """Five-factor decomposition of a single operator (M, u, v)."""
    return generalized_bbd_from_transfer(transfer_of(embed(op)), rcond_tol)


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
    generator_available: bool


def compose_linear(op1: LinearGaussianOp, op2: LinearGaussianOp) -> LinearComposeResult:
    """Product F_1 F_2 through the embedding: exp(M1') exp(M2') = exp(M').

    The extended transfer product is exact; the composed (M, u, v) is
    recovered from the principal log of the product when it exists and
    passes the checks of :class:`QuadraticGenerator` and
    :class:`LinearGaussianOp`; a log accurate only to about 1e-10 or worse
    can fail them, and then no generator is returned either.
    """
    if op1.L != op2.L:
        raise ValueError(f"site counts differ: {op1.L} vs {op2.L}")
    t1 = transfer_of(embed(op1))
    t2 = transfer_of(embed(op2))
    tp = TransferMatrix(t1.t @ t2.t)
    try:
        mp = mat_log(tp.t)
    except MatrixLogBranchError:
        return LinearComposeResult(tp, None, False)
    try:
        op = extract_op(QuadraticGenerator(mp))
    except ValueError:
        return LinearComposeResult(tp, None, False)
    return LinearComposeResult(tp, op, True)


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


def single_mode_factor_matrix(factors: SingleModeFactors) -> np.ndarray:
    """Dense 2x2 product of the three factors (ordered left to right)."""
    al, be, ga = factors.alpha, factors.beta, factors.gamma
    mats = {
        "A": np.array([[1.0, 0.0], [al, 1.0]], dtype=complex),
        "B": np.array([[1.0, be], [0.0, 1.0]], dtype=complex),
        "D": np.array([[np.exp(-ga / 2.0), 0.0], [0.0, np.exp(ga / 2.0)]], dtype=complex),
    }
    out = np.eye(2, dtype=complex)
    for name in factors.order:
        out = out @ mats[name]
    return out


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
    parts: ExtendedTransferParts


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
    L = parts.L
    s = 1.0 + 2.0 * parts.t11_scalar
    t34 = np.concatenate([parts.t3, parts.t4])
    t12 = np.concatenate([parts.t1, parts.t2])
    tp = s * parts.t_quad - 2.0 * np.outer(t34, t12)
    shift = s * t34
    t21_stack = np.concatenate([parts.t2, parts.t1])
    b = np.empty((L, 2 * L, 2 * L), dtype=complex)
    b_bar = np.empty((L, 2 * L, 2 * L), dtype=complex)
    for mu in range(L):
        row_c = np.concatenate([parts.q11[mu, :], parts.q12[mu, :]])
        row_cd = np.concatenate([parts.q21[mu, :], parts.q22[mu, :]])
        b[mu] = -4.0 * np.outer(t21_stack, row_c)
        b_bar[mu] = -4.0 * np.outer(t21_stack, row_cd)
    return NonlinearTransform(tp, b, b_bar, shift, parts)
