"""Quadratic fermionic Gaussian operators.

An operator ``F = exp((1/2)(c^dag, c) M (c, c^dag)^T)`` on L sites is
described by its 2L x 2L generator ``M`` (with ``J M`` antisymmetric,
``J = [[0, I], [I, 0]]``) or by its transfer matrix ``T = exp(M)``, which
implements the conjugation ``F^-1 (c, c^dag)^T F = T (c, c^dag)^T`` and
satisfies ``T J T^T = J``.

This module provides composition, the two normal-ordering factorizations
(pairing factor / number factor / pairing factor, in either ordering) and
the particle-hole "canonical permutation" transforms that restore the
factorizations when a diagonal block of ``T`` is singular.

A :class:`QuadraticGenerator` holds a read-only view of its M and
exponentiates it on first use: ``exp(M)``, the transfer matrix that
:func:`transfer_of` returns, is computed once per generator object and
kept on it, read-only, by :func:`~fermigauss.linalg.remember`, whose
docstring states the caching rule.  The steps ``exp(h M)`` of the
sign-continuity path are kept once per exact step length h.  The bra side
of an overlap needs no exponential of its own: its transfer is
``exp(M)^dag``.  A generator that recurs across many overlaps therefore
costs one ``mat_exp`` per quantity, and a 2L x 2L complex matrix of memory
for each.

A :class:`TransferMatrix` holds a read-only view of its T and keeps its
normal factor data, and its particle-hole rcond bound, by the same rule:
:func:`bbd_normal` (and, for an embedded transfer,
:func:`~fermigauss.linearpart.generalized_bbd`) factorizes it once and
returns that result, with read-only arrays, or raises that refusal again.
That is three L x L complex matrices per factorized transfer.

A pivot block counts as invertible, in every factorization, overlap kernel
and particle-hole scan, exactly when its rcond estimate reaches :data:`RCOND_TOL`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import combinations, compress, islice

import numpy as np

from .linalg import (
    SKEW_TOL,
    LinalgError,
    MatrixLogError,
    SingularBlockError,
    mat_exp,
    mat_log,
    rcond_estimate,
    remember,
    skew_defect,
    sqrt_det_via_log,
)

#: relative tolerance on T J T^T = J at construction
J_ORTHO_TOL = 1e-10
#: reciprocal-condition threshold below which a pivot block counts as singular
RCOND_TOL = 1e-12
#: largest L for which the particle-hole scan enumerates every site subset
CP_EXHAUSTIVE_MAX = 20
#: most site subsets whose permuted blocks go through one stacked rcond estimate
CP_CHUNK = 1024


def _j_perm(L: int) -> np.ndarray:
    """The permutation of J: ``J A = A[perm]`` and ``A J = A[:, perm]``, exactly."""
    return np.concatenate([np.arange(L, 2 * L), np.arange(L)])


def admissibility_defect(m: np.ndarray) -> float:
    """Relative antisymmetry defect of ``J M``."""
    m = np.asarray(m, dtype=complex)
    return skew_defect(m[_j_perm(m.shape[0] // 2)])


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; the data is shared, not copied."""
    a = a.view()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class QuadraticGenerator:
    """Generator matrix M of a purely quadratic Gaussian operator.

    ``m`` is a read-only view of the array passed in, not a copy, so the
    caller must not mutate that array afterwards.  exp(M) and the
    continuity steps exp(h M) are computed on first use and cached on the
    instance, read-only; the bra side of an overlap takes their adjoints.
    The factor chain of :mod:`~fermigauss.overlaps` keeps the factor data
    of exp(M), or of its half exp(M/2), and their adjoints on the instance
    as well, or the error that refused them; a pair-state overlap keeps M
    padded with an idle ancilla.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
            raise ValueError(f"M must be square of even dimension, got shape {m.shape}")
        if m.size and not np.all(np.isfinite(m)):
            raise ValueError("M contains non-finite entries")
        d = admissibility_defect(m)
        if d > SKEW_TOL:
            raise ValueError(f"J.M is not antisymmetric (defect {d:.3e})")
        object.__setattr__(self, "m", _read_only(m))

    def _step_exp(self, h: float) -> np.ndarray:
        """exp(h M), one step of the continuity path.  Cached per exact h, read-only."""
        steps = self.__dict__.setdefault("_steps", {})
        if h not in steps:
            steps[h] = _read_only(mat_exp(h * self.m))
        return steps[h]

    @property
    def L(self) -> int:
        return self.m.shape[0] // 2

    @classmethod
    def zero(cls, L: int) -> "QuadraticGenerator":
        return cls(np.zeros((2 * L, 2 * L), dtype=complex))


class JOrthogonalityError(LinalgError, ValueError):
    """A transfer matrix violates T J T^T = J beyond :data:`J_ORTHO_TOL`:
    malformed input, or a product whose rounding has outgrown the check."""


@dataclass(frozen=True)
class TransferMatrix:
    """Transfer matrix ``T = exp(M)`` with certified J-orthogonality.

    ``t`` is a read-only view of the array passed in, not a copy, so the
    caller must not mutate that array afterwards.  The normal factor data
    of :func:`bbd_normal` and of
    :func:`~fermigauss.linearpart.generalized_bbd_from_transfer` is
    computed once and kept on the instance, read-only, or its refusal is.
    """

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2:
            raise ValueError(f"T must be square of even dimension, got shape {t.shape}")
        d = self._defect(t)
        if not d <= J_ORTHO_TOL:  # also rejects nan
            raise JOrthogonalityError(f"T J T^T = J violated (defect {d:.3e})")
        object.__setattr__(self, "t", _read_only(t))

    @staticmethod
    def _defect(t: np.ndarray) -> float:
        """max |T J T^T - J| relative to max(1, max|T|^2).

        Raises :class:`LinalgError` when a finite T takes either quantity
        beyond the float range, so that the check cannot be made.
        """
        if t.size == 0:
            return 0.0
        perm = _j_perm(t.shape[0] // 2)
        big = float(np.max(np.abs(t)))
        with np.errstate(over="ignore", invalid="ignore"):
            d = t[:, perm] @ t.T
        d[np.arange(len(perm)), perm] -= 1.0
        defect = float(np.max(np.abs(d)))
        try:
            scale = max(1.0, big ** 2)
        except OverflowError:
            scale = math.inf
        if math.isfinite(big) and not (math.isfinite(scale) and math.isfinite(defect)):
            raise LinalgError(f"J-orthogonality check overflows (max|T| = {big:.3e})")
        return defect / scale

    @property
    def L(self) -> int:
        return self.t.shape[0] // 2

    @property
    def t11(self) -> np.ndarray:
        return self.t[: self.L, : self.L]

    @property
    def t12(self) -> np.ndarray:
        return self.t[: self.L, self.L:]

    @property
    def t21(self) -> np.ndarray:
        return self.t[self.L:, : self.L]

    @property
    def t22(self) -> np.ndarray:
        return self.t[self.L:, self.L:]

    def j_defect(self) -> float:
        return self._defect(self.t)


def transfer_of(gen: QuadraticGenerator) -> TransferMatrix:
    """T = exp(M), kept on ``gen``, or its refusal by overflow or by the
    J-orthogonality check that is re-verified on the result."""
    return remember(gen.__dict__, "_transfer", lambda: TransferMatrix(mat_exp(gen.m)))


def compose_transfers(t1: TransferMatrix, t2: TransferMatrix) -> TransferMatrix:
    """Transfer matrix of the operator product F_1 F_2 (exact product T1 T2)."""
    if t1.L != t2.L:
        raise ValueError(f"site counts differ: {t1.L} vs {t2.L}")
    return TransferMatrix(t1.t @ t2.t)


def _principal_y(fac) -> np.ndarray | None:
    """Y = log(e^Y) on the principal branch, computed on first access.

    None exactly when ``sign_certain`` is False or the principal log of
    ``exp_y`` does not exist or is inaccurate.
    """
    if not fac.sign_certain:
        return None
    try:
        return _read_only(mat_log(fac.exp_y))
    except MatrixLogError:
        return None


@dataclass(frozen=True)
class FactoredGaussian:
    """Three-factor decomposition of a quadratic Gaussian operator.

    ``ordering="normal"``:  F = exp((1/2) c^dag X c^dag) exp(c^dag Y c - tr(Y)/2)
    exp((1/2) c Z c), with X = T12 T22^-1, Z = T22^-1 T21, exp(-Y) = T22^T.

    ``ordering="antinormal"``: F = exp((1/2) c X c) exp(c^dag Y c - tr(Y)/2)
    exp((1/2) c^dag Z c^dag), with X = T21 T11^-1, Z = T11^-1 T12, exp(Y) = T11.
    In both cases ``x`` is the left pairing factor and ``z`` the right one.

    ``prefactor`` is the scalar exp(-tr(Y)/2) (the vacuum amplitude of the
    middle factor); ``sign_certain`` is False when it had to be taken as a
    principal square root because the principal log of the pivot block does
    not exist.  ``y`` is None in that case.  ``branch`` says how the branch
    of that root was fixed: ``"continuity"`` along a path from the identity,
    or ``"principal"`` on the branch of the principal logarithm.  The
    normal ordering's ``pairing`` and ``adjoint`` are computed on first use.
    """

    ordering: str
    x: np.ndarray
    exp_y: np.ndarray
    z: np.ndarray
    prefactor: complex
    sign_certain: bool = True
    rcond: float = 1.0
    branch: str = "principal"

    y = functools.cached_property(_principal_y)

    @functools.cached_property
    def pairing(self) -> np.ndarray:
        """The Pfaffian overlap's block [[X, e^Y], [-e^(Y^T), Z]], read-only;
        X and Z enter only through quadratic forms, so their rounding-level
        symmetric parts are dropped: the block is exactly antisymmetric."""
        L = self.x.shape[0]
        p = np.empty((2 * L, 2 * L), dtype=complex)
        p[:L, :L] = 0.5 * (self.x - self.x.T)
        p[:L, L:] = self.exp_y
        p[L:, :L] = -self.exp_y.T
        p[L:, L:] = 0.5 * (self.z - self.z.T)
        return _read_only(p)

    @functools.cached_property
    def adjoint(self) -> FactoredGaussian:
        """The factor data of F^dag: (Z^dag, e^(Y^dag), X^dag, conj prefactor)."""
        return replace(self, x=self.z.conj().T, exp_y=self.exp_y.conj().T, z=self.x.conj().T,
                       prefactor=self.prefactor.conjugate())


def _normal_factors(t12: np.ndarray, t21: np.ndarray, t22: np.ndarray,
                    det_root=None) -> FactoredGaussian:
    """Normal-ordered factor data of the blocks of a transfer matrix.

    The one place that inverts the pivot block: X = T12 T22^-1,
    Z = T22^-1 T21, exp(Y) = T22^-T and exp(-tr Y / 2) = det(T22)^(1/2).
    ``det_root(t22)`` returns that root and its sign certainty, or
    ``(None, False)`` when it cannot fix the branch, as
    :func:`~fermigauss.linalg.sqrt_det_continuous` does; the root is then,
    and without ``det_root``, taken on the principal branch,
    :func:`sqrt_det_via_log`, and ``branch`` records which.  It runs after
    the rcond estimate has reached :data:`RCOND_TOL` and before the solves,
    so a ``det_root`` that raises costs no solve.
    """
    rc = rcond_estimate(t22)
    if rc < RCOND_TOL:
        raise SingularBlockError("pivot block not invertible; try a canonical permutation", rc)
    prefactor, sign_certain = det_root(t22) if det_root else (None, False)
    branch = "continuity"
    if prefactor is None:
        prefactor, sign_certain = sqrt_det_via_log(t22)
        branch = "principal"
    x = np.linalg.solve(t22.T, t12.T).T
    z = np.linalg.solve(t22, t21)
    exp_y = np.linalg.inv(t22.T)
    return FactoredGaussian("normal", x, exp_y, z, prefactor, sign_certain, rc, branch)


def bbd_normal(t: TransferMatrix) -> FactoredGaussian:
    """Factorization with the creation-pair factor on the left (requires T22 invertible).

    Computed once per transfer object and kept on ``t``: every later call
    returns the same object, with read-only arrays, or raises the refusal.
    """
    def factorize():
        fac = _normal_factors(t.t12, t.t21, t.t22)
        return replace(fac, x=_read_only(fac.x), exp_y=_read_only(fac.exp_y),
                       z=_read_only(fac.z))

    return remember(t.__dict__, "_normal", factorize)


def bbd_antinormal(t: TransferMatrix) -> FactoredGaussian:
    """Factorization with the annihilation-pair factor on the left (requires T11 invertible).

    This is the normal factorization of J T J, whose pivot block is T11;
    the middle factor is exp(Y) = T11 and the prefactor det(T11)^(-1/2).
    """
    fac = _normal_factors(t.t21, t.t12, t.t11)
    return replace(fac, ordering="antinormal", exp_y=t.t11.copy(), prefactor=1.0 / fac.prefactor)


# ---------------------------------------------------------------------------
# canonical permutations (particle-hole swaps on a site subset)
# ---------------------------------------------------------------------------

def validate_sites(sites, L: int) -> tuple[int, ...]:
    sites = tuple(sorted(int(s) for s in sites))
    if len(set(sites)) != len(sites):
        raise ValueError(f"duplicate sites in {sites}")
    if sites and not (1 <= sites[0] and sites[-1] <= L):
        raise ValueError(f"sites {sites} out of range 1..{L}")
    return sites


def _cp_index(L: int, sites) -> np.ndarray:
    """Row/column order of Pi A Pi, where Pi exchanges c_j and c_j^dag for
    j in ``sites``: index j-1 and L+j-1 exchanged.  For the full site set
    Pi is exactly J, which maps between the two factorization orderings."""
    idx = np.arange(2 * L)
    for j in sites:
        idx[[j - 1, L + j - 1]] = idx[[L + j - 1, j - 1]]
    return idx


def cp_transform(gen: QuadraticGenerator, sites) -> QuadraticGenerator:
    """The generator Pi M Pi of the particle-hole swap on ``sites``.

    Pi exchanges rows and columns j and L+j, so the result is a relabeling
    of M's entries, exact; applying the same site set twice gives M back.
    """
    idx = _cp_index(gen.L, validate_sites(sites, gen.L))
    return QuadraticGenerator(gen.m[np.ix_(idx, idx)])


def cp_apply_transfer(t: TransferMatrix, sites) -> TransferMatrix:
    """Transfer matrix of the permuted operator, Pi T Pi (exact)."""
    idx = _cp_index(t.L, validate_sites(sites, t.L))
    return TransferMatrix(t.t[np.ix_(idx, idx)])


@dataclass(frozen=True)
class CPScanEntry:
    sites: tuple[int, ...]
    rcond_t22: float
    rcond_t11: float
    t22_invertible: bool
    t11_invertible: bool


class CPScan(Sequence):
    """The entries of :func:`cp_scan`, held as columns.

    ``sites``, ``rcond_t22``, ``rcond_t11``, ``t22_invertible`` and
    ``t11_invertible`` are one sequence each, in scan order, read straight
    off the stacked estimates.  Length, indexing and iteration build the
    :class:`CPScanEntry` of a row on demand.
    """

    # the columns, in the order of CPScanEntry's fields
    __slots__ = ("sites", "rcond_t22", "rcond_t11", "t22_invertible", "t11_invertible")

    def __init__(self, sites, rcond_t22, rcond_t11):
        self.sites = sites
        self.rcond_t22 = rcond_t22
        self.rcond_t11 = rcond_t11
        self.t22_invertible = [r >= RCOND_TOL for r in rcond_t22]
        self.t11_invertible = [r >= RCOND_TOL for r in rcond_t11]

    def _columns(self) -> list:
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(map(CPScanEntry, *(col[k] for col in self._columns())))
        return CPScanEntry(*(col[k] for col in self._columns()))

    def __iter__(self):
        return map(CPScanEntry, *self._columns())


def _t22_rows(L: int, subsets) -> np.ndarray:
    """Row (and column) indices into T of the permuted T22 block of each subset.

    Row i of Pi T Pi is row i + L of T when site i + 1 is swapped, and vice
    versa, so ``(rows + L) % (2 L)`` are those of the permuted T11 block,
    which are also the T22 indices of the complementary subset.
    """
    swapped = np.zeros((len(subsets), L), dtype=bool)
    swapped[np.arange(len(subsets))[:, None], np.array(subsets, dtype=np.intp) - 1] = True
    return np.arange(L) + L * ~swapped


def _rconds(t: TransferMatrix, rows: np.ndarray) -> list[float]:
    """One stacked :func:`rcond_estimate` of the blocks ``t[rows_k, rows_k]``."""
    return rcond_estimate(t.t[rows[:, :, None], rows[:, None, :]]).tolist()


def _t22_chunks(t: TransferMatrix):
    """Lazily yield ``(subsets, rconds of their permuted T22)`` for every
    site subset, in :func:`cp_scan` order.

    Every subset-size class goes through one stacked estimate, in chunks
    of at most :data:`CP_CHUNK` subsets, so a consumer that stops early has
    paid for the rest of the current chunk only.
    """
    L = t.L
    for size in range(L + 1):
        subsets = combinations(range(1, L + 1), size)
        while chunk := list(islice(subsets, CP_CHUNK)):
            yield chunk, _rconds(t, _t22_rows(L, chunk))


def cp_scan(t: TransferMatrix) -> CPScan:
    """Invertibility report for every site subset (exhaustive for L <= 20).

    Entries are ordered by subset size, then lexicographically.  Above the
    exhaustive cap a greedy search is used instead: starting from the empty
    set, repeatedly add the single site that gives the largest of the two
    block conditions (the first such site on ties), reporting each step,
    until either block is invertible or no site improves that condition.

    No permuted transfer matrix is built: each permuted diagonal block is
    gathered from ``t`` in one indexing step, which is exact.  The
    exhaustive scan estimates the permuted T22 blocks only, one stacked SVD
    per subset-size class in chunks of at most :data:`CP_CHUNK` subsets,
    and reads T11 off the complement: the permuted T11 of a subset is the
    permuted T22 of its complement, which in scan order is the k-th from
    the end for the k-th of the 2^L subsets.  Each greedy step costs one
    stacked SVD per block over its candidates.  The entries equal those of
    a subset-by-subset evaluation bit for bit.

    The report lists every rcond, so it always enumerates; only
    :func:`cp_suggestions` may skip the enumeration, when one SVD of T
    certifies that no subset restores T22.  When no subset restores
    invertibility, the decomposition simply does not exist in any
    particle-hole picture.

    The result is a :class:`CPScan`: its columns are the report, and its
    length, indexing and iteration give :class:`CPScanEntry` rows.
    """
    L = t.L
    if L <= CP_EXHAUSTIVE_MAX:
        sites, r22 = [], []
        for chunk, rconds in _t22_chunks(t):
            sites += chunk
            r22 += rconds
        return CPScan(sites, r22, r22[::-1])

    def batch(subsets: list[tuple[int, ...]]) -> list[tuple]:
        rows = _t22_rows(L, subsets)
        return list(zip(subsets, _rconds(t, rows), _rconds(t, (rows + L) % (2 * L))))

    def score(step: tuple) -> float:
        return max(step[1], step[2])

    steps = batch([()])
    while score(steps[-1]) < RCOND_TOL:
        current = steps[-1][0]
        candidates = [tuple(sorted(current + (s,)))
                      for s in range(1, L + 1) if s not in current]
        if not candidates:
            break
        best = max(batch(candidates), key=score)
        if score(best) <= score(steps[-1]):
            break
        steps.append(best)
    return CPScan(*zip(*steps))


def _t22_rcond_bound(t: TransferMatrix) -> tuple[float, bool]:
    """An upper bound on the rcond of every permuted T22 block of ``t``, and
    whether it certifies that no block reaches :data:`RCOND_TOL`.

    Each permuted T22 block B is an L x L submatrix of T, so Thompson's
    interlacing gives sigma_L(B) <= sigma_L(T); with LAPACK's SVD error
    bound |s_i - sigma_i| <= c eps sigma_1, the ceiling s_L + c eps s_1 of
    one SVD of T bounds sigma_L(B).  At (i, j) the block holds one of
    T[i, j], T[i, L+j], T[L+i, j], T[L+i, L+j] (on the diagonal one of
    T[i, i], T[L+i, L+i]); the largest over (i, j) of the smallest of those
    magnitudes is a floor under sigma_1(B).  The bound is
    min(1, ceiling / floor).  The certificate asks for
    ceiling < (RCOND_TOL - 2 c eps) floor, which leaves room for the
    rounding of the SVD that the enumeration would run on each block; a
    zero floor never certifies.  Computed once per transfer, kept on ``t``.
    """
    def bound():
        L = t.L
        if L == 0:
            return 1.0, False
        c = 4 * 2 * L  # LAPACK's p(n) for an SVD of order n = 2L, taken as 4n
        eps = float(np.finfo(float).eps)
        s = np.linalg.svd(t.t, compute_uv=False)
        ceiling = float(s[L - 1]) + c * eps * float(s[0])
        a = np.abs(t.t)
        low = np.minimum(np.minimum(a[:L, :L], a[:L, L:]), np.minimum(a[L:, :L], a[L:, L:]))
        np.fill_diagonal(low, np.minimum(a.diagonal()[:L], a.diagonal()[L:]))
        floor = float(low.max())
        return (ceiling / floor if ceiling < floor else 1.0,
                ceiling < (RCOND_TOL - 2 * c * eps) * floor)

    return remember(t.__dict__, "_rcond_bound", bound)


def cp_suggestions(t: TransferMatrix, limit: int = 6):
    """The first ``limit`` site subsets, in :func:`cp_scan` order, whose
    permuted T22 is invertible.

    One SVD of the whole T comes first: when the ceiling it puts on
    sigma_L of every permuted T22, s_L + c eps s_1 with c = 8L, falls below
    (RCOND_TOL - 2 c eps) times the floor that the magnitudes of T put
    under sigma_1 of every one of them (see :func:`_t22_rcond_bound`), no
    subset can restore invertibility and the answer is ``[]`` with no
    subset enumerated.  Otherwise the search of :func:`cp_scan` runs and
    stops once ``limit`` subsets are found; the exhaustive search reads no
    T11 block.  The result equals that of the enumeration alone in every
    case.
    """
    if _t22_rcond_bound(t)[1]:
        return []
    if t.L <= CP_EXHAUSTIVE_MAX:
        restoring = (s for chunk, r22 in _t22_chunks(t)
                     for s, r in zip(chunk, r22) if r >= RCOND_TOL)
    else:
        scan = cp_scan(t)
        restoring = compress(scan.sites, scan.t22_invertible)
    return list(islice(restoring, limit))


def random_generator(L: int, seed, scale: float = 1.0) -> QuadraticGenerator:
    """Random admissible generator (J.M antisymmetric), reproducible by seed.

    The block structure M = [[A, B], [C, -A^T]] with antisymmetric B, C
    parametrizes the full admissible family.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    s = scale / max(1.0, np.sqrt(L))

    def cplx(shape):
        return s * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    a = cplx((L, L))
    b = cplx((L, L))
    c = cplx((L, L))
    b = 0.5 * (b - b.T)
    c = 0.5 * (c - c.T)
    return QuadraticGenerator(np.block([[a, b], [c, -a.T]]))
