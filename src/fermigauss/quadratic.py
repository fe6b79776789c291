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
exponentiates it on first use: ``exp(M)`` (which :func:`transfer_of`
wraps) and ``exp(M^dag)`` (the bra side of an overlap) are each computed
once per generator object and cached on it, read-only.  So are the steps
``exp(h M)`` and ``exp(h M^dag)`` of the sign-continuity path, once per
side and exact step length h.  A generator that recurs across many
overlaps therefore costs one ``mat_exp`` per side and quantity, and a
2L x 2L complex matrix of memory for each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import combinations, islice

import numpy as np

from .linalg import (
    RCOND_TOL,
    SKEW_TOL,
    MatrixLogBranchError,
    SingularBlockError,
    mat_exp,
    mat_log,
    rcond_estimate,
    skew_defect,
    sqrt_det_via_log,
)

#: relative tolerance on T J T^T = J at construction
J_ORTHO_TOL = 1e-10
#: largest L for which the particle-hole scan enumerates every site subset
CP_EXHAUSTIVE_MAX = 20
#: most site subsets whose permuted blocks go through one stacked rcond estimate
CP_CHUNK = 1024


def j_matrix(L: int) -> np.ndarray:
    """The off-diagonal block identity ``[[0, I], [I, 0]]``."""
    eye = np.eye(L)
    zero = np.zeros((L, L))
    return np.block([[zero, eye], [eye, zero]])


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
    caller must not mutate that array afterwards.  exp(M), exp(M^dag) and
    the continuity steps exp(h M), exp(h M^dag) are computed on first use
    and cached on the instance, read-only.
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

    @functools.cached_property
    def _exp(self) -> np.ndarray:
        """exp(M), the ket-side transfer; not checked for J-orthogonality."""
        return _read_only(mat_exp(self.m))

    @functools.cached_property
    def _exp_dagger(self) -> np.ndarray:
        """exp(M^dag), the bra side of an overlap.  Exponentiated as such:
        exp(M)^dag differs from it at rounding level."""
        return _read_only(mat_exp(self.m.conj().T))

    def _step_exp(self, h: float, dagger: bool) -> np.ndarray:
        """exp(h M), or exp(h M^dag) for the bra side: one step of the
        continuity path.  Cached per exact ``(h, dagger)``, read-only."""
        steps = self.__dict__.setdefault("_steps", {})
        key = (h, dagger)
        if key not in steps:
            steps[key] = _read_only(mat_exp(h * (self.m.conj().T if dagger else self.m)))
        return steps[key]

    @functools.cached_property
    def _transfer(self) -> "TransferMatrix":
        """exp(M) as a J-checked transfer matrix: what :func:`transfer_of` returns."""
        return TransferMatrix(self._exp)

    @property
    def L(self) -> int:
        return self.m.shape[0] // 2

    def dagger(self) -> "QuadraticGenerator":
        """Generator of the adjoint operator (M -> M^dag)."""
        return QuadraticGenerator(self.m.conj().T)

    @classmethod
    def zero(cls, L: int) -> "QuadraticGenerator":
        return cls(np.zeros((2 * L, 2 * L), dtype=complex))


@dataclass(frozen=True)
class TransferMatrix:
    """Transfer matrix ``T = exp(M)`` with certified J-orthogonality."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] % 2:
            raise ValueError(f"T must be square of even dimension, got shape {t.shape}")
        d = self._defect(t)
        if not d <= J_ORTHO_TOL:  # also rejects nan
            raise ValueError(f"T J T^T = J violated (defect {d:.3e}); malformed input")
        object.__setattr__(self, "t", t)

    @staticmethod
    def _defect(t: np.ndarray) -> float:
        if t.size == 0:
            return 0.0
        L = t.shape[0] // 2
        scale = max(1.0, float(np.max(np.abs(t))) ** 2)
        return float(np.max(np.abs(t[:, _j_perm(L)] @ t.T - j_matrix(L)))) / scale

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

    def inverse(self) -> "TransferMatrix":
        """T^-1 = J T^T J, exact consequence of J-orthogonality."""
        L = self.L
        j = j_matrix(L)
        return TransferMatrix(j @ self.t.T @ j)

    def dagger(self) -> "TransferMatrix":
        return TransferMatrix(self.t.conj().T)

    @classmethod
    def identity(cls, L: int) -> "TransferMatrix":
        return cls(np.eye(2 * L, dtype=complex))


def transfer_of(gen: QuadraticGenerator) -> TransferMatrix:
    """T = exp(M), cached on ``gen``.  J-orthogonality is re-verified on the result."""
    return gen._transfer


def compose_transfers(t1: TransferMatrix, t2: TransferMatrix) -> TransferMatrix:
    """Transfer matrix of the operator product F_1 F_2 (exact product T1 T2)."""
    if t1.L != t2.L:
        raise ValueError(f"site counts differ: {t1.L} vs {t2.L}")
    return TransferMatrix(t1.t @ t2.t)


@dataclass(frozen=True)
class ComposeResult:
    """Product of two Gaussian operators at the transfer level, plus the
    composed generator when the principal logarithm exists."""

    transfer: TransferMatrix
    generator: QuadraticGenerator | None
    generator_available: bool


def compose_generators(g1: QuadraticGenerator, g2: QuadraticGenerator) -> ComposeResult:
    """Generator M with exp(M) = exp(M1) exp(M2).

    When ``exp(M1) exp(M2)`` has spectrum touching the closed negative real
    axis the principal log does not exist; the transfer-level product is
    returned with ``generator_available=False``.
    """
    t = compose_transfers(transfer_of(g1), transfer_of(g2))
    try:
        m = mat_log(t.t)
    except MatrixLogBranchError:
        return ComposeResult(t, None, False)
    return ComposeResult(t, QuadraticGenerator(m), True)


def _principal_y(fac) -> np.ndarray | None:
    """Y = log(e^Y) on the principal branch, computed on first access.

    None exactly when ``sign_certain`` is False or the principal log of
    ``exp_y`` does not exist.
    """
    if not fac.sign_certain:
        return None
    try:
        return mat_log(fac.exp_y)
    except MatrixLogBranchError:
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
    not exist.  ``y`` is None in that case.
    """

    ordering: str
    x: np.ndarray
    exp_y: np.ndarray
    z: np.ndarray
    prefactor: complex
    sign_certain: bool = True
    rcond: float = 1.0

    y = functools.cached_property(_principal_y)


def _normal_factors(t12: np.ndarray, t21: np.ndarray, t22: np.ndarray,
                    rcond_tol: float, det_root=None) -> FactoredGaussian:
    """Normal-ordered factor data of the blocks of a transfer matrix.

    The one place that inverts the pivot block: X = T12 T22^-1,
    Z = T22^-1 T21, exp(Y) = T22^-T and exp(-tr Y / 2) = det(T22)^(1/2).
    ``det_root(t22)`` returns that root and its sign certainty; the default
    is the principal branch, :func:`sqrt_det_via_log`.  It runs only after
    the rcond test has passed.
    """
    rc = rcond_estimate(t22)
    if rc < rcond_tol:
        raise SingularBlockError("pivot block not invertible; try a canonical permutation", rc)
    x = np.linalg.solve(t22.T, t12.T).T
    z = np.linalg.solve(t22, t21)
    exp_y = np.linalg.inv(t22.T)
    prefactor, sign_certain = (det_root or sqrt_det_via_log)(t22)
    return FactoredGaussian("normal", x, exp_y, z, prefactor, sign_certain, rc)


def bbd_normal(t: TransferMatrix, rcond_tol: float = RCOND_TOL) -> FactoredGaussian:
    """Factorization with the creation-pair factor on the left (requires T22 invertible)."""
    return _normal_factors(t.t12, t.t21, t.t22, rcond_tol)


def bbd_antinormal(t: TransferMatrix, rcond_tol: float = RCOND_TOL) -> FactoredGaussian:
    """Factorization with the annihilation-pair factor on the left (requires T11 invertible).

    This is the normal factorization of J T J, whose pivot block is T11;
    the middle factor is exp(Y) = T11 and the prefactor det(T11)^(-1/2).
    """
    fac = _normal_factors(t.t21, t.t12, t.t11, rcond_tol)
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


def cp_matrix(L: int, sites) -> np.ndarray:
    """Permutation matrix exchanging c_j and c_j^dag for j in ``sites``.

    For the full site set this is exactly J, which maps between the two
    factorization orderings.
    """
    sites = validate_sites(sites, L)
    pi = np.eye(2 * L)
    for j in sites:
        a, b = j - 1, L + j - 1
        pi[[a, b]] = pi[[b, a]]
    return pi


@dataclass(frozen=True)
class CPTransformed:
    """Result of a canonical permutation: the transformed generator plus the
    relabeling record needed to map configurations and undo the transform."""

    generator: QuadraticGenerator
    sites: tuple[int, ...]
    pi: np.ndarray


def cp_transform(gen: QuadraticGenerator, sites) -> CPTransformed:
    """Conjugate the generator by the particle-hole swap on ``sites``.

    ``M -> Pi M Pi`` with ``Pi`` the block permutation exchanging rows and
    columns j and L+j.  Applying the same site set twice is an exact
    involution.
    """
    sites = validate_sites(sites, gen.L)
    pi = cp_matrix(gen.L, sites)
    return CPTransformed(QuadraticGenerator(pi @ gen.m @ pi), sites, pi)


def _cp_index(L: int, sites) -> np.ndarray:
    """Row/column order of Pi T Pi: index j-1 and L+j-1 exchanged for j in ``sites``."""
    idx = np.arange(2 * L)
    for j in sites:
        idx[[j - 1, L + j - 1]] = idx[[L + j - 1, j - 1]]
    return idx


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


def _exhaustive_t22(t: TransferMatrix):
    """Lazily yield ``(sites, rcond of the permuted T22)`` for every site
    subset, in :func:`cp_scan` order.

    Every subset-size class goes through one stacked estimate, in chunks
    of at most :data:`CP_CHUNK` subsets, so a consumer that stops early has
    paid for the rest of the current chunk only.
    """
    L = t.L
    for size in range(L + 1):
        subsets = combinations(range(1, L + 1), size)
        while chunk := list(islice(subsets, CP_CHUNK)):
            yield from zip(chunk, _rconds(t, _t22_rows(L, chunk)))


def _cp_entries(t: TransferMatrix, rcond_tol: float, max_exhaustive: int):
    """Yield the entries of :func:`cp_scan`, in its order.

    No permuted transfer matrix is built: each permuted diagonal block is
    gathered from ``t`` in one indexing step, which is exact.  The
    exhaustive mode estimates every permuted T22 block first and reads
    T11 off the complement: in scan order (by size, then lexicographic)
    the complement of the k-th of the 2^L subsets is the k-th from the
    end.  The greedy mode batches the candidates of each step, both
    blocks.
    """
    L = t.L
    if L <= max_exhaustive:
        sites, r22 = zip(*_exhaustive_t22(t))
        for s, a, b in zip(sites, r22, r22[::-1]):
            yield CPScanEntry(s, a, b, a >= rcond_tol, b >= rcond_tol)
        return

    def batch(subsets: list[tuple[int, ...]]) -> list[CPScanEntry]:
        rows = _t22_rows(L, subsets)
        r22 = _rconds(t, rows)
        r11 = _rconds(t, (rows + L) % (2 * L))
        return [CPScanEntry(s, a, b, a >= rcond_tol, b >= rcond_tol)
                for s, a, b in zip(subsets, r22, r11)]

    last = batch([()])[0]
    yield last
    best = max(last.rcond_t22, last.rcond_t11)
    while not (last.t22_invertible or last.t11_invertible):
        candidates = [tuple(sorted(last.sites + (s,)))
                      for s in range(1, L + 1) if s not in last.sites]
        if not candidates:
            return
        last = max(batch(candidates), key=lambda e: max(e.rcond_t22, e.rcond_t11))
        if max(last.rcond_t22, last.rcond_t11) <= best:
            return
        best = max(last.rcond_t22, last.rcond_t11)
        yield last


def cp_scan(t: TransferMatrix, rcond_tol: float = RCOND_TOL,
            max_exhaustive: int = CP_EXHAUSTIVE_MAX):
    """Invertibility report for every site subset (exhaustive for L <= 20).

    Entries are ordered by subset size, then lexicographically.  Above the
    exhaustive cap a greedy search is used instead: starting from the empty
    set, repeatedly add the single site that gives the largest of the two
    block conditions (the first such site on ties), reporting each step,
    until either block is invertible or no site improves that condition.

    The exhaustive scan costs one stacked SVD per subset-size class, in
    chunks of at most :data:`CP_CHUNK` subsets, since the permuted T11 of a
    subset is the permuted T22 of its complement; each greedy step costs
    one per block.  The entries equal those of a subset-by-subset
    evaluation bit for bit.

    There is no decision procedure here beyond enumeration: when no subset
    restores invertibility, the decomposition simply does not exist in any
    particle-hole picture.
    """
    return list(_cp_entries(t, rcond_tol, max_exhaustive))


def cp_suggestions(t: TransferMatrix, rcond_tol: float = RCOND_TOL, limit: int = 6):
    """The first ``limit`` site subsets, in :func:`cp_scan` order, whose
    permuted T22 is invertible; the search stops once they are found, and
    the exhaustive search reads no T11 block."""
    if t.L <= CP_EXHAUSTIVE_MAX:
        restoring = (s for s, r22 in _exhaustive_t22(t) if r22 >= rcond_tol)
    else:
        entries = _cp_entries(t, rcond_tol, CP_EXHAUSTIVE_MAX)
        restoring = (e.sites for e in entries if e.t22_invertible)
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
