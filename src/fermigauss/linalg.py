"""Dense complex linear-algebra kernels.

Matrix exponential/logarithm, Pfaffian of skew-symmetric matrices,
reciprocal condition estimates and determinant square roots used by the
Gaussian-operator machinery.
All routines work on plain ``numpy`` arrays of complex doubles.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

#: relative tolerance for the skew-symmetry check, w.r.t. the max-norm
SKEW_TOL = 1e-10


class LinalgError(Exception):
    """Base class for kernel-level numerical failures."""


class SingularBlockError(LinalgError):
    """A block that must be inverted is numerically singular."""

    def __init__(self, message: str, rcond: float):
        super().__init__(f"{message} (rcond={rcond:.3e})")
        self.rcond = rcond


class MatrixLogBranchError(LinalgError):
    """Principal matrix logarithm undefined (spectrum touches (-inf, 0])."""


class SkewSymmetryError(LinalgError):
    """Input violates antisymmetry beyond tolerance."""


def _as_square(a: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """``a`` as a finite complex square matrix, or a (k, n, n) stack of them."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 + stack or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be {'a stack of square matrices' if stack else 'square'}, "
                         f"got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square complex matrix (Pade scaling-and-squaring).

    Raises :class:`LinalgError` when the result overflows.
    """
    a = _as_square(a)
    if a.size == 0:
        return a.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out)):
        raise LinalgError("matrix exponential overflows")
    return out


def mat_log(t: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm.

    Deterministic: ``scipy.linalg.logm`` estimates a norm from numpy's
    global random stream, so it runs under a fixed seed, and the caller's
    stream is restored afterwards, unadvanced.

    Raises
    ------
    MatrixLogBranchError
        If an eigenvalue lies on the closed negative real axis, where the
        principal branch is undefined.  Callers fall back to working with
        the exponentiated quantities directly.
    """
    t = _as_square(t)
    if t.size == 0:
        return t.copy()
    _check_principal_branch(np.linalg.eigvals(t))
    state = np.random.get_state()
    np.random.seed(0)
    try:
        out = scipy.linalg.logm(t)
    finally:
        np.random.set_state(state)
    return np.asarray(out, dtype=complex)


def _check_principal_branch(eigs: np.ndarray) -> None:
    """Raise :class:`MatrixLogBranchError` unless every eigenvalue lies off
    the closed negative real axis, where the principal branch is defined."""
    scale = max(1.0, float(np.max(np.abs(eigs))))
    # np.hypot rounds like the scalar abs(lam); np.abs of an array may not
    mag = np.hypot(eigs.real, eigs.imag)
    singular = mag <= 1e-14 * scale
    bad = singular | ((eigs.real < 0) & (np.abs(eigs.imag) <= 1e-12 * mag))
    if bad.any():
        i = int(np.argmax(bad))   # the first offending eigenvalue
        if singular[i]:
            raise MatrixLogBranchError(f"matrix is singular (eigenvalue {eigs[i]})")
        raise MatrixLogBranchError(f"eigenvalue {eigs[i]} on the negative real axis")


def rcond_estimate(a: np.ndarray):
    """Reciprocal 2-norm condition estimate, sigma_min / sigma_max.

    A square matrix gives a float; a (k, n, n) stack gives a length-k
    array, from one batched SVD.  Empty matrices count as perfectly
    conditioned (1.0) and the zero matrix as singular (0.0).
    """
    stack = np.ndim(a) == 3
    a = _as_square(a, stack=stack)
    if a.size == 0:
        return np.ones(len(a)) if stack else 1.0
    s = np.linalg.svd(a, compute_uv=False)
    if not stack:
        return float(s[-1] / s[0]) if s[0] != 0.0 else 0.0
    top = s[:, 0]
    return np.divide(s[:, -1], top, out=np.zeros_like(top), where=top != 0.0)


def skew_defect(a: np.ndarray) -> float:
    """Relative antisymmetry defect  ||A + A^T||_max / max(1, ||A||_max)."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a + a.T))) / scale


def check_skew(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = _as_square(a, name)
    d = skew_defect(a)
    if d > SKEW_TOL:
        raise SkewSymmetryError(f"{name} is not antisymmetric (defect {d:.3e} > {SKEW_TOL:.1e})")
    return a


def pfaffian(a: np.ndarray):
    """Pfaffian of a complex antisymmetric matrix, or of each member of a stack.

    Uses skew-symmetric tridiagonalization (Parlett-Reid elimination) with
    partial pivoting.  Row/column interchanges flip the result's sign; that
    parity is tracked as an exact integer, never through a determinant.

    A square matrix gives a complex; a (k, n, n) stack gives a length-k
    complex array, each member pivoting on its own.  Stacked values agree
    with the one-matrix loop to rounding, not bit for bit, except for a
    stack of one, which runs that loop.  The whole input is checked for
    antisymmetry (:class:`SkewSymmetryError`), and its rounding-level
    symmetric part is dropped.

    Conventions: ``pf`` of the empty matrix is 1 and of any odd-dimensional
    matrix is 0, which keeps the overlap formulas uniform over all removal
    sets (the vacuum-to-vacuum case empties the matrix entirely).
    """
    if np.ndim(a) != 3:
        a = check_skew(a)
        return _pfaffian_exact(0.5 * (a - a.T))  # exact antisymmetrization of rounding dust
    a = _as_square(a, stack=True)
    if a.size:
        at = a.transpose(0, 2, 1)
        scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
        defect = np.abs(a + at).max(axis=(1, 2)) / scale
        if np.any(defect > SKEW_TOL):
            i = int(np.argmax(defect > SKEW_TOL))
            raise SkewSymmetryError(f"stack member {i} is not antisymmetric "
                                    f"(defect {defect[i]:.3e} > {SKEW_TOL:.1e})")
        a = 0.5 * (a - at)
    return _pfaffian_exact(a)


def _pfaffian_exact(m: np.ndarray):
    """:func:`pfaffian` of a writable complex matrix or (k, n, n) stack that
    is exactly antisymmetric, ``m == -m.T`` bit for bit, with no check.

    Such input is what ``0.5 * (a - a.T)`` would return unchanged, so the
    result equals the checked entry's bit for bit.  ``m`` is overwritten.
    """
    if m.ndim == 3:
        k, n = m.shape[0], m.shape[-1]
        if k == 0 or n == 0 or n % 2:
            return np.full(k, 1.0 if n == 0 else 0.0, dtype=complex)
        if k == 1:
            return np.array([_pfaffian_one(m[0])])
        return _pfaffian_stack(m)
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    if n % 2:
        return complex(0.0)
    return _pfaffian_one(m)


def _pfaffian_one(m: np.ndarray) -> complex:
    """Parlett-Reid on one even-order matrix, in place."""
    n = m.shape[0]
    swaps = 0
    result = complex(1.0)
    for k in range(0, n - 2, 2):
        # step k reads only m[k:, k:], so the interchange skips the rest
        piv = k + 1 + int(np.abs(m[k + 1:, k]).argmax())
        if m[piv, k] == 0.0:
            return complex(0.0)
        if piv != k + 1:
            row = m[k + 1, k:].copy()
            m[k + 1, k:] = m[piv, k:]
            m[piv, k:] = row
            col = m[k:, k + 1].copy()
            m[k:, k + 1] = m[k:, piv]
            m[k:, piv] = col
            swaps += 1
        result *= m[k, k + 1]
        # congruence by a unit elementary transform: Pfaffian-invariant,
        # eliminates column k below the pivot row.  The rank-2 term is
        # outer(tau, w) - outer(w, tau), formed product by product; it is
        # not t - t.T, since complex products need not commute bitwise.
        tau = m[k + 2:, k] / m[k + 1, k]
        w = m[k + 2:, k + 1]
        t = tau[:, None] * w
        t -= w[:, None] * tau
        m[k + 2:, k + 2:] += t
    result *= m[n - 2, n - 1]
    return complex(result) if swaps % 2 == 0 else -complex(result)


def _pfaffian_stack(m: np.ndarray) -> np.ndarray:
    """Parlett-Reid on a (k, n, n) stack of even order, in place.

    The steps of :func:`_pfaffian_one`, each member with its own pivot.  A
    member whose pivot is exactly zero has the value 0 and leaves the
    working stack, so it takes no further update.
    """
    n = m.shape[-1]
    out = np.zeros(len(m), dtype=complex)
    members = np.arange(len(m))          # original index of each working member
    result = np.ones(len(m), dtype=complex)
    swaps = np.zeros(len(m), dtype=np.intp)
    for k in range(0, n - 2, 2):
        piv = k + 1 + np.abs(m[:, k + 1:, k]).argmax(axis=1)
        live = m[np.arange(len(m)), piv, k] != 0.0
        if not live.all():
            if not live.any():
                return out
            m, piv, members = m[live], piv[live], members[live]
            result, swaps = result[live], swaps[live]
        sel = np.flatnonzero(piv != k + 1)
        if len(sel):
            p = piv[sel]
            row = m[sel, k + 1, k:]
            m[sel, k + 1, k:] = m[sel, p, k:]
            m[sel, p, k:] = row
            col = m[sel, k:, k + 1]
            m[sel, k:, k + 1] = m[sel, k:, p]
            m[sel, k:, p] = col
            swaps[sel] += 1
        result *= m[:, k, k + 1]
        tau = m[:, k + 2:, k] / m[:, k + 1, k, None]
        w = m[:, k + 2:, k + 1]
        t = tau[:, :, None] * w[:, None, :]
        t -= w[:, :, None] * tau[:, None, :]
        m[:, k + 2:, k + 2:] += t
    result *= m[:, n - 2, n - 1]
    out[members] = np.where(swaps % 2, -result, result)
    return out


def sqrt_det_via_log(a: np.ndarray):
    """det(a)^(1/2) on the branch of the principal matrix logarithm.

    Returns ``(value, sign_certain)``.  When the principal log exists the
    value is ``exp(tr log(a) / 2)``, computed as the product of the
    principal square roots of the eigenvalues, and the sign is determined;
    otherwise falls back to the principal square root of the scalar
    determinant, flagged as sign-ambiguous.  Note the principal branch need
    not be the physically continuous one; use :func:`sqrt_det_continuous`
    when a path from the identity is available.
    """
    a = _as_square(a)
    if a.shape[0] == 0:
        return complex(1.0), True
    eigs = np.linalg.eigvals(a)
    try:
        _check_principal_branch(eigs)
    except MatrixLogBranchError:
        return complex(np.sqrt(np.prod(eigs))), False
    return complex(np.prod(np.sqrt(eigs))), True


def sqrt_det_continuous(mat_at, end):
    """det(end)^(1/2), branch fixed by continuity from mat_at(0) = I to mat_at(1) = end.

    ``mat_at`` must be holomorphic in its complex argument; it is evaluated
    at interior path points only, since the determinant is 1 at s = 0 and
    det(end) at s = 1.  The argument of the determinant is accumulated along
    a path from 0 to 1; when the determinant nearly vanishes on the real
    segment, slight complex detours are tried (zeros of a holomorphic
    function are isolated).  Returns ``(value, sign_certain)``; falls back
    to the principal-branch value of ``end``, flagged uncertain, if no path
    resolves the winding.  Each path starts with 12 steps and doubles them,
    at most four times, while some step turns the argument by 1.2 or more.

    Points are evaluated one at a time, in path order, with one ``mat_at``
    call each, and a path is abandoned at its first (near-)zero.  Since the
    zero test is relative to max(1, |det(end)|) and every path contains the
    endpoints, |det(end)| >= 1e13 or <= 1e-13 abandons every path before
    any point is evaluated.
    """
    end = np.asarray(end, dtype=complex)
    target = complex(np.linalg.det(end))
    floor = 1e-13 * max(1.0, abs(target))
    if min(1.0, abs(target)) <= floor:
        return sqrt_det_via_log(end)
    for bulge in (0.0, 0.03, 0.11, 0.31):
        n = 12
        for _ in range(5):
            taus = np.linspace(0.0, 1.0, n + 1)
            svals = taus + 1j * bulge * taus * (1.0 - taus)
            dets = [1.0]
            for s in svals[1:-1]:
                dets.append(np.linalg.det(np.asarray(mat_at(s), dtype=complex)))
                if abs(dets[-1]) <= floor:
                    break
            if abs(dets[-1]) <= floor:
                break  # path runs (nearly) through a zero; take a detour
            dets = np.array(dets + [target])
            incs = np.angle(dets[1:] / dets[:-1])
            if np.max(np.abs(incs)) < 1.2:
                arg = float(np.sum(incs))
                return complex(np.sqrt(abs(target)) * np.exp(0.5j * arg)), True
            n *= 2
    return sqrt_det_via_log(end)
