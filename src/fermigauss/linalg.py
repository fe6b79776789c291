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
#: reciprocal-condition threshold below which a block counts as singular
RCOND_TOL = 1e-12


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
    for lam in eigs:
        if abs(lam) <= 1e-14 * scale:
            raise MatrixLogBranchError(f"matrix is singular (eigenvalue {lam})")
        if lam.real < 0 and abs(lam.imag) <= 1e-12 * abs(lam):
            raise MatrixLogBranchError(f"eigenvalue {lam} on the negative real axis")


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


def check_skew(a: np.ndarray, tol: float = SKEW_TOL, name: str = "matrix") -> np.ndarray:
    a = _as_square(a, name)
    d = skew_defect(a)
    if d > tol:
        raise SkewSymmetryError(f"{name} is not antisymmetric (defect {d:.3e} > {tol:.1e})")
    return a


def pfaffian(a: np.ndarray, tol: float = SKEW_TOL) -> complex:
    """Pfaffian of a complex antisymmetric matrix.

    Uses skew-symmetric tridiagonalization (Parlett-Reid elimination) with
    partial pivoting.  Row/column interchanges flip the result's sign; that
    parity is tracked as an exact integer, never through a determinant.

    Conventions: ``pf`` of the empty matrix is 1 and of any odd-dimensional
    matrix is 0, which keeps the overlap formulas uniform over all removal
    sets (the vacuum-to-vacuum case empties the matrix entirely).
    """
    a = check_skew(a, tol=tol)
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n % 2:
        return complex(0.0)
    m = 0.5 * (a - a.T)  # exact antisymmetrization of rounding dust
    swaps = 0
    result = complex(1.0)
    for k in range(0, n - 2, 2):
        col = np.abs(m[k + 1:, k])
        piv = k + 1 + int(np.argmax(col))
        if col[piv - k - 1] == 0.0:
            return complex(0.0)
        if piv != k + 1:
            m[[k + 1, piv], :] = m[[piv, k + 1], :]
            m[:, [k + 1, piv]] = m[:, [piv, k + 1]]
            swaps += 1
        result *= m[k, k + 1]
        # congruence by a unit elementary transform: Pfaffian-invariant,
        # eliminates column k below the pivot row
        tau = m[k + 2:, k] / m[k + 1, k]
        w = m[k + 2:, k + 1]
        m[k + 2:, k + 2:] += np.outer(tau, w) - np.outer(w, tau)
    result *= m[n - 2, n - 1]
    return complex(result) if swaps % 2 == 0 else -complex(result)


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


def sqrt_det_continuous(mat_at, end, steps: int = 12, max_refine: int = 5):
    """det(end)^(1/2), branch fixed by continuity from mat_at(0) = I to mat_at(1) = end.

    ``mat_at`` must be holomorphic in its complex argument; it is evaluated
    at interior path points only, since the determinant is 1 at s = 0 and
    det(end) at s = 1.  The argument of the determinant is accumulated along
    a path from 0 to 1; when the determinant nearly vanishes on the real
    segment, slight complex detours are tried (zeros of a holomorphic
    function are isolated).  Returns ``(value, sign_certain)``; falls back
    to the principal-branch value of ``end``, flagged uncertain, if no path
    resolves the winding.

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
        n = steps
        for _ in range(max_refine):
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
