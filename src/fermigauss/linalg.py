"""Dense complex linear-algebra kernels.

Matrix exponential/logarithm, Pfaffian of skew-symmetric matrices,
reciprocal condition estimates and determinant square roots used by the
Gaussian-operator machinery.
All routines work on plain ``numpy`` arrays of complex doubles.

The exponential is computed here, by Pade scaling and squaring: the degrees
and thresholds of Higham (SIAM J. Matrix Anal. Appl. 26, 1179, 2005) with
the exact-norm degree choice of Al-Mohy & Higham (SIAM J. Matrix Anal.
Appl. 31, 970, 2009).  Only :func:`mat_log` needs scipy, and imports it
when first called.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np

#: relative tolerance for the skew-symmetry check, w.r.t. the max-norm
SKEW_TOL = 1e-10


class LinalgError(Exception):
    """Base class for kernel-level numerical failures."""

    def detached(self) -> "LinalgError":
        """A fresh instance with this error's type, ``args`` and a deep copy
        of its attributes (a rescue chain's ``route`` among them), but no
        traceback, context or cause: how :func:`remember` stores and raises
        a refusal."""
        fresh = type(self).__new__(type(self), *self.args)
        fresh.__dict__.update(copy.deepcopy(self.__dict__))
        return fresh


def remember(store: dict, key, build):
    """``build()`` run once per ``key`` of ``store``: the library's caching rule.

    The first call keeps in ``store[key]`` the result, or the
    :class:`LinalgError` that ``build()`` raised, detached.  Every later
    call returns that result, or raises a fresh detached copy of that error,
    so a build is judged once, whatever ``RCOND_TOL`` is set to later.  No
    kept or raised error has a traceback to tie the store's owner to an
    earlier call's frames, so a failing call leaves no reference cycle.
    Other exceptions pass through and nothing is kept.
    """
    if key not in store:
        try:
            store[key] = build()
        except LinalgError as exc:
            store[key] = exc.detached()
    found = store[key]
    if isinstance(found, LinalgError):
        raise found.detached()
    return found


class SingularBlockError(LinalgError):
    """A block that must be inverted is numerically singular."""

    def __init__(self, message: str, rcond: float):
        super().__init__(f"{message} (rcond={rcond:.3e})")
        self.rcond = rcond


class MatrixLogError(LinalgError):
    """No usable principal matrix logarithm; raised as such when scipy's
    ``logm`` estimates its own result to be inaccurate."""


class MatrixLogBranchError(MatrixLogError):
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


#: largest eta for which the [m/m] Pade approximant of exp has backward
#: error below the unit roundoff: degrees 3-9 from Higham (2005), 13 from
#: Al-Mohy & Higham (2009)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 4.25}
#: coefficients b_0 .. b_m of the numerator p_m(x) of the [m/m] Pade approximant
_PADE_B = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240., 2162160., 110880.,
        3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600., 1187353796428800.,
         129060195264000., 10559470521600., 670442572800., 33522128640., 1323241920.,
         40840800., 960960., 16380., 182., 1.),
}
#: per degree, the coefficients of A^2, A^4, ... and of I in the odd and the
#: even sums (rows U, V) for m <= 9; for m = 13, in the rows U_hi, U_lo,
#: V_hi, V_lo of Higham's U = A (A^6 U_hi + U_lo), V = A^6 V_hi + V_lo
_PADE_ROWS = {m: (np.array([b[3::2], b[2::2]]), np.array([[b[1]], [b[0]]])) if m < 13
              else (np.array([b[9::2], b[3:8:2], b[8::2], b[2:7:2]]),
                    np.array([[0.0], [b[1]], [0.0], [b[0]]]))
              for m, b in _PADE_B.items()}
#: |c_2m+1| = (m!)^2 / ((2m)! (2m+1)!), the leading backward-error coefficient
_PADE_LEAD = {m: math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
              for m in _PADE_B}
_UNIT_ROUNDOFF = 2.0 ** -53


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179,
    2005), with the degree m and the scaling 2^-s chosen as in Al-Mohy &
    Higham (SIAM J. Matrix Anal. Appl. 31, 970, 2009), Algorithm 6.1, from
    exact 1-norms of A^4 ... A^10 and of powers of |A|.  A diagonal matrix
    is exponentiated entrywise, so the zero matrix gives exactly I.

    The coefficient sums over I, A^2, A^4, ... (A^8 at most, formed anyway
    for the norms) are one real product of the coefficient rows with the
    stacked powers; degree 13 then takes Higham's U = A (A^6 U_hi + U_lo),
    V = A^6 V_hi + V_lo as one stacked product with A^6.  The numerator and
    denominator of the approximant are V + U and V - U.

    Raises :class:`LinalgError` when the result, or a power of A up to A^10
    that the degree choice needs, overflows.
    """
    a = _as_square(a)
    if a.size == 0:
        return a.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out = _pade_exp(a)
    if out is None or not np.all(np.isfinite(out)):
        raise LinalgError("matrix exponential overflows")
    return out


def _norms1(stack: np.ndarray) -> list:
    """Exact 1-norms of the members of a (k, n, n) stack."""
    return np.abs(stack).sum(axis=1).max(axis=1).tolist()


class _AbsPowers:
    """Al-Mohy & Higham's ell(A, m) test for rising degrees m, from 1^T |A|^q.

    q starts at 3 and rises by 4 per step, through |A|^2 and |A|^4, so
    every odd degree m is reached at q = 2m + 1.
    """

    def __init__(self, a: np.ndarray):
        abs_a = np.abs(a)
        b2 = abs_a.dot(abs_a)
        self.b4 = b2.dot(b2)
        col_sums = abs_a.sum(axis=0)
        self.norm_a = float(col_sums.max())
        self.v, self.q = col_sums.dot(b2), 3      # 1^T |A|^q

    def alpha(self, m: int, s: int) -> float:
        """|c_2m+1| || |B|^(2m+1) ||_1 / ||B||_1 at B = 2^-s A.

        ell(B, m) = max(ceil(log2(alpha / u) / 2m), 0), so ell is 0 exactly
        when alpha <= u.  || |A|^q ||_1 is the largest entry of 1^T |A|^q.
        """
        while self.q < 2 * m + 1:
            self.v = self.v.dot(self.b4)
            self.q += 4
        return _PADE_LEAD[m] * float(self.v.max()) / self.norm_a * 2.0 ** (-2 * m * s)


def _pade_degree(a: np.ndarray, p: np.ndarray) -> tuple[int, int] | None:
    """Degree m and scaling s of Al-Mohy & Higham's Algorithm 6.1 for ``a``.

    Fills p[0:4] with A^2, A^4, A^6, A^8 and, for m = 13, p[4] with A^10.
    None when a norm that picks m or s overflows.
    """
    a.dot(a, out=p[0])
    p[0].dot(p[0], out=p[1])
    p[1].dot(p[0], out=p[2])
    p[1].dot(p[1], out=p[3])
    n4, n6, n8 = _norms1(p[1:4])
    d6, d8 = n6 ** (1 / 6), n8 ** 0.125
    eta1, eta3 = max(n4 ** 0.25, d6), max(d6, d8)
    ell = _AbsPowers(a)
    for m, eta in ((3, eta1), (5, eta1), (7, eta3), (9, eta3)):
        if eta <= _PADE_THETA[m] and ell.alpha(m, 0) <= _UNIT_ROUNDOFF:
            return m, 0
    p[1].dot(p[2], out=p[4])
    eta5 = min(eta3, max(d8, _norms1(p[4:5])[0] ** 0.1))
    if not math.isfinite(eta5):
        return None
    s = math.ceil(math.log2(eta5 / _PADE_THETA[13])) if eta5 > _PADE_THETA[13] else 0
    alpha = ell.alpha(13, s)
    if not math.isfinite(alpha):
        return None
    if alpha > _UNIT_ROUNDOFF:                  # ell(2^-s A, 13) more halvings
        s += math.ceil(math.log2(alpha / _UNIT_ROUNDOFF) / 26)
    return 13, s


def _pade_exp(a: np.ndarray) -> np.ndarray | None:
    """exp(a) for a finite nonempty square complex ``a``; None when a norm
    that picks the degree or the scaling overflows."""
    n = a.shape[0]
    nz = np.count_nonzero(a)
    if nz <= n and nz == np.count_nonzero(np.diagonal(a)):
        return np.diag(np.exp(np.diagonal(a)))
    # the powers, then the sums and the solve's operands in spent slots, so
    # that the kernel's peak memory stays near scipy's
    p = np.empty((7, n, n), dtype=complex)
    degree = _pade_degree(a, p)
    if degree is None:
        return None
    m, s = degree
    rows, ident = _PADE_ROWS[m]
    k = rows.shape[1]
    if s:                                       # A^2j of 2^-s A is 2^-2js A^2j
        rows = rows * np.exp2(-2 * s * np.arange(1, k + 1))
        if m == 13:
            rows[0::2] *= 2.0 ** (-6 * s)       # the hi rows meet A^6 again
    # the sums over I, A^2, A^4, ...: real coefficients times the real view
    # of the stacked powers, one product, into the last slots
    w = p[len(p) - len(rows):]
    np.dot(rows, p[:k].view(float).reshape(k, -1), out=w.view(float).reshape(len(rows), -1))
    w.reshape(len(rows), -1)[:, ::n + 1] += ident
    if m == 13:
        w = np.add(np.matmul(p[2], w[0::2], out=p[:2]), w[1::2], out=p[:2])
    u = a.dot(w[0], out=p[2])
    if s:
        u *= 2.0 ** -s
    r = np.linalg.solve(np.subtract(w[1], u, out=p[3]), np.add(w[1], u, out=p[4]))
    for _ in range(s):
        r = r.dot(r)
    return r


def mat_log(t: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm, by ``scipy.linalg.logm``.

    The only scipy call of the package, so scipy is imported here, on first
    use.  Deterministic: ``logm`` estimates a norm from numpy's global
    random stream, so it runs under a fixed seed, and the caller's stream is
    restored afterwards, unadvanced.

    Raises
    ------
    MatrixLogBranchError
        If an eigenvalue lies on the closed negative real axis, where the
        principal branch is undefined.  Callers fall back to working with
        the exponentiated quantities directly.
    MatrixLogError
        If ``logm`` warns that its result may be inaccurate (its estimate of
        ||exp(log t) - t||_1 / ||t||_1 reaches 1000 eps); callers treat this
        like the branch error.
    """
    import scipy.linalg

    t = _as_square(t)
    if t.size == 0:
        return t.copy()
    _check_principal_branch(np.linalg.eigvals(t))
    state = np.random.get_state()
    np.random.seed(0)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "logm result may be inaccurate", RuntimeWarning)
            out = scipy.linalg.logm(t)
    except RuntimeWarning as exc:
        raise MatrixLogError(str(exc)) from None
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


def skew_defect(a: np.ndarray):
    """Relative antisymmetry defect  ||A + A^T||_max / max(1, ||A||_max):
    a float for a matrix, a length-k array for a (k, n, n) stack."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(len(a)) if a.ndim == 3 else 0.0
    axes = (-2, -1)
    scale = np.maximum(1.0, np.abs(a).max(axis=axes))
    defect = np.abs(a + np.swapaxes(a, -1, -2)).max(axis=axes) / scale
    return defect if a.ndim == 3 else float(defect)


def check_skew(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``a`` as a complex square matrix, or a (k, n, n) stack of them,
    refused with :class:`SkewSymmetryError` when it, or a member, is not
    antisymmetric to :data:`SKEW_TOL`."""
    stack = np.ndim(a) == 3
    a = _as_square(a, name, stack=stack)
    d = np.atleast_1d(skew_defect(a))
    bad = np.flatnonzero(d > SKEW_TOL)
    if len(bad):
        what = f"stack member {bad[0]}" if stack else name
        raise SkewSymmetryError(f"{what} is not antisymmetric "
                                f"(defect {d[bad[0]]:.3e} > {SKEW_TOL:.1e})")
    return a


def pfaffian(a: np.ndarray):
    """Pfaffian of a complex antisymmetric matrix, or of each member of a stack.

    Uses skew-symmetric tridiagonalization (Parlett-Reid elimination) with
    partial pivoting.  Row/column interchanges flip the result's sign; that
    parity is tracked as an exact integer, never through a determinant.

    A square matrix gives a complex; a (k, n, n) stack gives a length-k
    complex array, each member pivoting on its own.  Stacked values agree
    with the one-matrix loop to rounding, not bit for bit, except for a
    stack of one, which runs that loop: a member's last bits depend on the
    other members of its stack.  The tests bound the difference by 1e-13
    relative, and exactly zero where the loop is.  The input is checked for
    antisymmetry (:func:`check_skew`), and its rounding-level symmetric
    part is dropped.

    Conventions: ``pf`` of the empty matrix is 1 and of any odd-dimensional
    matrix is 0, which keeps the overlap formulas uniform over all removal
    sets (the vacuum-to-vacuum case empties the matrix entirely).
    """
    a = check_skew(a)
    return _pfaffian_exact(0.5 * (a - np.swapaxes(a, -1, -2)))  # exact antisymmetrization


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
    function are isolated).  Returns ``(value, True)`` when a path resolves
    the winding and ``(None, False)`` when none does; the principal-branch
    value, :func:`sqrt_det_via_log`, is then the caller's fallback to take
    or to refuse.  Each path starts with 12 steps and doubles them, at most
    four times, while some step turns the argument by 1.2 or more.

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
        return None, False
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
    return None, False
