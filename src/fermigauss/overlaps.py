"""Configuration-basis matrix elements of Gaussian operators.

The central formula: for a composed quadratic operator with transfer
matrix T (T22 invertible),

    <J| F |I> = (-1)^(n_I (n_I + 1)/2) (-1)^(n_I n_J)
                det(T22)^(1/2) pf(A restricted),

where ``A = [[X, e^Y], [-e^(Y^T), Z]]`` is built from the factorization
data and the restriction keeps the rows/columns of the occupied sites of
J in the first block and of I in the second block (equivalently, removes
the empty ones), both in increasing order.

When T22 is singular two rescue routes exist: an analytic continuation
in a small admissible perturbation of the generator (signed value,
Richardson-extrapolated), and the particle-hole permutation route which
recovers the magnitude only.  One dispatcher runs the chain Pfaffian ->
continuation -> permutation for every public overlap function and records
each attempt in the result's ``route``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .configs import FockConfig
from .linalg import (
    RCOND_TOL,
    LinalgError,
    SingularBlockError,
    check_skew,
    mat_exp,
    pfaffian,
    sqrt_det_continuous,
)
from .linearpart import LinearGaussianOp, embed
from .quadratic import (
    QuadraticGenerator,
    TransferMatrix,
    _normal_factors,
    cp_apply_transfer,
    cp_suggestions,
    random_generator,
    transfer_of,
)

#: default perturbation schedule for the analytic-continuation fallback
EPS_SCHEDULE = (1e-4, 5e-5)
#: default seed of the recorded random perturbation direction
EPS_SEED = 20240817
#: maximum relative disagreement between successive extrapolations
EPS_AGREE_TOL = 1e-6


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

    ``method`` is one of ``"pfaffian"``, ``"epsilon-regularized"`` or
    ``"cp-magnitude"``; ``sign_certain`` is False only for the last one,
    whose value is a magnitude.  ``route`` lists the attempts of the rescue
    chain that produced the value (see :func:`_dispatch`); it is empty for
    an exact parity zero.
    """

    value: complex
    method: str
    sign_certain: bool = True
    diagnostics: dict = field(default_factory=dict)
    route: list = field(default_factory=list)


class OverlapKernel:
    """Pfaffian evaluation engine for one composed transfer matrix.

    Precomputes the antisymmetric pairing matrix and the scalar prefactor;
    ``element`` then evaluates any configuration pair.  X and Z enter only
    through the quadratic forms, so their (tiny, rounding-level) symmetric
    parts are dropped to keep the Pfaffian input exactly antisymmetric.

    The prefactor det(T22)^(1/2) carries a physical sign.  When the caller
    knows the generators it passes ``path``, a holomorphic ``s -> T22(s)``
    running from the identity at s = 0 to ``t.t22`` at s = 1, and the branch
    is fixed by continuity along it; built from a bare transfer matrix, the
    kernel trusts the principal log branch.  Either runs only after the
    rcond check has passed, so rejecting a singular block costs one SVD.
    """

    def __init__(self, t: TransferMatrix, rcond_tol: float = RCOND_TOL, path=None):
        self.L = t.L
        det_root = None if path is None else (lambda t22: sqrt_det_continuous(path, t22))
        fac = _normal_factors(t.t12, t.t21, t.t22, rcond_tol, det_root)
        self.rcond = fac.rcond
        x = 0.5 * (fac.x - fac.x.T)
        z = 0.5 * (fac.z - fac.z.T)
        self.pairing = np.block([[x, fac.exp_y], [-fac.exp_y.T, z]])
        self.prefactor, self.sign_certain = fac.prefactor, fac.sign_certain

    def element(self, bra: FockConfig, ket: FockConfig) -> complex:
        """<J| F |I>; exact zero on parity mismatch."""
        if bra.L != self.L or ket.L != self.L:
            raise ValueError("configuration length does not match operator size")
        n_i = ket.n_occupied
        n_j = bra.n_occupied
        if (n_i + n_j) % 2:
            return complex(0.0)
        keep = [j - 1 for j in bra.occupied] + [self.L + i - 1 for i in ket.occupied]
        sub = self.pairing[np.ix_(keep, keep)]
        sign = -1.0 if (n_i * (n_i + 1) // 2 + n_i * n_j) % 2 else 1.0
        return sign * self.prefactor * pfaffian(sub)


def _as_transfer(composed) -> TransferMatrix:
    if isinstance(composed, TransferMatrix):
        return composed
    if isinstance(composed, QuadraticGenerator):
        return transfer_of(composed)
    raise TypeError(f"expected QuadraticGenerator or TransferMatrix, got {type(composed)}")


class _ProductPath:
    """The continuity path ``s -> T22(s)`` of exp(s M2^dag) exp(s M1).

    ``g1`` and ``g2`` are the ket and bra generators (``g2`` None for the
    identity).  A real point is reached from the last one evaluated by one
    step, e^{(s+h)M} = e^{hM} e^{sM}, carrying only what reaches T22: the
    right L columns of e^{sM1} and the bottom L rows of e^{sM2^dag}.  A step
    within rounding of the current one reuses it; a new step length is
    taken from the generators, which cache its exponentials, so an equally
    spaced grid costs one ``mat_exp`` per generator and side the first time
    and none after.  A point whose real part does not increase begins a new
    path at the identity.  Complex points (the detours) are exponentiated
    directly.
    """

    def __init__(self, g1: QuadraticGenerator, g2: QuadraticGenerator | None):
        self.g1, self.g2 = g1, g2
        self.m1, self.m2dag = g1.m, None if g2 is None else g2.m.conj().T
        self.half = g1.L
        self._s = None      # last real point; None after a complex one
        self._right = self._bottom = None   # None stands for the identity
        self._step = None   # (h, e^{h M1}, e^{h M2^dag})

    def _step_exp(self, h: float):
        if self._step is None or abs(h - self._step[0]) > 1e-12 * h:
            e2 = None if self.g2 is None else self.g2._step_exp(h, True)
            self._step = (h, self.g1._step_exp(h, False), e2)
        return self._step[1:]

    def __call__(self, s: complex) -> np.ndarray:
        s, half = complex(s), self.half
        if s.imag != 0.0:
            self._s = None
            right = mat_exp(s * self.m1)[:, half:]
            return right[half:] if self.m2dag is None else mat_exp(s * self.m2dag)[half:] @ right
        if self._s is None or s.real <= self._s:
            self._s, self._right, self._bottom = 0.0, None, None
        e1, e2 = self._step_exp(s.real - self._s)
        self._s = s.real
        self._right = e1[:, half:] if self._right is None else e1 @ self._right
        if e2 is None:
            return self._right[half:]
        self._bottom = e2[half:] if self._bottom is None else self._bottom @ e2
        return self._bottom @ self._right


def _pair_kernel(g1: QuadraticGenerator, g2: QuadraticGenerator | None, rcond_tol: float):
    """:func:`pair_kernel` of the ket generator ``g1`` and the bra generator
    ``g2`` (None for the identity), together with exp(M1), the ket-side
    transfer.  Both exponentials are the ones cached on the generators."""
    t1 = g1._exp
    t = t1 if g2 is None else g2._exp_dagger @ t1
    return OverlapKernel(TransferMatrix(t), rcond_tol, path=_ProductPath(g1, g2)), t1


def pair_kernel(m1: np.ndarray, m2dag: np.ndarray | None = None,
                rcond_tol: float = RCOND_TOL) -> OverlapKernel:
    """Kernel for <J| exp(M2^dag) exp(M1) |I> with a continuity-tracked sign.

    ``m2dag`` is the adjoint generator matrix (None for an identity bra
    operator); both are validated as :class:`QuadraticGenerator` matrices.
    The det(T22)^(1/2) branch is fixed by following the path
    s -> exp(s M2^dag) exp(s M1) from the identity, which is holomorphic
    in s and therefore admits complex detours around determinant zeros.
    """
    g2 = None if m2dag is None else QuadraticGenerator(np.asarray(m2dag).conj().T)
    return _pair_kernel(QuadraticGenerator(m1), g2, rcond_tol)[0]


def compose_bra_ket(op2, op1) -> TransferMatrix:
    """Transfer matrix of e^(M2^dag) e^(M1), i.e. of <M2(J)| ... |M1(I)>.

    Works at the transfer level only, so it never hits a log-branch failure.
    """
    t1 = op1 if isinstance(op1, TransferMatrix) else transfer_of(op1)
    t2 = op2 if isinstance(op2, TransferMatrix) else transfer_of(op2)
    return TransferMatrix(t2.t.conj().T @ t1.t)


# ---------------------------------------------------------------------------
# the rescue chain
# ---------------------------------------------------------------------------

#: the routes in the order ``method="auto"`` tries them
ROUTES = ("pfaffian", "epsilon", "cp-magnitude")


def _dispatch(kernel_at, evaluate, L: int | None, cp, *, method: str,
              rcond_tol: float, eps_schedule, eps_seed: int) -> OverlapResult:
    """Run the rescue chain pfaffian -> epsilon -> cp-magnitude.

    ``kernel_at(delta, rcond_tol)`` builds the kernel (anything with
    ``rcond`` and ``sign_certain`` attributes) of the ket-side generator
    shifted by the matrix ``delta``, unshifted for ``delta=None``, and
    ``evaluate(kernel)`` turns a kernel into the value.  ``L`` is the site
    count of that generator, or None when only a transfer matrix is known,
    which rules out the epsilon route.  ``cp()`` returns the transfer and
    the two configurations of the magnitude route; ``cp=None`` rules that
    route out for callers that need a signed value.

    ``method="auto"`` tries the available routes in order and accepts the
    Pfaffian only with a certain sign; a route name forces that route
    alone, which then accepts whatever sign it finds.  Every attempt is
    recorded in the result's ``route``: the route name, whether it was
    accepted, on rejection the ``reason``, and the diagnostics that decided
    it.  When every route fails, the last route's error is raised with the
    same list attached as ``.route``.
    """
    available = {"pfaffian": True, "epsilon": L is not None, "cp-magnitude": cp is not None}
    if method == "auto":
        names = [name for name in ROUTES if available[name]]
    elif available.get(method):
        names = [method]
    elif method in available:
        raise ValueError(f"method {method!r} needs the composed generator, not just T")
    else:
        raise ValueError(f"unknown method {method!r}; expected 'auto' or one of {ROUTES}")
    route: list[dict] = []
    for name in names:
        try:
            if name == "pfaffian":
                kern = kernel_at(None, rcond_tol)
                why = {"rcond": kern.rcond, "sign_certain": kern.sign_certain}
                if not kern.sign_certain and len(names) > 1:
                    route.append({"route": name, "accepted": False,
                                  "reason": "sign_certain", **why})
                    continue
                res = OverlapResult(evaluate(kern), "pfaffian", kern.sign_certain,
                                    {"rcond": kern.rcond})
            elif name == "epsilon":
                res = _epsilon_extrapolate(
                    lambda eps, g: evaluate(kernel_at(eps * g.m, rcond_tol)),
                    L, eps_schedule, eps_seed)
                why = {"eps_disagreement": res.diagnostics["eps_disagreement"]}
            else:
                res = overlap_magnitude_cp(*cp(), rcond_tol=rcond_tol)
                why = {"cp_sites": res.diagnostics["cp_sites"], "rcond": res.diagnostics["rcond"]}
        except (SingularBlockError, ExtrapolationError) as exc:
            if isinstance(exc, ExtrapolationError):
                d = exc.disagreement
                why = {"reason": "eps_disagreement",
                       "eps_disagreement": float(d) if np.isfinite(d) else None}
            elif name == "cp-magnitude":
                why = {"reason": "cp_sites", "cp_sites": None}
            else:
                why = {"reason": "rcond", "rcond": exc.rcond}
            route.append({"route": name, "accepted": False, **why})
            if name == names[-1]:
                exc.route = route
                raise
            continue
        route.append({"route": name, "accepted": True, **why})
        res.route = route
        return res


def _quadratic_overlap(g1, g2, transfer, bra: FockConfig, ket: FockConfig,
                       **options) -> OverlapResult:
    """<J| exp(M2^dag) exp(M1) |I> through the rescue chain.

    ``g1`` and ``g2`` are the ket and bra generators (``g2`` None for the
    identity).  ``transfer()`` gives the composed transfer matrix; it runs
    at most once.  ``g1`` is None when only that transfer is known: the
    sign then comes from the principal branch and the epsilon route is
    unavailable.
    """
    if (bra.n_occupied + ket.n_occupied) % 2:
        return OverlapResult(complex(0.0), "pfaffian", True, {"parity_zero": True})
    transfer = functools.cache(transfer)
    if g1 is None:
        def kernel_at(delta, tol):
            return OverlapKernel(transfer(), tol)
    else:
        def kernel_at(delta, tol):
            g = g1 if delta is None else QuadraticGenerator(g1.m + delta)
            return _pair_kernel(g, g2, tol)[0]
    return _dispatch(kernel_at, lambda k: k.element(bra, ket),
                     None if g1 is None else g1.L,
                     lambda: (transfer(), bra, ket), **options)


def overlap(composed, bra: FockConfig, ket: FockConfig, *,
            method: str = "auto",
            rcond_tol: float = RCOND_TOL,
            eps_schedule=EPS_SCHEDULE,
            eps_seed: int = EPS_SEED) -> OverlapResult:
    """<J| F |I> for an already-composed quadratic operator.

    ``composed`` is the generator M (with exp(M2^dag) exp(M1) = exp(M)) or
    its transfer matrix.  ``method="auto"`` uses the Pfaffian formula when
    T22 is invertible, then falls back to the perturbative continuation
    (requires the generator) and finally to the permutation magnitude.
    Forced methods: ``"pfaffian"``, ``"epsilon"``, ``"cp-magnitude"``.
    """
    if isinstance(composed, QuadraticGenerator):
        g1, transfer = composed, (lambda: transfer_of(composed))
    else:
        t = _as_transfer(composed)
        g1, transfer = None, (lambda: t)
    return _quadratic_overlap(g1, None, transfer, bra, ket, method=method,
                              rcond_tol=rcond_tol, eps_schedule=eps_schedule,
                              eps_seed=eps_seed)


def state_overlap(op1, op2, bra: FockConfig, ket: FockConfig, *,
                  method: str = "auto",
                  rcond_tol: float = RCOND_TOL,
                  eps_schedule=EPS_SCHEDULE,
                  eps_seed: int = EPS_SEED) -> OverlapResult:
    """<M2(J)|M1(I)> for two quadratic operators (generators or transfers).

    Takes the same methods as :func:`overlap`.  The sign is tracked and the
    perturbative fallback, which perturbs the ket-side generator, is
    available only when both generators are known.
    """
    if isinstance(op1, QuadraticGenerator) and isinstance(op2, QuadraticGenerator):
        g1, g2 = op1, op2
    else:
        g1 = g2 = None
    return _quadratic_overlap(g1, g2, lambda: compose_bra_ket(op2, op1), bra, ket,
                              method=method, rcond_tol=rcond_tol,
                              eps_schedule=eps_schedule, eps_seed=eps_seed)


def _epsilon_extrapolate(value_at, L: int, schedule, seed: int) -> OverlapResult:
    """Quadratic Richardson extrapolation of ``value_at(eps, G)`` to eps -> 0.

    G is a fixed random admissible generator drawn from ``seed`` (recorded
    in the diagnostics), which generically restores the invertibility of
    T22.  The stated two-point schedule is augmented with one halved point;
    the convergence diagnostic compares the linear extrapolations of
    successive pairs and fails loudly when they disagree beyond
    EPS_AGREE_TOL.
    """
    g = random_generator(L, seed, scale=1.0)
    e1, e2 = float(schedule[0]), float(schedule[1])
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
    diagnostics = {
        "eps_schedule": eps,
        "eps_seed": seed,
        "eps_disagreement": disagreement,
    }
    if disagreement > EPS_AGREE_TOL:
        raise ExtrapolationError(disagreement)
    return OverlapResult(val, "epsilon-regularized", True, diagnostics)


def overlap_magnitude_cp(composed, bra: FockConfig, ket: FockConfig, *,
                         rcond_tol: float = RCOND_TOL) -> OverlapResult:
    """|<J| F |I>| through a particle-hole permutation.

    Applies the first site subset S, in :func:`cp_scan` order, that makes
    the permuted T22 invertible (the search stops there), exchanges
    occupations 0 <-> 1 on S in both configurations and evaluates the
    permuted overlap.  The sign is genuinely ambiguous in this picture, so
    the magnitude is returned with ``sign_certain=False``.
    """
    t = _as_transfer(composed)
    found = cp_suggestions(t, rcond_tol, limit=1)
    if not found:
        raise SingularBlockError(
            "no site subset restores invertibility; unsupported instance", 0.0
        )
    sites = found[0]
    kern = OverlapKernel(cp_apply_transfer(t, sites), rcond_tol)
    val = kern.element(bra.flipped(sites), ket.flipped(sites))
    return OverlapResult(
        complex(abs(val)), "cp-magnitude", False,
        {"cp_sites": sites, "rcond": kern.rcond},
    )


# ---------------------------------------------------------------------------
# overlaps of states generated by operators with linear parts
# ---------------------------------------------------------------------------

def generalized_overlap(op1: LinearGaussianOp, op2: LinearGaussianOp,
                        bra: FockConfig, ket: FockConfig, *,
                        method: str = "auto",
                        eps_schedule=EPS_SCHEDULE,
                        eps_seed: int = EPS_SEED) -> OverlapResult:
    """<(M2,u2,v2)(J) | (M1,u1,v1)(I)> via the ancilla embedding.

    Takes the same methods as :func:`overlap`, at the default rcond_tol.  The bra ancilla is always
    empty; the ket ancilla carries the parity mismatch of the two
    configurations.  There is no parity short-circuit here: opposite-parity
    overlaps are generally nonzero once linear terms are present (they
    vanish again, through the Pfaffian, when u = v = 0).
    """
    if not (op1.L == op2.L == bra.L == ket.L):
        raise ValueError("inconsistent site counts")
    bra_e = bra.with_ancilla(0)
    ket_e = ket.with_ancilla(0 if bra.parity == ket.parity else 1)
    g1, g2 = embed(op1), embed(op2)

    def kernel_at(delta, tol):
        g = g1 if delta is None else embed(LinearGaussianOp(op1.m + delta, op1.u, op1.v))
        return _pair_kernel(g, g2, tol)[0]

    def cp():
        return compose_bra_ket(g2, g1), bra_e, ket_e

    return _dispatch(kernel_at, lambda k: k.element(bra_e, ket_e), op1.L, cp,
                     method=method, rcond_tol=RCOND_TOL,
                     eps_schedule=eps_schedule, eps_seed=eps_seed)


# ---------------------------------------------------------------------------
# pair states  exp((1/2) c^dag R c^dag + u^dag c^dag) |0>
# ---------------------------------------------------------------------------

def pair_state_amplitude(r: np.ndarray, u, cfg: FockConfig) -> complex:
    """<J | exp((1/2) c^dag R c^dag + u^dag c^dag) |0>.

    Even occupation: Pfaffian of R restricted to the occupied sites.  Odd
    occupation: the same with R bordered by the linear coefficients (the
    border row/column is never removed).
    """
    r = check_skew(np.asarray(r, dtype=complex), name="R")
    L = r.shape[0]
    u = np.zeros(L, dtype=complex) if u is None else np.asarray(u, dtype=complex)
    if cfg.L != L:
        raise ValueError("configuration length does not match R")
    occ = [j - 1 for j in cfg.occupied]
    if cfg.n_occupied % 2 == 0:
        return pfaffian(r[np.ix_(occ, occ)])
    uc = u.conj()
    bordered = np.zeros((L + 1, L + 1), dtype=complex)
    bordered[:L, :L] = r
    bordered[:L, L] = uc
    bordered[L, :L] = -uc
    keep = occ + [L]
    return pfaffian(bordered[np.ix_(keep, keep)])


def pair_state_norm(r: np.ndarray, u) -> float:
    """Inner product <psi|psi> of the (unnormalized) pair state.

    Evaluated as the square root of the closed-form determinant

        <psi|psi>^2 = (1 + |u|^2)^(1-L)
                      det[(1 + |u|^2)(I + u u^dag)
                          + R^dag ((1 + |u|^2) I - u* u^T) R],

    which at u = 0 reduces to <psi|psi>^2 = det(I + R^dag R).
    """
    r = check_skew(np.asarray(r, dtype=complex), name="R")
    L = r.shape[0]
    u = np.zeros(L, dtype=complex) if u is None else np.asarray(u, dtype=complex)
    nu = 1.0 + float(np.real(u @ u.conj()))
    eye = np.eye(L)
    inner = nu * (eye + np.outer(u, u.conj())) + r.conj().T @ (nu * eye - np.outer(u.conj(), u)) @ r
    det = complex(np.linalg.det(inner)) * nu ** (1 - L)
    if abs(det.imag) > 1e-9 * max(1.0, abs(det)) or det.real <= 0:
        raise LinalgError(f"norm determinant not positive real: {det}")
    return float(np.sqrt(det.real))


# ---------------------------------------------------------------------------
# full Grassmann-integral cross-check
# ---------------------------------------------------------------------------

def grassmann_pairing_matrix(x: np.ndarray, exp_y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The intermediate 6L x 6L antisymmetric matrix of the coherent-state
    integral, before the integration over auxiliary variable pairs.

    Its Pfaffian with the corresponding row/column removals must coincide
    with the reduced 2L x 2L form; this is exercised as a property test,
    the production path always uses the reduced matrix.
    """
    L = x.shape[0]
    eye = np.eye(L, dtype=complex)
    o = np.zeros((L, L), dtype=complex)
    return np.block([
        [x, eye, o, o, o, o],
        [-eye, o, eye, o, o, o],
        [o, -eye, o, exp_y, o, o],
        [o, o, -exp_y.T, o, eye, o],
        [o, o, o, -eye, o, eye],
        [o, o, o, o, -eye, z],
    ])


def grassmann_reduced_pfaffian(x, exp_y, z, bra: FockConfig, ket: FockConfig) -> complex:
    """pf of the 6L x 6L matrix with rows/cols J0 and 5L + I0 removed."""
    L = x.shape[0]
    big = grassmann_pairing_matrix(x, exp_y, z)
    keep = [j - 1 for j in bra.occupied] + list(range(L, 5 * L)) \
        + [5 * L + i - 1 for i in ket.occupied]
    return pfaffian(big[np.ix_(keep, keep)])
