import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import fock, quadratic
from fermigauss.linalg import (
    LinalgError,
    MatrixLogBranchError,
    SkewSymmetryError,
    _check_principal_branch,
    _pfaffian_exact,
    check_skew,
    mat_exp,
    mat_log,
    pfaffian,
    rcond_estimate,
    skew_defect,
    sqrt_det_continuous,
    sqrt_det_via_log,
)
from fermigauss.linearpart import embed
from fermigauss.overlaps import OverlapKernel, _pair_kernel
from fermigauss.quadratic import TransferMatrix, bbd_normal, random_generator, transfer_of

from conftest import j_matrix, random_linear_op, random_skew, worked_example_m, worked_example_t


def assert_matches_scipy_expm(a: np.ndarray) -> None:
    """``mat_exp`` against ``scipy.linalg.expm``, the reference on the test
    side only, in the max-norm relative to max(1, max |reference|)."""
    ref = scipy.linalg.expm(a)
    assert np.max(np.abs(mat_exp(a) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def taylor_exp(a: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


class TestMatExp:
    def test_zero_gives_identity(self):
        for n in (1, 3, 5):
            assert np.array_equal(mat_exp(np.zeros((n, n))), np.eye(n))

    def test_overflow_raises(self):
        with pytest.raises(LinalgError, match="overflows"):
            mat_exp(np.diag([800.0, 0.0]))

    @pytest.mark.parametrize("scale", [3e3, 1e40])
    def test_dense_overflow_raises_without_warning(self, scale):
        # 3e3 overflows in the squarings, 1e40 already in the powers of A
        # that pick the degree
        a = scale * random_generator(4, 5, 1.0).m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinalgError, match="overflows"):
                mat_exp(a)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
           st.floats(np.log(0.05), np.log(30.0)))
    def test_matches_scipy_on_admissible_generators(self, L, seed, log_scale):
        assert_matches_scipy_expm(random_generator(L, seed, float(np.exp(log_scale))).m)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["zero", "diagonal", "upper", "lower"]))
    def test_matches_scipy_on_structured_input(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        a = 3.0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = {"zero": 0.0 * a, "diagonal": np.diag(np.diagonal(a)),
             "upper": np.triu(a, 1), "lower": np.tril(a, -1)}[kind]
        assert_matches_scipy_expm(a)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.5))
    def test_matches_scipy_on_fock_generators(self, L, seed, scale):
        op = random_linear_op(np.random.default_rng(seed), L, scale)
        assert_matches_scipy_expm(fock.quadratic_exponent(op.m, op.u, op.v))

    def test_diagonal_input_is_exponentiated_entrywise(self):
        d = np.array([0.3 - 1.0j, -2.0, 0.0, 5.5j])
        assert np.array_equal(mat_exp(np.diag(d)), np.diag(np.exp(d)))

    def test_worked_example_closed_form(self):
        for a in (0.3, 0.7, 1.2):
            assert np.max(np.abs(mat_exp(worked_example_m(a)) - worked_example_t(a))) < 1e-13

    def test_against_taylor_series(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            a /= max(1.0, np.linalg.norm(a))
            assert np.max(np.abs(mat_exp(a) - taylor_exp(a))) < 1e-12

    def test_inverse_pairing(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            a *= 5.0 / np.linalg.norm(a)
            prod = mat_exp(a) @ mat_exp(-a)
            assert np.max(np.abs(prod - np.eye(5))) < 1e-11

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0], [0, 0]]))


class TestMatLog:
    def test_identity(self):
        assert np.max(np.abs(mat_log(np.eye(4)))) == 0.0

    def test_round_trips(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a *= 0.5 / np.linalg.norm(a)
            assert np.max(np.abs(mat_log(mat_exp(a)) - a)) < 1e-10
            t = mat_exp(a)
            assert np.max(np.abs(mat_exp(mat_log(t)) - t)) < 1e-10

    def test_planar_rotation(self):
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        gen = mat_log(rot)
        assert abs(gen[0, 1] + th) < 1e-12 and abs(gen[1, 0] - th) < 1e-12
        assert abs(gen[0, 0]) < 1e-12

    def test_leaves_the_global_random_stream_alone(self):
        a = 0.3 * random_skew(np.random.default_rng(4), 12)
        t = mat_exp(a)
        before = np.random.get_state()
        logs = [mat_log(t) for _ in range(5)]
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        assert np.array_equal(before[1], after[1])
        assert all(np.array_equal(g, logs[0]) for g in logs)

    def test_empty(self):
        out = mat_log(np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == complex

    def test_branch_and_singular_errors(self):
        with pytest.raises(MatrixLogBranchError):
            mat_log(np.diag([-1.0, 2.0]))
        with pytest.raises(MatrixLogBranchError):
            mat_log(np.diag([0.0, 1.0]))


class TestPfaffian:
    def test_two_by_two(self):
        a = 0.7 - 0.2j
        assert pfaffian(np.array([[0, a], [-a, 0]])) == pytest.approx(a)

    def test_four_by_four_expansion(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a12, a13, a14, a23, a24, a34 = v
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1], m[0, 2], m[0, 3] = a12, a13, a14
        m[1, 2], m[1, 3] = a23, a24
        m[2, 3] = a34
        m -= m.T
        expected = a12 * a34 - a13 * a24 + a14 * a23
        assert pfaffian(m) == pytest.approx(expected, rel=1e-12)

    def test_conventions(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0
        assert pfaffian(np.zeros((3, 3))) == 0.0

    def test_square_equals_determinant(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6, 8):
            a = random_skew(rng, n)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf ** 2 - det) < 1e-10 * max(1.0, abs(det))

    def test_signed_permutation_covariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_skew(rng, 6)
            perm = rng.permutation(6)
            signs = rng.choice([-1.0, 1.0], size=6)
            p = np.zeros((6, 6))
            p[perm, np.arange(6)] = signs
            lhs = pfaffian(p.T @ a @ p)
            rhs = np.linalg.det(p) * pfaffian(a)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_direct_sum_multiplicativity(self):
        rng = np.random.default_rng(7)
        a = random_skew(rng, 4)
        b = random_skew(rng, 2)
        blocks = np.block([
            [a, np.zeros((4, 2))],
            [np.zeros((2, 4)), b],
        ])
        assert pfaffian(blocks) == pytest.approx(pfaffian(a) * pfaffian(b), rel=1e-10)

    def test_rejects_non_skew(self):
        with pytest.raises(SkewSymmetryError):
            pfaffian(np.eye(2))


class TestBlockLDU:
    """The pivot-block invertibility test of the block LDU factorizations
    (``bbd_normal``/``bbd_antinormal``, the overlap kernel, the cp scan)."""

    def test_rcond_estimate(self):
        assert rcond_estimate(np.eye(3)) == pytest.approx(1.0)
        assert rcond_estimate(np.zeros((0, 0))) == 1.0
        assert rcond_estimate(np.diag([1.0, 0.0])) == 0.0

    def test_rcond_estimate_stack(self):
        rng = np.random.default_rng(61)
        stack = rng.standard_normal((7, 5, 5)) + 1j * rng.standard_normal((7, 5, 5))
        stack[3] = 0.0
        got = rcond_estimate(stack)
        assert got.shape == (7,) and got[3] == 0.0
        assert np.array_equal(got, [rcond_estimate(a) for a in stack])
        assert rcond_estimate(np.zeros((0, 5, 5))).shape == (0,)
        assert np.array_equal(rcond_estimate(np.zeros((3, 0, 0))), np.ones(3))
        assert isinstance(rcond_estimate(stack[0]), float)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rcond_estimate_rejects_non_finite(self, bad):
        stack = np.ones((2, 3, 3), dtype=complex)
        stack[1, 2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            rcond_estimate(stack)
        with pytest.raises(ValueError, match="non-finite"):
            rcond_estimate(stack[1])


class TestSqrtDet:
    def test_principal_branch(self):
        val, certain = sqrt_det_via_log(np.diag([4.0, 1.0]))
        assert certain and val == pytest.approx(2.0)

    def test_empty(self):
        assert sqrt_det_via_log(np.zeros((0, 0))) == (1.0, True)

    def test_continuous_tracks_winding(self):
        # along s -> exp(2.4 i pi s) the determinant winds past the cut, so
        # the principal square root (+exp(0.2 i pi)) is off by a sign
        k = 2.4j * np.pi
        val, certain = sqrt_det_continuous(lambda s: np.array([[np.exp(k * s)]]),
                                           np.array([[np.exp(k)]]))
        assert certain
        assert val == pytest.approx(np.exp(1.2j * np.pi), rel=1e-9)
        principal, _ = sqrt_det_via_log(np.array([[np.exp(k)]]))
        assert abs(val + principal) < 1e-9

    def test_continuous_detours_around_zero(self):
        # det vanishes at s = 1/2 on the real path
        val, certain = sqrt_det_continuous(
            lambda s: np.array([[1.0 - 2.0 * s, 0.0], [0.0, 1.0]], dtype=complex),
            np.diag([-1.0, 1.0]))
        assert certain
        assert abs(val ** 2 - (-1.0)) < 1e-9


# ---------------------------------------------------------------------------
# bit identity with the straightforward forms of the kernels
# ---------------------------------------------------------------------------

def reference_pfaffian(a: np.ndarray) -> tuple[complex, int]:
    """Parlett-Reid as first written (full-width fancy-index interchanges,
    two ``np.outer`` calls): the Pfaffian and the number of interchanges."""
    a = check_skew(a)
    n = a.shape[0]
    if n == 0:
        return complex(1.0), 0
    if n % 2:
        return complex(0.0), 0
    m = 0.5 * (a - a.T)
    swaps = 0
    result = complex(1.0)
    for k in range(0, n - 2, 2):
        col = np.abs(m[k + 1:, k])
        piv = k + 1 + int(np.argmax(col))
        if col[piv - k - 1] == 0.0:
            return complex(0.0), swaps
        if piv != k + 1:
            m[[k + 1, piv], :] = m[[piv, k + 1], :]
            m[:, [k + 1, piv]] = m[:, [piv, k + 1]]
            swaps += 1
        result *= m[k, k + 1]
        tau = m[k + 2:, k] / m[k + 1, k]
        w = m[k + 2:, k + 1]
        m[k + 2:, k + 2:] += np.outer(tau, w) - np.outer(w, tau)
    result *= m[n - 2, n - 1]
    return (complex(result) if swaps % 2 == 0 else -complex(result)), swaps


def paired_skew(rng, n: int, pairs, scale: float) -> np.ndarray:
    """Unit pairing on ``pairs`` plus 1e-3 noise, times ``scale``: elimination
    takes each pair's partner as the pivot, the noise only rounds."""
    a = 1e-3 * random_skew(rng, n)
    for i, j in pairs:
        a[i, j] += 1.0
        a[j, i] -= 1.0
    return scale * a


def pivot_case(kind: str, n: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "no-swap":          # pivot (k+1, k) at every step
        return paired_skew(rng, n, [(k, k + 1) for k in range(0, n - 1, 2)], scale)
    if kind == "swap-every-step":  # partner of row k sits in the last row at every step
        pairs = [(0, n - 1)] + [(k - 1, k) for k in range(2, n - 1, 2)] if n > 2 else []
        return paired_skew(rng, n, pairs, scale)
    a = random_skew(rng, n, scale)
    if kind == "zero-columns" and n:
        for j in rng.choice(n, size=1 + n // 8, replace=False):
            a[:, j] = a[j, :] = 0.0
    return a


PIVOT_KINDS = ("random", "zero-columns", "no-swap", "swap-every-step")


class TestPfaffianBitIdentity:
    """The lean elimination loop returns exactly what the straightforward one does."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(0, 96), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(PIVOT_KINDS), st.sampled_from([1e-3, 1.0, 1e3]))
    def test_equals_reference(self, n, seed, kind, scale):
        a = pivot_case(kind, n, seed, scale)
        ref, swaps = reference_pfaffian(a)
        assert pfaffian(a) == ref
        if kind == "no-swap":
            assert swaps == 0
        elif kind == "swap-every-step" and n % 2 == 0:
            assert swaps == max(0, n // 2 - 1)

    @pytest.mark.parametrize("n", [4, 10, 33, 64, 96])
    @pytest.mark.parametrize("kind", PIVOT_KINDS)
    def test_grid_corners(self, n, kind):
        a = pivot_case(kind, n, n, 1.0)
        assert pfaffian(a) == reference_pfaffian(a)[0]
        if kind == "zero-columns":
            assert pfaffian(a) == 0.0


def reference_j_defect(t: np.ndarray) -> float:
    """max |T J T^T - J| / max(1, max|T|^2) with J formed as a matrix."""
    if t.size == 0:
        return 0.0
    L = t.shape[0] // 2
    perm = np.concatenate([np.arange(L, 2 * L), np.arange(L)])
    scale = max(1.0, float(np.max(np.abs(t))) ** 2)
    return float(np.max(np.abs(t[:, perm] @ t.T - j_matrix(L)))) / scale


class TestJDefectBitIdentity:
    @pytest.mark.parametrize("L", [0, 1, 2, 5, 16, 33])
    @pytest.mark.parametrize("scale", [0.3, 3.0])
    def test_equals_reference(self, L, scale):
        rng = np.random.default_rng(L)
        t = np.asarray(transfer_of(random_generator(L, rng, scale)).t)
        for noise in (0.0, 1e-12, 1e-6, 1.0):
            u = t + noise * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
            assert TransferMatrix._defect(u) == reference_j_defect(u)

    def test_non_finite(self):
        t = np.eye(4, dtype=complex)
        t[1, 2] = np.nan
        assert np.isnan(TransferMatrix._defect(t)) and np.isnan(reference_j_defect(t))

    @pytest.mark.parametrize("entry", [1e154, 2e154])
    def test_beyond_float_range(self, entry):
        # finite T whose T J T^T (at 1e154) or max|T|^2 (at 2e154) overflows
        with pytest.raises(LinalgError, match="J-orthogonality check overflows"):
            TransferMatrix._defect(np.full((4, 4), entry, dtype=complex))


def reference_branch_check(eigs: np.ndarray) -> None:
    """The principal-branch test eigenvalue by eigenvalue."""
    scale = max(1.0, float(np.max(np.abs(eigs))))
    for lam in eigs:
        if abs(lam) <= 1e-14 * scale:
            raise MatrixLogBranchError(f"matrix is singular (eigenvalue {lam})")
        if lam.real < 0 and abs(lam.imag) <= 1e-12 * abs(lam):
            raise MatrixLogBranchError(f"eigenvalue {lam} on the negative real axis")


def raised(check, eigs):
    try:
        check(eigs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the comparison
        return type(exc), str(exc)
    return None


class TestPrincipalBranchBitIdentity:
    @pytest.mark.parametrize("eigs", [
        [2.0, 1e-20, -3.0, 0.5j],            # singular first
        [2.0, -3.0 + 1e-15j, 0.0, 1.0],      # negative axis first, a singular one later
        [1.0, 1e-30 + 1e-30j, -1.0],         # both kinds, the singular one first
        [-4.0, 1.0],                         # negative axis only
        [1e3, 1e-12, -1e-12 + 1e-30j],       # tiny relative to the largest eigenvalue
        [1.0 + 1j, -1.0 + 1e-3j, 2.0],       # nothing offends
        [0.5, -9.626681429324232e-15 - 2.7068440402623796e-15j],  # |lam| exactly at 1e-14
    ])
    def test_same_type_and_message(self, eigs):
        eigs = np.asarray(eigs, dtype=complex)
        assert raised(_check_principal_branch, eigs) == raised(reference_branch_check, eigs)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    def test_random_spectra(self, n, seed):
        rng = np.random.default_rng(seed)
        eigs = rng.standard_normal(n) + 1j * rng.standard_normal(n) * rng.choice([0.0, 1e-13, 1.0], n)
        eigs *= rng.choice([1.0, 1e-15, 1e-20], n)
        assert raised(_check_principal_branch, eigs) == raised(reference_branch_check, eigs)


def zero_pivot_stack(n: int, size: int, seed: int, scale: float) -> np.ndarray:
    """``size`` random antisymmetric matrices; member i > 0 has a zero row and
    column at an even position 2s, so its elimination meets an exactly zero
    pivot at step s (rows at even positions are never interchanged earlier)."""
    rng = np.random.default_rng(seed)
    a = np.array([random_skew(rng, n, scale) for _ in range(size)]).reshape(size, n, n)
    if n >= 2:
        for i in range(1, size):
            j = 2 * int(rng.integers(0, n // 2))
            a[i, j, :] = a[i, :, j] = 0.0
    return a


#: a stacked Pfaffian's relative deviation from the one-matrix loop
#: (ROADMAP item 3's gate); random stacks of up to 128 members at n <= 64
#: stay below 1.4e-15
STACK_REL_TOL = 1e-13


class TestPfaffianStack:
    """A (k, n, n) stack: one Parlett-Reid run, each member pivoting on its own."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(st.integers(0, 40), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_agrees_with_one_at_a_time(self, n, size, seed, scale):
        a = zero_pivot_stack(n, size, seed, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = pfaffian(a)
        assert stacked.shape == (size,) and stacked.dtype == complex
        for member, got in zip(a, stacked):
            ref = pfaffian(member)
            if ref == 0.0:
                assert got == 0.0
            else:
                assert abs(got - ref) <= 1e-14 * abs(ref)
        if n % 2 == 0 and n >= 2:
            assert np.all(stacked[1:] == 0.0)   # every zero-pivot member
        if size == 1:
            assert stacked[0] == pfaffian(a[0])   # a stack of one runs the same loop

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 64), st.sampled_from([2, 17, 128]), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1e-3, 1.0, 1e3]))
    def test_member_bound_whatever_shares_the_stack(self, n, size, seed, scale):
        # each member of a _pfaffian_stack call is within STACK_REL_TOL of its
        # value from _pfaffian_one, relative, and exactly zero where that is.
        # The last bits depend on which members share the stack, so every
        # other member is stacked apart as well and held to the same bound.
        # Odd orders give exact zeros; every third member has a zero row and
        # column, so its elimination stops at an exactly zero pivot or ends
        # on one.
        rng = np.random.default_rng(seed)
        a = np.array([random_skew(rng, n, scale) for _ in range(size)]).reshape(size, n, n)
        if n:
            for i in range(1, size, 3):
                j = int(rng.integers(n))
                a[i, j, :] = a[i, :, j] = 0.0
        stacks = [(_pfaffian_exact(a.copy()), range(size)),
                  (_pfaffian_exact(a[::2].copy()), range(0, size, 2))]
        for values, members in stacks:
            for got, i in zip(values, members, strict=True):
                one = _pfaffian_exact(a[i].copy())
                if one == 0.0:
                    assert got == 0.0
                else:
                    assert abs(got - one) <= STACK_REL_TOL * abs(one)

    def test_conventions(self):
        assert np.array_equal(pfaffian(np.zeros((3, 0, 0))), np.ones(3))
        assert np.array_equal(pfaffian(np.zeros((2, 5, 5))), np.zeros(2))
        assert pfaffian(np.zeros((0, 4, 4))).shape == (0,)

    def test_input_left_alone(self):
        a = zero_pivot_stack(8, 4, 11, 1.0)
        before = a.copy()
        pfaffian(a)
        assert np.array_equal(a, before)

    def test_rejects_one_non_antisymmetric_member(self):
        a = zero_pivot_stack(6, 5, 12, 1.0)
        a[3, 0, 1] += 1e-6
        with pytest.raises(SkewSymmetryError, match="member 3"):
            pfaffian(a)
        with pytest.raises(ValueError):
            pfaffian(np.zeros((2, 3, 4)))

    def test_skew_checks_take_the_stack(self):
        # each member's defect is its own matrix's, and check_skew names the
        # first member beyond SKEW_TOL as pfaffian does
        a = zero_pivot_stack(6, 5, 13, 1.0)
        a[1, 2, 4] += 1e-3
        a[4, 0, 1] += 1e-3
        defects = skew_defect(a)
        assert defects.shape == (5,) and defects.tolist() == [skew_defect(m) for m in a]
        with pytest.raises(SkewSymmetryError, match=r"^stack member 1 is not antisymmetric"):
            check_skew(a)
        assert check_skew(a[[0, 2, 3]]).shape == (3, 6, 6)
        assert skew_defect(np.zeros((3, 0, 0))).tolist() == [0.0] * 3


class TestExactEntry:
    """Kernel pairing matrices are antisymmetric bit for bit, so the unchecked
    entry returns what the checked one does."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_pairing_matrix_and_restrictions(self, L, seed, linear):
        rng = np.random.default_rng(seed)
        if linear:
            g1, g2 = embed(random_linear_op(rng, L)), embed(random_linear_op(rng, L))
        else:
            g1, g2 = random_generator(L, rng, 0.6), random_generator(L, rng, 0.6)
        # no pivot block is rejected, however ill-conditioned
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadratic, "RCOND_TOL", 0.0)
            kernels = [_pair_kernel(g1, g2), OverlapKernel([bbd_normal(transfer_of(g1))])]
        for kern in kernels:
            p = kern.pairing
            assert np.array_equal(p, -p.T)
            n = p.shape[0]
            for _ in range(8):
                keep = np.flatnonzero(rng.integers(0, 2, n))
                sub = p[np.ix_(keep, keep)]
                assert _pfaffian_exact(sub.copy()) == pfaffian(sub)
