import numpy as np
import pytest

from fermigauss.linalg import (
    LinalgError,
    MatrixLogBranchError,
    SkewSymmetryError,
    mat_exp,
    mat_log,
    pfaffian,
    rcond_estimate,
    sqrt_det_continuous,
    sqrt_det_via_log,
)

from conftest import worked_example_m, worked_example_t, random_skew


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
