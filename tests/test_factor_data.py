"""The factor data X, e^Y, Z and det(T22)^(1/2), computed by one pivot routine.

Count gates (monkeypatched counters, never wall time) and property tests
over random admissible generators.
"""

from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import correlators
from fermigauss.configs import FockConfig
from fermigauss.correlators import CorrelatorContext, ModeOp, n_point
from fermigauss.linalg import sqrt_det_via_log
from fermigauss.linearpart import LinearGaussianOp, generalized_bbd
from fermigauss.overlaps import OverlapKernel, compose_bra_ket, overlap, pair_kernel, state_overlap
from fermigauss.quadratic import (
    QuadraticGenerator,
    bbd_antinormal,
    bbd_normal,
    cp_apply_transfer,
    random_generator,
    transfer_of,
)

from conftest import random_linear_op

PROPERTY = settings(derandomize=True, deadline=None)

generators = st.builds(random_generator, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
                       st.floats(0.1, 3.0))


def rel_close(a, b, tol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) <= tol * max(1.0, float(np.max(np.abs(b))))


class TestCounts:
    def test_factorizations_take_no_logm(self, count_calls):
        calls = count_calls("mat_log")
        rng = np.random.default_rng(41)
        t = transfer_of(random_generator(6, rng, 0.6))
        bbd_normal(t)
        bbd_antinormal(t)
        generalized_bbd(random_linear_op(rng, 6))
        OverlapKernel(t)
        assert calls == []

    @pytest.mark.parametrize("factorize", [
        lambda rng: bbd_normal(transfer_of(random_generator(5, rng, 0.6))),
        lambda rng: generalized_bbd(random_linear_op(rng, 5)),
    ])
    def test_y_on_first_access(self, count_calls, factorize):
        calls = count_calls("mat_log")
        fac = factorize(np.random.default_rng(42))
        assert len(calls) == 0
        y = fac.y
        assert len(calls) == 1
        assert fac.y is y
        assert len(calls) == 1
        assert rel_close(scipy.linalg.expm(y), fac.exp_y, 1e-10)

    def test_pair_kernel_expm_count(self, count_calls):
        # 2 for the transfer at s = 1, 2 for the one step of the 12-step grid
        calls = count_calls("mat_exp")
        kern = pair_kernel(random_generator(16, 1, 0.6).m,
                           random_generator(16, 2, 0.6).m.conj().T)
        assert kern.sign_certain
        assert len(calls) == 4

    def test_engine_reuses_kernel_exponential(self, count_calls):
        m1 = random_generator(16, 1, 0.6).m
        m2 = random_generator(16, 2, 0.6).m
        calls = count_calls("mat_exp")
        pair_kernel(m1, m2.conj().T)
        n_kernel = len(calls)
        engine = correlators._Engine(QuadraticGenerator(m1), QuadraticGenerator(m2))
        assert len(calls) == 2 * n_kernel
        assert np.array_equal(engine.t1, scipy.linalg.expm(m1))

    @pytest.mark.parametrize("seed, scale, roots", [(22, 10.0, 1), (1, 0.6, 0)])
    def test_path_kernel_principal_root_only_as_fallback(self, count_calls, seed, scale, roots):
        # |det T22| = 2.7e13 for seed 22: no continuity path, one principal root
        m = random_generator(4, seed, scale).m
        big = abs(np.linalg.det(scipy.linalg.expm(m)[4:, 4:])) >= 1e13
        assert big == (roots == 1)
        calls = count_calls("sqrt_det_via_log")
        pair_kernel(m)
        assert len(calls) == roots


def exact_exponentials(calls, gens) -> int:
    """The ``mat_exp`` calls whose argument is an unscaled M or M^dag of ``gens``."""
    mats = [g.m for g in gens] + [g.m.conj().T for g in gens]
    return sum(any(np.array_equal(a, m) for m in mats) for (a,) in calls)


class TestGeneratorExponentials:
    """exp(M) and exp(M^dag) are computed once per generator object."""

    def test_each_side_exponentiated_once(self, count_calls):
        gens = [random_generator(6, seed, 0.6) for seed in range(4)]
        bra, ket = FockConfig.from_string("110100"), FockConfig.from_string("011010")
        calls = count_calls("mat_exp")
        for g1, g2 in permutations(gens, 2):
            assert state_overlap(g1, g2, bra, ket).method == "pfaffian"
        assert exact_exponentials(calls, gens) == 2 * len(gens)
        calls.clear()
        state_overlap(gens[0], gens[1], ket, bra)
        assert exact_exponentials(calls, gens) == 0

    def test_read_only_and_not_copied(self):
        m = random_generator(3, 5, 0.6).m.copy()
        g = QuadraticGenerator(m)
        assert np.shares_memory(g.m, m) and m.flags.writeable
        t = transfer_of(g)
        assert transfer_of(g) is t
        for a in (g.m, t.t, g._exp_dagger):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_cached_call_equals_fresh_call(self):
        ms = [random_generator(5, seed, 2.0).m for seed in (10, 11)]
        bra, ket = FockConfig.from_string("10110"), FockConfig.from_string("00011")
        ops = (ModeOp(1, True), ModeOp(4, False))

        def outputs(g1, g2):
            res = state_overlap(g1, g2, bra, ket)
            return (res.value, res.method, res.sign_certain, overlap(g1, bra, ket).value,
                    n_point(CorrelatorContext(g1, g2, bra, ket), ops),
                    compose_bra_ket(g2, g1).t, transfer_of(g1).t)

        g1, g2 = (QuadraticGenerator(m) for m in ms)
        outputs(g1, g2)
        cached = outputs(g1, g2)
        fresh = outputs(*(QuadraticGenerator(m) for m in ms))
        assert cached[:5] == fresh[:5]
        for a, b in zip(cached[5:], fresh[5:]):
            assert np.array_equal(a, b)


class TestProperties:
    @PROPERTY
    @given(generators)
    def test_sqrt_det_is_exp_half_trace_log(self, gen):
        t22 = transfer_of(gen).t22
        val, certain = sqrt_det_via_log(t22)
        assert certain
        ref = np.exp(0.5 * np.trace(scipy.linalg.logm(t22)))
        assert abs(val - ref) <= 1e-12 * abs(ref)
        det = np.linalg.det(t22)
        assert abs(val ** 2 - det) <= 1e-12 * abs(det)

    def test_sqrt_det_on_branch_cut(self):
        val, certain = sqrt_det_via_log(np.diag([-4.0, 1.0]))
        assert not certain
        assert val ** 2 == pytest.approx(-4.0)

    @PROPERTY
    @given(generators)
    def test_antinormal_is_normal_of_full_permutation(self, gen):
        t = transfer_of(gen)
        fa = bbd_antinormal(t)
        fn = bbd_normal(cp_apply_transfer(t, range(1, t.L + 1)))
        assert fa.ordering == "antinormal"
        assert rel_close(fa.x, fn.x, 1e-12)
        assert rel_close(fa.z, fn.z, 1e-12)
        assert np.array_equal(fa.exp_y, t.t11)
        assert abs(fa.prefactor * fn.prefactor - 1.0) <= 1e-12
        assert fa.sign_certain == fn.sign_certain

    @PROPERTY
    @given(generators)
    def test_generalized_reduces_to_normal(self, gen):
        fg = generalized_bbd(LinearGaussianOp.quadratic(gen))
        fn = bbd_normal(transfer_of(gen))
        assert not (np.any(fg.q) or np.any(fg.p))
        for a, b in ((fg.x, fn.x), (fg.exp_y, fn.exp_y), (fg.z, fn.z)):
            assert rel_close(a, b, 1e-10)
        assert abs(fg.prefactor - fn.prefactor) <= 1e-10 * abs(fn.prefactor)

    @PROPERTY
    @given(generators)
    def test_y_absent_exactly_when_sign_uncertain(self, gen):
        t = transfer_of(gen)
        for fac in (bbd_normal(t), bbd_antinormal(t),
                    generalized_bbd(LinearGaussianOp.quadratic(gen))):
            assert (fac.y is None) == (not fac.sign_certain)

    def test_y_absent_on_branch_cut(self):
        # number-conserving, with T22 = diag(-1, e^-0.3) on the branch cut
        a = np.diag([1j * np.pi, 0.3])
        zero = np.zeros((2, 2))
        gen = QuadraticGenerator(np.block([[a, zero], [zero, -a.T]]))
        for fac in (bbd_normal(transfer_of(gen)),
                    generalized_bbd(LinearGaussianOp.quadratic(gen))):
            assert not fac.sign_certain
            assert fac.y is None
