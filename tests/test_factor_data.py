"""The factor data X, e^Y, Z and det(T22)^(1/2), computed by one pivot routine.

Count gates (monkeypatched counters, never wall time) and property tests
over random admissible generators.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import correlators, linalg, linearpart, overlaps, quadratic
from fermigauss.linalg import sqrt_det_via_log
from fermigauss.linearpart import LinearGaussianOp, generalized_bbd
from fermigauss.overlaps import OverlapKernel, pair_kernel
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


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``linalg.<name>`` made from a fermigauss module."""
    orig = getattr(linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in (linalg, quadratic, linearpart, overlaps, correlators):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counting)
    return calls


def rel_close(a, b, tol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) <= tol * max(1.0, float(np.max(np.abs(b))))


class TestCounts:
    def test_factorizations_take_no_logm(self, monkeypatch):
        calls = count_calls(monkeypatch, "mat_log")
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
    def test_y_on_first_access(self, monkeypatch, factorize):
        calls = count_calls(monkeypatch, "mat_log")
        fac = factorize(np.random.default_rng(42))
        assert len(calls) == 0
        y = fac.y
        assert len(calls) == 1
        assert fac.y is y
        assert len(calls) == 1
        assert rel_close(scipy.linalg.expm(y), fac.exp_y, 1e-10)

    def test_pair_kernel_expm_count(self, monkeypatch):
        calls = count_calls(monkeypatch, "mat_exp")
        kern = pair_kernel(random_generator(16, 1, 0.6).m,
                           random_generator(16, 2, 0.6).m.conj().T)
        assert kern.sign_certain
        assert len(calls) == 24


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
