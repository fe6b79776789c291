"""The det(T22)^(1/2) branch by continuity: the stepping path of
``pair_kernel``, the lazy path evaluation of ``sqrt_det_continuous``, and
the kernel's signed values against the dense oracle.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.linalg import sqrt_det_continuous
from fermigauss.overlaps import _ProductPath, pair_kernel, state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator

PROPERTY = settings(derandomize=True, deadline=None)

#: (L, seed, scale, two-sided) of one bra/ket pair
pairs = st.tuples(st.integers(1, 6), st.integers(0, 2 ** 32 - 2), st.floats(0.1, 3.0),
                  st.booleans())


def generators(L, seed, scale, two_sided):
    m1 = random_generator(L, seed, scale).m
    m2dag = random_generator(L, seed + 1, scale).m.conj().T if two_sided else None
    return m1, m2dag


def grid(n: int, bulge: float = 0.0) -> np.ndarray:
    """Interior points of one path of ``sqrt_det_continuous``."""
    taus = np.linspace(0.0, 1.0, n + 1)
    return (taus + 1j * bulge * taus * (1.0 - taus))[1:-1]


class TestLazyPath:
    @pytest.mark.parametrize("d", [1e7, 1e-7])
    def test_no_path_point_beyond_the_zero_threshold(self, d):
        # det(end) = d^2 with d^2 >= 1e13 or <= 1e-13: the endpoints alone
        # fail the relative zero test on every path
        calls = []
        end = np.diag([d, d]).astype(complex)
        val, certain = sqrt_det_continuous(lambda s: calls.append(s) or end, end)
        assert calls == []
        assert certain and val == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 5, 11])
    def test_stops_at_the_first_zero_then_detours(self, k):
        # det(s) = 1 - s/s0 vanishes at the k-th interior point of the real grid
        s0 = grid(12)[k - 1].real
        calls = []

        def mat_at(s):
            calls.append(s)
            return np.diag([1.0 - s / s0, 1.0])

        end = np.diag([1.0 - 1.0 / s0, 1.0]).astype(complex)
        val, certain = sqrt_det_continuous(mat_at, end)
        assert all(s.imag == 0.0 for s in calls[:k])
        assert calls[k].imag > 0.0
        # the detour passes above the zero, so arg det runs from 0 to -pi
        assert certain
        assert val == pytest.approx(-1j * np.sqrt(1.0 / s0 - 1.0), rel=1e-12)


class TestSteppingPath:
    @PROPERTY
    @given(pairs)
    def test_matches_direct_exponentials(self, pair):
        m1, m2dag = generators(*pair)
        L = pair[0]
        g2 = None if m2dag is None else QuadraticGenerator(m2dag.conj().T)
        path = _ProductPath(QuadraticGenerator(m1), g2)
        # the order sqrt_det_continuous visits them in: a grid, its
        # refinement (a new path from the identity), then a detour
        for s in np.concatenate([grid(12), grid(24), grid(12, bulge=0.11)]):
            ref = scipy.linalg.expm(s * m1)
            if m2dag is not None:
                ref = scipy.linalg.expm(s * m2dag) @ ref
            ref = ref[L:, L:]
            assert np.max(np.abs(path(s) - ref)) <= 1e-10 * np.max(np.abs(ref))


def kernel_and_oracle(pair, bra_code: int, ket_code: int):
    """(kernel value, dense value) of one element, with |det T22| < 1e13.

    The configurations are the low L bits of the two codes.
    """
    m1, m2dag = generators(*pair)
    L = pair[0]
    f = fock.dense_gaussian(m1)
    t = scipy.linalg.expm(m1)
    if m2dag is not None:
        f = fock.dense_gaussian(m2dag) @ f
        t = scipy.linalg.expm(m2dag) @ t
    assert abs(np.linalg.det(t[L:, L:])) < 1e13
    bra, ket = (FockConfig(tuple((code >> (L - 1 - i)) & 1 for i in range(L)))
                for code in (bra_code, ket_code))
    return pair_kernel(m1, m2dag).element(bra, ket), fock.dense_element(f, bra, ket)


codes = st.integers(0, 2 ** 6 - 1)


class TestOracle:
    @PROPERTY
    @given(pairs, codes, codes)
    def test_kernel_element_magnitude(self, pair, bra_code, ket_code):
        val, ref = kernel_and_oracle(pair, bra_code, ket_code)
        assert abs(abs(val) - abs(ref)) <= 1e-9 * max(1.0, abs(ref))

    @pytest.mark.xfail(strict=True, reason="the sampled winding can miss a full turn of "
                       "arg det T22(s) between two path points; the sign is then wrong "
                       "but flagged certain")
    @PROPERTY
    @given(pairs, codes, codes)
    @example((8, 23, 3.0, False), 0, 0)   # missed on the 12-step real grid
    @example((6, 162, 3.0, False), 0, 0)  # missed on a complex detour
    def test_kernel_element_signed(self, pair, bra_code, ket_code):
        val, ref = kernel_and_oracle(pair, bra_code, ket_code)
        assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.xfail(strict=True, reason="for |det T22| >= 1e13 every path fails the zero test "
                   "relative to |det(end)|, and the principal branch is flagged certain")
def test_large_det_sign_matches_oracle():
    g = random_generator(4, 22, scale=10)
    vac = FockConfig.vacuum(4)
    res = state_overlap(g, QuadraticGenerator.zero(4), vac, vac)
    assert res.sign_certain
    ref = fock.dense_gaussian(g.m)[0, 0]
    assert abs(res.value - ref) <= 1e-8 * abs(ref)
