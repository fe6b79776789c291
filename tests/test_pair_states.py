"""Pair states |psi(R, u)> = exp((1/2) c^dag R c^dag + u^dag c^dag)|0> as
one-factor overlap kernels, against the dense oracle.

A fixed grid at L = 1-6: per (L, scale, linear part, seed) a bra state, a
ket state and a quadratic operator F, all at the grid's scale, are drawn,
and the amplitudes, the norm, the overlap of the two states and
<psi0|F|psi1> are compared with fock's state vectors at 1e-12 relative to
max(1, |ref|).  The grid was fixed before it was compared.  Four draws of
<psi0|F|psi1> at scale 5 miss today and stay in the grid as strict xfails:
two have the oracle's sign flipped (ROADMAP item 18), and two carry the
rounding of F's largest matrix elements, up to 3.1e-12 of the value, while
a 40-digit reference puts fock within 1.5e-14 (ROADMAP item 10).
"""

from __future__ import annotations

import functools
import itertools
import struct

import numpy as np
import pytest

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.linalg import SkewSymmetryError, pfaffian
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.overlaps import pair_state_amplitude, pair_state_norm, pair_state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator, transfer_of

from conftest import all_configs, random_skew

SCALES = (0.5, 2.0, 5.0)
GRID = [(L, scale, linear, seed) for L in range(1, 7) for scale in SCALES
        for linear in (False, True) for seed in range(3)]

# the draws whose <psi0|F|psi1> misses today, by the reason that names them
KNOWN_MISSES = {
    (4, 5.0, True, 1): "ROADMAP item 18: the continuity root of F's det(T22)^(1/2) "
                       "has the wrong sign and is flagged certain",
    (5, 5.0, False, 1): "ROADMAP item 18: the continuity root of F's det(T22)^(1/2) "
                        "has the wrong sign and is flagged certain",
    (2, 5.0, False, 0): "ROADMAP item 10: the value carries the rounding of F's "
                        "largest elements, 3.1e-12 of it",
    (6, 5.0, True, 0): "ROADMAP item 10: the value carries the rounding of F's "
                       "largest elements, 1.4e-12 of it",
}


@functools.cache
def _draw(L: int, scale: float, linear: bool, seed: int):
    """(R0, u0), (R1, u1), F, and fock's two state vectors and F."""
    rng = np.random.default_rng([L, int(10 * scale), linear, seed])
    r0, r1 = random_skew(rng, L, scale), random_skew(rng, L, scale)
    u0, u1 = ((scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L)) for _ in range(2))
              if linear else (None, None))
    g = random_generator(L, rng, scale)
    return ((r0, u0), (r1, u1), g, dense_state(r0, u0), dense_state(r1, u1),
            fock.dense_gaussian(g.m))


def dense_state(r, u) -> np.ndarray:
    L = len(r)
    m = np.zeros((2 * L, 2 * L), dtype=complex)
    m[:L, L:] = r
    return fock.dense_gaussian(m, u, None)[:, 0]


def close(val, ref) -> bool:
    return abs(val - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("L, scale, linear, seed", GRID)
def test_amplitudes_norm_and_overlap_match_fock(L, scale, linear, seed):
    (r0, u0), (r1, u1), _, psi0, psi1, _ = _draw(L, scale, linear, seed)
    for cfg in all_configs(L):
        ref = fock.config_state(cfg) @ psi1
        assert close(pair_state_amplitude(r1, u1, cfg), ref), cfg
    norm = psi0.conj() @ psi0
    assert close(pair_state_norm(r0, u0), norm.real)
    self_overlap = pair_state_overlap(r0, u0, r0, u0)
    assert abs(self_overlap.imag) <= 1e-14 * abs(self_overlap)
    assert close(pair_state_overlap(r0, u0, r1, u1), psi0.conj() @ psi1)


@pytest.mark.parametrize("L, scale, linear, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                 reason=KNOWN_MISSES[case]))
    if case in KNOWN_MISSES else case
    for case in GRID])
def test_operator_between_states_matches_fock(L, scale, linear, seed):
    (r0, u0), (r1, u1), g, psi0, psi1, f = _draw(L, scale, linear, seed)
    assert close(pair_state_overlap(r0, u0, r1, u1, op=g), psi0.conj() @ f @ psi1)


def test_norm_closed_form_at_zero_linear_part():
    # det(I + R^dag R) = <psi|psi>^2 at u = 0: the independent closed form
    for L, scale in itertools.product(range(1, 7), SCALES):
        r = random_skew(np.random.default_rng([L, int(10 * scale)]), L, scale)
        det = np.linalg.det(np.eye(L) + r.conj().T @ r).real
        assert abs(pair_state_norm(r, None) ** 2 - det) <= 1e-12 * det


def bordered_amplitude(r, u, cfg: FockConfig) -> complex:
    """The amplitude as a Pfaffian of R bordered by conj(u), restricted to
    J's sites and, for odd J, the border."""
    r = np.asarray(r, dtype=complex)
    L = len(r)
    occ = [j - 1 for j in cfg.occupied]
    if cfg.n_occupied % 2 == 0:
        return pfaffian(r[np.ix_(occ, occ)])
    uc = np.zeros(L, dtype=complex) if u is None else np.asarray(u, dtype=complex).conj()
    bordered = np.zeros((L + 1, L + 1), dtype=complex)
    bordered[:L, :L] = r
    bordered[:L, L] = uc
    bordered[L, :L] = -uc
    keep = occ + [L]
    return pfaffian(bordered[np.ix_(keep, keep)])


def bits(z: complex) -> bytes:
    return struct.pack("dd", z.real, z.imag)


def test_amplitude_is_the_bordered_pfaffian_bit_for_bit():
    # the kernel's one-factor element is the bordered Pfaffian's value, signed
    # zeros included, for complex and real R and u, and for u = 0 and None
    for L, seed in itertools.product(range(1, 7), range(2)):
        rng = np.random.default_rng([L, seed])
        r = random_skew(rng, L, 2.0)
        u = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        for rr, uu in itertools.product((r, r.real.copy()), (None, np.zeros(L), u, u.real.copy())):
            for cfg in all_configs(L):
                assert bits(pair_state_amplitude(rr, uu, cfg)) == \
                    bits(bordered_amplitude(rr, uu, cfg)), (L, seed, cfg)


def test_identity_operator_is_the_plain_overlap():
    (r0, u0), (r1, u1), *_ = _draw(3, 2.0, True, 0)
    plain = pair_state_overlap(r0, u0, r1, u1)
    assert close(pair_state_overlap(r0, u0, r1, u1, op=QuadraticGenerator.zero(3)), plain)


def test_repeated_operator_is_exponentiated_once(count_calls):
    # the operator keeps its generator padded with the idle ancilla, so its
    # chain factors are built on the first call only
    (r0, u0), (r1, u1), *_ = _draw(6, 2.0, True, 0)
    g = random_generator(6, 7, 2.0)
    calls = count_calls("mat_exp")
    first = pair_state_overlap(r0, u0, r1, u1, op=g)
    assert calls
    del calls[:]
    assert bits(pair_state_overlap(r0, u0, r1, u1, op=g)) == bits(first)
    pair_state_overlap(r1, u1, r0, None, op=g)
    assert calls == []


def test_refusals():
    r = random_skew(np.random.default_rng(5), 3)
    g = random_generator(3, 1, 0.5)
    for op in (LinearGaussianOp(g.m, np.ones(3), None), transfer_of(g), g.m):
        with pytest.raises(TypeError):
            pair_state_overlap(r, None, r, None, op=op)
    with pytest.raises(ValueError):
        pair_state_overlap(r, None, r[:2, :2], None)
    with pytest.raises(ValueError):
        pair_state_overlap(r, None, r, None, op=random_generator(2, 1, 0.5))
    with pytest.raises(ValueError):
        pair_state_amplitude(r, np.ones(2), FockConfig((1, 0, 0)))
    with pytest.raises(ValueError):
        pair_state_amplitude(r, None, FockConfig((1, 1)))
    with pytest.raises(ValueError):
        pair_state_norm(r, np.ones(4))
    with pytest.raises(SkewSymmetryError):
        pair_state_norm(r + np.eye(3), None)
