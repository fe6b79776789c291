import functools

import numpy as np
import pytest

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.linearpart import embed
from fermigauss.quadratic import random_generator, transfer_of

from conftest import (
    all_configs,
    random_linear_op,
    table_bits,
    worked_example_elements,
    worked_example_m,
)


def kron_modes(L: int):
    """The Kronecker-product definition ``c_l = prod_{j<l} sigma_j^z sigma_l^-``:
    the reference that fock's Jordan-Wigner table is checked against."""
    sigma_minus, sigma_z = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, -1.0])
    out = []
    for j in range(L):
        c = functools.reduce(np.kron, [sigma_z] * j + [sigma_minus] + [np.eye(2)] * (L - j - 1))
        out.append((c, c.T))
    return out


def dense_sum_exponent(m, u, v, modes) -> np.ndarray:
    """W as the sum of the dense products of the modes, term by term."""
    L = len(modes)
    row = [cd for _, cd in modes] + [c for c, _ in modes]
    col = [c for c, _ in modes] + [cd for _, cd in modes]
    w = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for a in range(2 * L):
        for b in range(2 * L):
            w += 0.5 * m[a, b] * (row[a] @ col[b])
    for i, (c, cd) in enumerate(modes):
        w += np.conj(u[i]) * cd + v[i] * c
    return w


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_modes_equal_the_kronecker_definition(L):
    for (c, cd), (c_ref, cd_ref) in zip(fock.mode_operators(L), kron_modes(L), strict=True):
        assert np.array_equal(c, c_ref) and np.array_equal(cd, cd_ref)


@pytest.mark.parametrize("L", [1, 2, 4, 6])
def test_exponent_matches_the_dense_sum(L):
    rng = np.random.default_rng(L)
    m = rng.standard_normal((2 * L, 2 * L)) + 1j * rng.standard_normal((2 * L, 2 * L))
    u, v = rng.standard_normal((2, L)) + 1j * rng.standard_normal((2, L))
    m[0, -1] = u[-1] = 0.0
    ref = dense_sum_exponent(m, u, v, kron_modes(L))
    w = fock.quadratic_exponent(m, u, v)
    assert np.max(np.abs(w - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_mode_strings_are_kronecker_products():
    rng = np.random.default_rng(3)
    L = 4
    modes = kron_modes(L)
    for n in range(6):
        ops = [(int(site), bool(dag)) for site, dag in zip(rng.integers(1, L + 1, n),
                                                            rng.integers(0, 2, n))]
        ref = functools.reduce(np.matmul, [modes[s - 1][d] for s, d in ops], np.eye(2 ** L))
        assert np.array_equal(fock.mode_string_matrix(ops, L), ref), ops


def test_config_states_are_the_products_of_creators():
    # |I> is the +1 basis vector at config_index(I), so an element of a
    # dense operator is one of its entries
    L = 5
    modes = kron_modes(L)
    f = np.random.default_rng(5).standard_normal((2 ** L, 2 ** L))
    vacuum = np.eye(2 ** L)[0]
    for cfg in all_configs(L):
        vec = functools.reduce(np.matmul, [modes[s - 1][1] for s in cfg.occupied], np.eye(2 ** L))
        vec = vec @ vacuum
        assert np.array_equal(fock.config_state(cfg), vec)
        assert vec[fock.config_index(cfg.bits)] == 1.0
        for bra in all_configs(L):
            assert fock.dense_element(f, bra, cfg) == fock.config_state(bra) @ f @ vec


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_anticommutation_exact(L):
    modes = fock.mode_operators(L)
    eye = np.eye(2 ** L)
    for i in range(L):
        for j in range(L):
            ci, cdi = modes[i]
            cj, cdj = modes[j]
            acar = ci @ cdj + cdj @ ci
            assert np.array_equal(acar, eye if i == j else 0 * eye)
            assert np.array_equal(ci @ cj + cj @ ci, 0 * eye)


def test_creation_sign_through_string():
    # c2^dag |100> = -|110>: the site-1 fermion flips the sign
    modes = fock.mode_operators(3)
    state = fock.config_state(FockConfig((1, 0, 0)))
    target = fock.config_state(FockConfig((1, 1, 0)))
    assert np.array_equal(modes[1][1] @ state, -target)


@pytest.mark.parametrize("bits", [(0, 2), (1, -1), (0.5,)])
def test_config_occupations_are_bits(bits):
    with pytest.raises(ValueError, match="occupations must be 0 or 1"):
        FockConfig(bits)


@pytest.mark.parametrize("text", ["", "01a", "0 1", "2"])
def test_config_string_is_nonempty_over_bits(text):
    with pytest.raises(ValueError, match="configuration string must be nonempty over 0/1"):
        FockConfig.from_string(text)


@pytest.mark.parametrize("sites", [[0], [3], [1, 4]])
def test_flipped_sites_lie_on_the_chain(sites):
    with pytest.raises(ValueError, match=r"out of range 1\.\.2"):
        FockConfig((1, 0)).flipped(sites)


def test_dense_gaussian_identity():
    assert np.max(np.abs(fock.dense_gaussian(np.zeros((6, 6))) - np.eye(8))) < 1e-15


def test_dense_gaussian_matches_printed_elements():
    a = 0.7
    f = fock.dense_gaussian(worked_example_m(a))
    table = worked_example_elements(a)
    for r in range(8):
        for c in range(8):
            val = fock.dense_element(f, FockConfig(table_bits(r)), FockConfig(table_bits(c)))
            assert abs(val - table[r, c]) < 1e-12


def test_dense_conjugate_matches_transfer_action():
    rng = np.random.default_rng(11)
    L = 3
    modes = fock.mode_operators(L)
    gen = random_generator(L, rng, 0.6)
    f = fock.dense_gaussian(gen.m)
    t = transfer_of(gen).t
    assert np.max(np.abs(fock.dense_conjugate(np.eye(2 ** L), modes[0][0]) - modes[0][0])) == 0.0
    for i in range(L):
        img = fock.dense_conjugate(f, modes[i][0])
        ref = sum(t[i, k] * modes[k][0] for k in range(L)) \
            + sum(t[i, L + k] * modes[k][1] for k in range(L))
        assert np.max(np.abs(img - ref)) < 1e-10


def test_projection_consistency():
    # action on the chain equals the embedded action on the symmetric
    # ancilla subspace: <J|F|I> = <(J,0)+(J,1)| F' |(0,I)+(1,I)>/2
    rng = np.random.default_rng(12)
    L = 3
    op = random_linear_op(rng, L, 0.5)
    f = fock.dense_gaussian(op.m, op.u, op.v)
    fp = fock.dense_gaussian(embed(op).m)
    for bra in all_configs(L):
        for ket in all_configs(L):
            lhs = fock.dense_element(f, bra, ket)
            rhs = sum(
                fock.dense_element(fp, bra.with_ancilla(e1), ket.with_ancilla(e2))
                for e1 in (0, 1) for e2 in (0, 1)
            ) / 2.0
            assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("L", [1, 2, 3])
def test_substituted_operator_action_table(L):
    # the embedded substitutes act on extended basis vectors exactly as the
    # closed-form table: annihilate or map (e, n_j) -> (1-e, n_j^flip) with
    # the string sign (-1)^(occupations among sites 1..j-1)
    modes = fock.mode_operators(L + 1)
    c0, cd0 = modes[0]
    for j in range(1, L + 1):
        cj, cdj = modes[j]
        lower = cd0 @ cj - c0 @ cj
        raise_ = cdj @ c0 - cdj @ cd0
        for cfg in all_configs(L):
            m = sum(cfg.bits[:j - 1]) % 2
            sgn = -1.0 if m else 1.0
            for e in (0, 1):
                vec = fock.config_state(cfg.with_ancilla(e))
                out = lower @ vec
                if cfg.bits[j - 1] == 0:
                    assert np.max(np.abs(out)) == 0.0
                else:
                    target = fock.config_state(
                        cfg.flipped([j]).with_ancilla(1 - e))
                    assert np.max(np.abs(out - sgn * target)) < 1e-14
                out = raise_ @ vec
                if cfg.bits[j - 1] == 1:
                    assert np.max(np.abs(out)) == 0.0
                else:
                    target = fock.config_state(
                        cfg.flipped([j]).with_ancilla(1 - e))
                    assert np.max(np.abs(out - sgn * target)) < 1e-14


def test_size_guards():
    # every dense view stops at MAX_SITES_DENSE = 10 sites, before it allocates
    for L in (11, 13):
        with pytest.raises(ValueError, match="dense matrices need L in 1..10"):
            fock.mode_operators(L)
        with pytest.raises(ValueError, match="dense matrices need L in 1..10"):
            fock.mode_string_matrix([(1, False)], L)
        with pytest.raises(ValueError, match="dense matrices need L in 1..10"):
            fock.dense_gaussian(np.zeros((2 * L, 2 * L)))
