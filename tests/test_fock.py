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


def test_single_site_annihilator():
    (c, cd), = fock.mode_operators(1)
    assert np.array_equal(c, np.array([[0, 1], [0, 0]]))
    assert np.array_equal(cd, c.T)


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
    state = fock.config_state(FockConfig((1, 0, 0)), modes)
    target = fock.config_state(FockConfig((1, 1, 0)), modes)
    assert np.array_equal(modes[1][1] @ state, -target)


def test_config_state_is_basis_vector_up_to_sign():
    modes = fock.mode_operators(3)
    for cfg in all_configs(3):
        vec = fock.config_state(cfg, modes)
        idx = fock.config_index(cfg.bits)
        assert abs(abs(vec[idx]) - 1.0) == 0.0
        assert np.count_nonzero(vec) == 1


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
    modes = fock.mode_operators(3)
    f = fock.dense_gaussian(worked_example_m(a), modes=modes)
    table = worked_example_elements(a)
    for r in range(8):
        for c in range(8):
            val = fock.dense_element(f, FockConfig(table_bits(r)), FockConfig(table_bits(c)),
                                     modes=modes)
            assert abs(val - table[r, c]) < 1e-12


def test_dense_conjugate_matches_transfer_action():
    rng = np.random.default_rng(11)
    L = 3
    modes = fock.mode_operators(L)
    gen = random_generator(L, rng, 0.6)
    f = fock.dense_gaussian(gen.m, modes=modes)
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
    modes = fock.mode_operators(L)
    modes_ext = fock.mode_operators(L + 1)
    op = random_linear_op(rng, L, 0.5)
    f = fock.dense_gaussian(op.m, op.u, op.v, modes=modes)
    fp = fock.dense_gaussian(embed(op).m, modes=modes_ext)
    for bra in all_configs(L):
        for ket in all_configs(L):
            lhs = fock.dense_element(f, bra, ket, modes=modes)
            rhs = sum(
                fock.dense_element(fp, bra.with_ancilla(e1), ket.with_ancilla(e2),
                                   modes=modes_ext)
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
                vec = fock.config_state(cfg.with_ancilla(e), modes)
                out = lower @ vec
                if cfg.bits[j - 1] == 0:
                    assert np.max(np.abs(out)) == 0.0
                else:
                    target = fock.config_state(
                        cfg.flipped([j]).with_ancilla(1 - e), modes)
                    assert np.max(np.abs(out - sgn * target)) < 1e-14
                out = raise_ @ vec
                if cfg.bits[j - 1] == 1:
                    assert np.max(np.abs(out)) == 0.0
                else:
                    target = fock.config_state(
                        cfg.flipped([j]).with_ancilla(1 - e), modes)
                    assert np.max(np.abs(out - sgn * target)) < 1e-14


def test_size_guards():
    with pytest.raises(ValueError):
        fock.mode_operators(13)
    with pytest.raises(ValueError):
        fock.dense_gaussian(np.zeros((22, 22)))
