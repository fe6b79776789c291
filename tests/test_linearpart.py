import dataclasses

import numpy as np
import pytest

from fermigauss import fock
from fermigauss.linalg import SKEW_TOL, MatrixLogBranchError, mat_log
from fermigauss.linearpart import (
    STRUCTURE_TOL,
    LinearGaussianOp,
    SINGLE_MODE_ORDERS,
    compose_linear,
    conjugate_modes,
    embed,
    extract_op,
    factor_orderings,
    factors_as_ops,
    generalized_bbd,
    single_mode_op,
    split_extended_transfer,
)
from fermigauss.quadratic import (
    QuadraticGenerator,
    admissibility_defect,
    bbd_normal,
    random_generator,
    transfer_of,
)

from conftest import (
    all_configs,
    compose_pair,
    dagger,
    random_linear_op,
    single_mode_factor_matrix,
)


def dense_op(op: LinearGaussianOp, orc) -> np.ndarray:
    return fock.dense_gaussian(op.m, op.u, op.v, modes=orc.modes)


def five_factor_dense(fac, orc) -> np.ndarray:
    out = orc.eye.copy()
    for f in factors_as_ops(fac):
        out = out @ fock.dense_gaussian(f.m, f.u, f.v, modes=orc.modes)
    return out


class TestLinearOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearGaussianOp(np.eye(4), None, None)
        with pytest.raises(ValueError):
            LinearGaussianOp(np.zeros((4, 4)), np.zeros(3), None)

    @pytest.mark.parametrize("u, v", [([np.nan, 0], None), (None, [0, np.inf]),
                                      ([1j * np.inf, 0], [0, 0])])
    def test_non_finite_linear_part_is_refused(self, u, v):
        with pytest.raises(ValueError, match=r"non-finite entries in \(u, v\)"):
            LinearGaussianOp(np.zeros((4, 4)), u, v)

    def test_dagger_matches_dense_adjoint(self, oracle):
        orc = oracle(2)
        rng = np.random.default_rng(61)
        op = random_linear_op(rng, 2, 0.5)
        assert np.max(np.abs(dense_op(dagger(op), orc) - dense_op(op, orc).conj().T)) < 1e-12


class TestEmbedding:
    def test_quadratic_embeds_block_diagonally(self):
        g = random_generator(3, 62, 0.5)
        mp = embed(LinearGaussianOp.quadratic(g)).m
        L = 3
        assert np.max(np.abs(mp[0, :])) == 0.0
        assert np.max(np.abs(mp[:, 0])) == 0.0
        assert np.max(np.abs(mp[L + 1, :])) == 0.0
        quad = np.block([
            [mp[1:L + 1, 1:L + 1], mp[1:L + 1, L + 2:]],
            [mp[L + 2:, 1:L + 1], mp[L + 2:, L + 2:]],
        ])
        assert np.array_equal(quad, g.m)

    def test_single_mode_border_layout(self):
        a, b, d = 0.4, -0.3, 0.8
        mp = embed(single_mode_op(a, b, d)).m
        ref = np.array([
            [0, b, 0, a],
            [a, d, -a, 0],
            [0, -b, 0, -a],
            [b, 0, -b, -d],
        ], dtype=complex)
        assert np.max(np.abs(mp - ref)) == 0.0

    def test_pure_linear_border_layout(self):
        a, b = 0.25 + 0.1j, -0.7
        op = LinearGaussianOp(np.zeros((2, 2)), np.array([np.conj(a)]), np.array([b]))
        mp = embed(op).m
        ref = np.array([
            [0, b, 0, a],
            [a, 0, -a, 0],
            [0, -b, 0, -a],
            [b, 0, -b, 0],
        ], dtype=complex)
        assert np.max(np.abs(mp - ref)) == 0.0

    def test_extract_round_trip(self):
        rng = np.random.default_rng(63)
        op = random_linear_op(rng, 3, 0.6)
        back = extract_op(embed(op))
        assert np.max(np.abs(back.m - op.m)) == 0.0
        assert np.max(np.abs(back.u - op.u)) == 0.0
        assert np.max(np.abs(back.v - op.v)) == 0.0

    # each change keeps J.M' antisymmetric: entry (i, j) moves with its partner
    # (j + n, i + n) mod 2n, so the generator is valid and only the border
    # copies disagree, or only the corners are nonzero
    @pytest.mark.parametrize("entry, message", [
        ((0, 2), "lacks the ancilla border redundancy"),     # v on row 0 and column n
        ((4, 2), "lacks the ancilla border redundancy"),     # v on row n and column 0
        ((0, 6), "lacks the ancilla border redundancy"),     # conj(u) on row 0 and column n
        ((4, 6), "lacks the ancilla border redundancy"),     # conj(u) on row n and column 0
        ((0, 0), "has nonzero ancilla corners"),             # the corners [0, 0] and [n, n]
    ])
    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_extract_refusals_at_the_tolerance(self, entry, message, factor):
        op = random_linear_op(np.random.default_rng(68), 3, 1.5)
        mp = embed(op).m.copy()
        dim = mp.shape[0]
        scale = float(np.max(np.abs(mp)))
        assert scale > 1.0
        eps = factor * STRUCTURE_TOL * scale
        i, j = entry
        mp[i, j] += eps
        mp[(j + dim // 2) % dim, (i + dim // 2) % dim] -= eps
        gen = QuadraticGenerator(mp)
        if factor < 1:
            back = extract_op(gen)
            assert np.max(np.abs(back.u - op.u)) <= eps and np.max(np.abs(back.v - op.v)) <= eps
        else:
            with pytest.raises(ValueError, match=message):
                extract_op(gen)

    def test_projected_matrix_elements(self, oracle):
        rng = np.random.default_rng(64)
        L = 3
        orc = oracle(L)
        orc_ext = oracle(L + 1)
        op = random_linear_op(rng, L, 0.5)
        f = dense_op(op, orc)
        fp = fock.dense_gaussian(embed(op).m, modes=orc_ext.modes)
        for bra in all_configs(L):
            for ket in all_configs(L):
                rhs = sum(
                    orc_ext.element(fp, bra.with_ancilla(e1), ket.with_ancilla(e2))
                    for e1 in (0, 1) for e2 in (0, 1)) / 2.0
                assert abs(orc.element(f, bra, ket) - rhs) < 1e-10


class TestExtendedTransferStructure:
    def test_quadratic_restriction(self):
        g = random_generator(3, 65, 0.6)
        tq = transfer_of(g).t
        parts = split_extended_transfer(transfer_of(embed(LinearGaussianOp.quadratic(g))))
        assert abs(parts.t11_scalar) < 1e-12
        assert np.max(np.abs(parts.t_quad - tq)) < 1e-12
        for v in (parts.t1, parts.t2, parts.t3, parts.t4):
            assert np.max(np.abs(v)) < 1e-12

    def test_redundancy_pattern_random(self):
        rng = np.random.default_rng(66)
        for L in (1, 2, 3, 4):
            op = random_linear_op(rng, L, 0.6)
            parts = split_extended_transfer(transfer_of(embed(op)))
            assert parts.defect < 1e-10

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            # a generic quadratic transfer on L+1 sites has no ancilla structure
            split_extended_transfer(transfer_of(random_generator(3, 67, 0.5)))


class TestGeneralizedFactorization:
    def test_quadratic_reduction(self):
        g = random_generator(3, 71, 0.6)
        fac = generalized_bbd(LinearGaussianOp.quadratic(g))
        plain = bbd_normal(transfer_of(g))
        assert np.max(np.abs(fac.q)) < 1e-12
        assert np.max(np.abs(fac.p)) < 1e-12
        assert np.max(np.abs(fac.x - plain.x)) < 1e-10
        assert np.max(np.abs(fac.z - plain.z)) < 1e-10
        assert np.max(np.abs(fac.y - plain.y)) < 1e-10
        assert abs(fac.prefactor - plain.prefactor) < 1e-12

    def test_single_mode_golden(self):
        a, b, d = 0.3, 0.2, 0.5
        fac = generalized_bbd(single_mode_op(a, b, d))
        root = np.sqrt(4 * a * b + d * d)
        exp_minus_half_gamma = np.cosh(root / 2) - d * np.sinh(root / 2) / root
        assert np.exp(-fac.y[0, 0] / 2) == pytest.approx(exp_minus_half_gamma, abs=1e-12)
        alpha = (2 * a * np.sinh(root / 2) / root) / exp_minus_half_gamma
        beta = (2 * b * np.sinh(root / 2) / root) / exp_minus_half_gamma
        assert fac.q[0] == pytest.approx(alpha, abs=1e-12)
        assert fac.p[0] == pytest.approx(beta, abs=1e-12)

    def test_factors_need_the_number_factor_log(self):
        fac = generalized_bbd(random_linear_op(np.random.default_rng(73), 2, 0.5))
        assert len(factors_as_ops(fac)) == 5
        unsigned = dataclasses.replace(fac, sign_certain=False)
        assert unsigned.y is None
        with pytest.raises(MatrixLogBranchError, match="number factor has no generator"):
            factors_as_ops(unsigned)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_five_factor_reassembly(self, L, oracle):
        orc = oracle(L)
        rng = np.random.default_rng(72 + L)
        for _ in range(4):
            op = random_linear_op(rng, L, 0.5)
            fac = generalized_bbd(op)
            assert np.max(np.abs(five_factor_dense(fac, orc) - dense_op(op, orc))) < 1e-9


class TestSingleModeOrderings:
    def test_number_only(self):
        for fac in factor_orderings(0.0, 0.0, 0.9):
            assert fac.alpha == 0.0 and fac.beta == 0.0
            assert fac.gamma == pytest.approx(0.9, abs=1e-12)

    def test_type_two_golden(self):
        a, b, d = 0.3, 0.2, 0.5
        root = np.sqrt(4 * a * b + d * d)
        want = np.cosh(root / 2) + d * np.sinh(root / 2) / root
        fac = {f.kind: f for f in factor_orderings(a, b, d)}["II"]
        assert np.exp(fac.gamma / 2) == pytest.approx(want, abs=1e-12)

    def test_gamma_sharing(self):
        by_kind = {f.kind: f for f in factor_orderings(0.4, -0.7, 0.2)}
        assert by_kind["I"].gamma == by_kind["III"].gamma
        assert by_kind["II"].gamma == by_kind["IV"].gamma

    @pytest.mark.parametrize("abd", [
        (0.3, 0.2, 0.5),
        (-0.9, 0.4, -0.7),
        (0.2 + 0.1j, -0.4, 0.9),
    ])
    def test_dense_reassembly(self, abd):
        a, b, d = abd
        op = single_mode_op(a, b, d)
        f = fock.dense_gaussian(op.m, op.u, op.v)
        for fac in factor_orderings(a, b, d):
            assert np.max(np.abs(single_mode_factor_matrix(fac) - f)) < 1e-12

    def test_degenerate_branch_by_series(self):
        # 4ab + d^2 -> 0: closed forms stay finite through the sinh(x)/x series
        a, d = 0.3, 1e-7
        b = -d * d / (4 * a)  # makes 4ab + d^2 = 0 exactly
        op = single_mode_op(a, b, d)
        f = fock.dense_gaussian(op.m, op.u, op.v)
        for fac in factor_orderings(a, b, d):
            assert np.max(np.abs(single_mode_factor_matrix(fac) - f)) < 1e-10

    def test_all_orders_present(self):
        kinds = {f.kind: f.order for f in factor_orderings(0.1, 0.2, 0.3)}
        assert kinds == SINGLE_MODE_ORDERS


class TestConjugateModes:
    def test_quadratic_limit(self):
        g = random_generator(3, 81, 0.6)
        nt = conjugate_modes(LinearGaussianOp.quadratic(g))
        assert np.max(np.abs(nt.tp - transfer_of(g).t)) < 1e-12
        assert np.max(np.abs(nt.shift)) < 1e-12
        assert np.max(np.abs(nt.b)) < 1e-12
        assert np.max(np.abs(nt.b_bar)) < 1e-12

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_dense_conjugation(self, L, oracle):
        orc = oracle(L)
        rng = np.random.default_rng(82 + L)
        op = random_linear_op(rng, L, 0.5)
        f = dense_op(op, orc)
        nt = conjugate_modes(op)
        phi = [orc.modes[i][0] for i in range(L)] + [orc.modes[i][1] for i in range(L)]
        row = [orc.modes[i][1] for i in range(L)] + [orc.modes[i][0] for i in range(L)]
        for mu in range(L):
            for dag in (False, True):
                target = fock.dense_conjugate(f, orc.modes[mu][dag])
                r = mu + (L if dag else 0)
                img = sum(nt.tp[r, nu] * phi[nu] for nu in range(2 * L))
                bmat = nt.b_bar[mu] if dag else nt.b[mu]
                for al in range(2 * L):
                    for ga in range(2 * L):
                        if bmat[al, ga] != 0.0:
                            img = img + 0.5 * bmat[al, ga] * (row[al] @ phi[ga])
                img = img + nt.shift[r] * orc.eye
                assert np.max(np.abs(img - target)) < 1e-9

    def test_pure_linear_single_mode(self, oracle):
        orc = oracle(1)
        op = LinearGaussianOp(np.zeros((2, 2)), np.array([0.4]), np.array([0.7]))
        f = dense_op(op, orc)
        nt = conjugate_modes(op)
        c, cd = orc.modes[0]
        img = nt.tp[0, 0] * c + nt.tp[0, 1] * cd + nt.shift[0] * orc.eye
        b = nt.b[0]
        row = [cd, c]
        phi = [c, cd]
        for al in range(2):
            for ga in range(2):
                img = img + 0.5 * b[al, ga] * (row[al] @ phi[ga])
        assert np.max(np.abs(img - fock.dense_conjugate(f, c))) < 1e-12

    def test_images_preserve_anticommutators(self, oracle):
        # dense images a_i = F^-1 c_i F satisfy the canonical algebra
        L = 2
        orc = oracle(L)
        rng = np.random.default_rng(85)
        op = random_linear_op(rng, L, 0.5)
        f = dense_op(op, orc)
        imgs = [fock.dense_conjugate(f, orc.modes[i][0]) for i in range(L)]
        imgs_d = [fock.dense_conjugate(f, orc.modes[i][1]) for i in range(L)]
        for i in range(L):
            for j in range(L):
                anti = imgs[i] @ imgs_d[j] + imgs_d[j] @ imgs[i]
                want = orc.eye if i == j else 0 * orc.eye
                assert np.max(np.abs(anti - want)) < 1e-9
                assert np.max(np.abs(imgs[i] @ imgs[j] + imgs[j] @ imgs[i])) < 1e-9


class TestComposeLinear:
    def test_dense_product(self, oracle):
        orc = oracle(2)
        rng = np.random.default_rng(91)
        op1 = random_linear_op(rng, 2, 0.4)
        op2 = random_linear_op(rng, 2, 0.4)
        res = compose_linear(op1, op2)
        assert res.op is not None
        lhs = dense_op(op1, orc) @ dense_op(op2, orc)
        assert np.max(np.abs(lhs - dense_op(res.op, orc))) < 1e-9

    def test_site_counts_must_agree(self):
        with pytest.raises(ValueError, match="site counts differ: 2 vs 3"):
            compose_linear(LinearGaussianOp.zero(2), LinearGaussianOp.zero(3))

    def test_branch_failure_flagged(self):
        from conftest import worked_example_m
        op = LinearGaussianOp.quadratic(QuadraticGenerator(worked_example_m(np.pi / 2)))
        res = compose_linear(op, op)
        assert res.op is None

    @pytest.mark.parametrize("L, seed", [(2, 1), (3, 2), (4, 0), (4, 2),
                                         (5, 1), (5, 2), (6, 1), (6, 2)])
    def test_inadmissible_log_flagged(self, L, seed):
        # the principal log of the product exists but is admissible only to
        # 1e-10..1e-6, so no generator can be built from it
        b = compose_pair(L, seed)[1]
        res = compose_linear(b, b)
        assert res.op is None
        t = transfer_of(embed(b)).t
        assert np.array_equal(res.transfer.t, t @ t)
        assert admissibility_defect(mat_log(res.transfer.t)) > SKEW_TOL

    @pytest.mark.parametrize("L, scale, seed", [(1, 1.5, 18), (2, 2.5, 159)])
    def test_inadmissible_extracted_block_flagged(self, L, scale, seed):
        # the log passes at the scale of M' but its M block, at its own
        # smaller scale, does not
        b = random_linear_op(np.random.default_rng(seed), L, scale)
        res = compose_linear(b, b)
        assert res.op is None
        mp, n = mat_log(res.transfer.t), L + 1
        block = np.block([[mp[1:n, 1:n], mp[1:n, n + 1:]], [mp[n + 1:, 1:n], mp[n + 1:, n + 1:]]])
        assert admissibility_defect(mp) <= SKEW_TOL < admissibility_defect(block)

    @pytest.mark.parametrize("L, seed", [(4, 2), (6, 1), (6, 2)])
    def test_deterministic(self, L, seed):
        a, b = compose_pair(L, seed)
        patterns = set()
        for _ in range(20):
            res = compose_linear(a, b)
            patterns.add(tuple(x.tobytes() for x in (res.op.m, res.op.u, res.op.v)))
        assert len(patterns) == 1

