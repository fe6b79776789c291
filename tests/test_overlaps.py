import numpy as np
import pytest

from fermigauss.configs import FockConfig
from fermigauss.linalg import LinalgError, SingularBlockError, pfaffian
from fermigauss.linearpart import LinearGaussianOp, single_mode_op
from fermigauss.overlaps import (
    ROUTES,
    OverlapKernel,
    compose_bra_ket,
    generalized_overlap,
    grassmann_reduced_pfaffian,
    overlap,
    overlap_magnitude_cp,
    pair_kernel,
    pair_state_amplitude,
    pair_state_norm,
    state_overlap,
)
from fermigauss.quadratic import (
    QuadraticGenerator,
    cp_apply_transfer,
    random_generator,
    transfer_of,
)

from conftest import (
    all_configs,
    random_config,
    random_linear_op,
    random_skew,
    table_bits,
    worked_example_elements,
    worked_example_m,
)
from test_quadratic import rotation_plus_sector

EPSILON_SIGN_DEFECT = (
    "ROADMAP item 5: each perturbed kernel takes its sign from the continuity path, "
    "which misses the double zero of det T22(s) within epsilon of s = 1, so the "
    "extrapolated value has the wrong sign and is flagged certain")


class TestQuadraticOverlap:
    def test_vacuum_amplitude_is_prefactor(self):
        g = random_generator(3, 101, 0.6)
        vac = FockConfig.vacuum(3)
        res = overlap(g, vac, vac)
        kern = pair_kernel(g.m)
        assert res.value == pytest.approx(kern.prefactor)
        assert res.method == "pfaffian" and res.sign_certain

    def test_worked_example_table(self):
        a = 0.7
        gen = QuadraticGenerator(worked_example_m(a))
        table = worked_example_elements(a)
        for r in range(8):
            for c in range(8):
                res = overlap(gen, FockConfig(table_bits(r)), FockConfig(table_bits(c)))
                assert abs(res.value - table[r, c]) < 1e-10

    def test_random_all_pairs_vs_oracle(self, oracle):
        L = 3
        orc = oracle(L)
        rng = np.random.default_rng(102)
        g1 = random_generator(L, rng, 0.6)
        g2 = random_generator(L, rng, 0.6)
        f1, f2 = orc.gaussian(g1), orc.gaussian(g2)
        for bra in all_configs(L):
            for ket in all_configs(L):
                res = state_overlap(g1, g2, bra, ket)
                ref = orc.sandwich(f2, (), f1, bra, ket)
                assert abs(res.value - ref) < 1e-9

    def test_parity_zero_exact(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            L = int(rng.integers(1, 6))
            g = random_generator(L, rng, 0.8)
            bra = random_config(rng, L)
            ket = random_config(rng, L)
            if (bra.n_occupied + ket.n_occupied) % 2 == 0:
                ket = ket.flipped([1])
            assert overlap(g, bra, ket).value == 0.0

    def test_hermiticity(self):
        rng = np.random.default_rng(104)
        g1 = random_generator(3, rng, 0.6)
        g2 = random_generator(3, rng, 0.6)
        bra, ket = FockConfig((1, 0, 1)), FockConfig((0, 1, 1))
        lhs = state_overlap(g1, g2, bra, ket).value
        rhs = np.conj(state_overlap(g2, g1, ket, bra).value)
        assert abs(lhs - rhs) < 1e-10

    def test_transfer_input(self):
        g = random_generator(2, 105, 0.5)
        t = compose_bra_ket(transfer_of(QuadraticGenerator.zero(2)), transfer_of(g))
        vac = FockConfig.vacuum(2)
        assert abs(overlap(t, vac, vac).value - overlap(g, vac, vac).value) < 1e-12


class TestSingularFallbacks:
    def test_epsilon_reproduces_printed_table(self):
        a = np.pi / 2
        gen = QuadraticGenerator(worked_example_m(a))
        table = worked_example_elements(a)
        for r in range(8):
            for c in range(8):
                res = overlap(gen, FockConfig(table_bits(r)), FockConfig(table_bits(c)))
                assert abs(res.value - table[r, c]) < 1e-6
                if (r ^ c) not in (0, 3, 5, 6):  # parity mismatch -> short circuit
                    continue
                assert res.method in ("pfaffian", "epsilon-regularized")

    def test_epsilon_agrees_with_pfaffian_when_regular(self):
        gen = QuadraticGenerator(worked_example_m(0.7))
        bra, ket = FockConfig((0, 0, 0)), FockConfig((1, 1, 0))
        direct = overlap(gen, bra, ket)
        eps = overlap(gen, bra, ket, method="epsilon")
        assert direct.method == "pfaffian"
        assert abs(direct.value - eps.value) < 1e-8

    def test_epsilon_schedule_refinement(self):
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        bra = ket = FockConfig((0, 0, 0))
        coarse = overlap(gen, bra, ket, method="epsilon", eps_schedule=(1e-4, 5e-5))
        fine = overlap(gen, bra, ket, method="epsilon", eps_schedule=(5e-5, 2.5e-5))
        assert abs(coarse.value - fine.value) < 1e-7
        assert coarse.diagnostics["eps_seed"] == fine.diagnostics["eps_seed"]

    @pytest.mark.parametrize("L", [2, 4] + [
        pytest.param(L, marks=pytest.mark.xfail(strict=True, reason=EPSILON_SIGN_DEFECT))
        for L in (3, 5, 6, 7)])
    def test_epsilon_sign_matches_oracle(self, L, oracle):
        # a singular two-site rotation plus a generic sector, identity bra
        # operator, vacuum ket: every nonzero element takes the epsilon route
        gen = rotation_plus_sector(L, np.random.default_rng(0))
        orc = oracle(L)
        f = orc.gaussian(gen)
        vac = FockConfig.vacuum(L)
        nonzero = 0
        for bra in all_configs(L):
            ref = orc.element(f, bra, vac)
            if abs(ref) < 1e-9:
                continue
            nonzero += 1
            res = state_overlap(gen, QuadraticGenerator.zero(L), bra, vac)
            assert res.method == "epsilon-regularized" and res.sign_certain
            assert abs(res.value - ref) <= 1e-8 * max(1.0, abs(ref))
        assert nonzero > 0

    def test_cp_magnitude_matches_regular_overlap(self):
        rng = np.random.default_rng(111)
        g = random_generator(3, rng, 0.6)
        for _ in range(10):
            bra, ket = random_config(rng, 3), random_config(rng, 3)
            res = overlap(g, bra, ket)
            mag = overlap_magnitude_cp(transfer_of(g), bra, ket)
            assert not mag.sign_certain and mag.method == "cp-magnitude"
            assert abs(mag.value - abs(res.value)) < 1e-9

    def test_cp_magnitude_printed_table(self):
        a = np.pi / 2
        gen = QuadraticGenerator(worked_example_m(a))
        t = transfer_of(gen)
        table = worked_example_elements(a)
        for r in range(8):
            for c in range(8):
                bra, ket = FockConfig(table_bits(r)), FockConfig(table_bits(c))
                if (bra.n_occupied + ket.n_occupied) % 2:
                    continue
                res = overlap_magnitude_cp(t, bra, ket)
                assert abs(res.value - abs(table[r, c])) < 1e-9

    def test_full_subset_equals_swapped_picture(self):
        # the full particle-hole swap exchanges the two diagonal blocks, so
        # the permuted overlap magnitude can be checked against the
        # directly permuted transfer
        g = random_generator(3, 112, 0.6)
        t = transfer_of(g)
        full = (1, 2, 3)
        tt = cp_apply_transfer(t, full)
        kern = OverlapKernel(tt)
        rng = np.random.default_rng(7)
        for _ in range(5):
            bra, ket = random_config(rng, 3), random_config(rng, 3)
            if (bra.n_occupied + ket.n_occupied) % 2:
                continue
            direct = overlap(g, bra, ket).value
            swapped = kern.element(bra.flipped(full), ket.flipped(full))
            assert abs(abs(swapped) - abs(direct)) < 1e-10

    def test_method_agreement_where_applicable(self):
        gen = QuadraticGenerator(worked_example_m(0.7))
        bra, ket = FockConfig((0, 0, 0)), FockConfig((1, 0, 1))
        vals = {
            "pfaffian": overlap(gen, bra, ket).value,
            "epsilon": overlap(gen, bra, ket, method="epsilon").value,
            "cp": overlap_magnitude_cp(transfer_of(gen), bra, ket).value,
        }
        assert abs(vals["pfaffian"] - vals["epsilon"]) < 1e-7
        assert abs(abs(vals["pfaffian"]) - vals["cp"]) < 1e-7


class TestGeneralizedOverlap:
    def test_quadratic_reduction(self):
        rng = np.random.default_rng(121)
        g1 = random_generator(3, rng, 0.6)
        g2 = random_generator(3, rng, 0.6)
        op1, op2 = LinearGaussianOp.quadratic(g1), LinearGaussianOp.quadratic(g2)
        for bra in all_configs(3):
            for ket in all_configs(3):
                lhs = generalized_overlap(op1, op2, bra, ket).value
                rhs = state_overlap(g1, g2, bra, ket).value
                assert abs(lhs - rhs) < 1e-11

    def test_quadratic_opposite_parity_exact_zero(self):
        g = random_generator(2, 122, 0.6)
        op = LinearGaussianOp.quadratic(g)
        res = generalized_overlap(op, op, FockConfig((1, 0)), FockConfig((0, 0)))
        assert res.value == 0.0

    def test_single_mode_dense(self, oracle):
        orc = oracle(1)
        op = LinearGaussianOp(np.zeros((2, 2)), np.array([0.5]), np.array([0.3]))
        f = orc.gaussian(op)
        res = generalized_overlap(op, LinearGaussianOp.zero(1),
                                  FockConfig((1,)), FockConfig((0,)))
        ref = orc.element(f, FockConfig((1,)), FockConfig((0,)))
        assert abs(res.value - ref) < 1e-12

    def test_random_all_pairs_vs_oracle(self, oracle):
        L = 3
        orc = oracle(L)
        rng = np.random.default_rng(123)
        op1 = random_linear_op(rng, L, 0.5)
        op2 = random_linear_op(rng, L, 0.5)
        f1, f2 = orc.gaussian(op1), orc.gaussian(op2)
        for bra in all_configs(L):
            for ket in all_configs(L):
                res = generalized_overlap(op1, op2, bra, ket)
                ref = orc.sandwich(f2, (), f1, bra, ket)
                assert abs(res.value - ref) < 1e-9


class TestPairStates:
    def test_vacuum(self):
        r = random_skew(np.random.default_rng(131), 3)
        assert pair_state_amplitude(r, None, FockConfig.vacuum(3)) == 1.0

    def test_two_site_pair(self):
        r = np.array([[0, 0.8], [-0.8, 0]])
        assert pair_state_amplitude(r, None, FockConfig((1, 1))) == pytest.approx(0.8)

    def test_amplitudes_vs_oracle(self, oracle):
        L = 4
        orc = oracle(L)
        rng = np.random.default_rng(132)
        r = random_skew(rng, L)
        u = 0.6 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
        m = np.zeros((2 * L, 2 * L), dtype=complex)
        m[:L, L:] = r
        psi = orc.gaussian(LinearGaussianOp(m, u, None))[:, 0]
        from fermigauss import fock
        for cfg in all_configs(L):
            amp = pair_state_amplitude(r, u, cfg)
            ref = fock.config_state(cfg, orc.modes).conj() @ psi
            assert abs(amp - ref) < 1e-10

    def test_norm_closed_form_at_zero_linear(self):
        rng = np.random.default_rng(133)
        r = random_skew(rng, 4)
        norm = pair_state_norm(r, None)
        det = np.linalg.det(np.eye(4) + r.conj().T @ r)
        assert abs(norm ** 2 - det.real) < 1e-12 * abs(det.real)

    def test_norm_vs_oracle(self, oracle):
        L = 4
        orc = oracle(L)
        rng = np.random.default_rng(134)
        r = random_skew(rng, L)
        u = 0.5 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
        m = np.zeros((2 * L, 2 * L), dtype=complex)
        m[:L, L:] = r
        psi = orc.gaussian(LinearGaussianOp(m, u, None))[:, 0]
        ref = float(np.real(psi.conj() @ psi))
        assert abs(pair_state_norm(r, u) - ref) < 1e-9 * max(1.0, ref)


class TestGrassmannCrossCheck:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_full_matrix_reduces(self, L):
        rng = np.random.default_rng(141 + L)
        g = random_generator(L, rng, 0.6)
        kern = OverlapKernel(transfer_of(g))
        x = kern.pairing[:L, :L]
        ey = kern.pairing[:L, L:]
        z = kern.pairing[L:, L:]
        for bra in all_configs(L):
            for ket in all_configs(L):
                if (bra.n_occupied + ket.n_occupied) % 2:
                    continue
                keep = [j - 1 for j in bra.occupied] + [L + i - 1 for i in ket.occupied]
                small = pfaffian(kern.pairing[np.ix_(keep, keep)])
                big = grassmann_reduced_pfaffian(x, ey, z, bra, ket)
                assert abs(big - small) < 1e-9 * max(1.0, abs(small))


def test_epsilon_requires_generator():
    g = random_generator(2, 151, 0.5)
    t = transfer_of(g)
    with pytest.raises(ValueError):
        overlap(t, FockConfig((0, 0)), FockConfig((0, 0)), method="epsilon")


def test_no_restoring_subset_raises():
    # identity transfer flipped is always invertible, so build a genuinely
    # unrestorable case: impossible for canonical transfers of this family,
    # hence exercise the error path through an empty scan result instead
    g = random_generator(2, 152, 0.5)
    t = transfer_of(g)
    with pytest.raises(SingularBlockError):
        overlap_magnitude_cp(t, FockConfig((0, 0)), FockConfig((0, 0)), rcond_tol=2.0)


def rejected_everywhere(err) -> bool:
    return ([e["route"] for e in err.value.route] == list(ROUTES)
            and not any(e["accepted"] for e in err.value.route))


class TestRescueChain:
    def test_route_records_each_attempt(self):
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        res = overlap(gen, vac, vac)
        assert [(e["route"], e["accepted"]) for e in res.route] == \
            [("pfaffian", False), ("epsilon", True)]
        assert res.route[0]["reason"] == "rcond" and res.route[0]["rcond"] < 1e-12
        assert res.route[1]["eps_disagreement"] == res.diagnostics["eps_disagreement"]
        regular = overlap(QuadraticGenerator(worked_example_m(0.7)), vac, vac)
        assert regular.route == [{"route": "pfaffian", "accepted": True,
                                  "rcond": regular.diagnostics["rcond"], "sign_certain": True}]

    def test_rcond_tol_held_on_every_route(self):
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        with pytest.raises(SingularBlockError) as err:
            overlap(gen, vac, vac, rcond_tol=2.0)
        assert rejected_everywhere(err)
        with pytest.raises(SingularBlockError) as err:
            state_overlap(gen, QuadraticGenerator.zero(3), vac, vac, rcond_tol=2.0)
        assert rejected_everywhere(err)

    def test_no_exception_escapes_epsilon_route(self):
        # every perturbed kernel of this large-norm operator fails the
        # relative rcond test; the chain must still reach the cp route
        g = random_generator(8, 0, scale=30)
        vac = FockConfig.vacuum(8)
        with pytest.raises(SingularBlockError) as err:
            state_overlap(g, QuadraticGenerator.zero(8), vac, vac)
        assert rejected_everywhere(err)
        assert err.value.route[1]["reason"] == "rcond"

    def test_overflowing_exponential_is_a_numerical_failure(self):
        g = random_generator(4, 1, scale=1000)
        vac = FockConfig.vacuum(4)
        with pytest.raises(LinalgError, match="overflows"):
            state_overlap(g, QuadraticGenerator.zero(4), vac, vac)

    def test_forced_pfaffian_rejects_before_sign_tracking(self, count_calls):
        calls = count_calls("mat_exp")
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        with pytest.raises(SingularBlockError) as err:
            overlap(gen, vac, vac, method="pfaffian")
        assert len(calls) == 1
        assert [e["route"] for e in err.value.route] == ["pfaffian"]
