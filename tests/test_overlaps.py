import numpy as np
import pytest

from fermigauss import overlaps, quadratic
from fermigauss.configs import FockConfig
from fermigauss.correlators import CorrelatorContext, ModeOp, generalized_expectation, n_point
from fermigauss.linalg import LinalgError, SingularBlockError, pfaffian
from fermigauss.linearpart import LinearGaussianOp, generalized_bbd
from fermigauss.overlaps import (
    ROUTES,
    OverlapKernel,
    compose_bra_ket,
    generalized_overlap,
    overlap,
    overlap_magnitude_cp,
    pair_state_amplitude,
    pair_state_norm,
    state_overlap,
)
from fermigauss.quadratic import (
    QuadraticGenerator,
    TransferMatrix,
    bbd_antinormal,
    bbd_normal,
    cp_apply_transfer,
    cp_suggestions,
    random_generator,
    transfer_of,
)

from conftest import (
    all_configs,
    pair_kernel,
    random_config,
    random_linear_op,
    random_skew,
    table_bits,
    worked_example_elements,
    worked_example_m,
)
from test_quadratic import rotation_plus_sector


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

    def test_transfer_input_gives_the_magnitude(self):
        # a transfer fixes its operator only up to sign: it has a magnitude
        g = random_generator(2, 105, 0.5)
        t = compose_bra_ket(transfer_of(QuadraticGenerator.zero(2)), transfer_of(g))
        for bra, ket in ((FockConfig.vacuum(2), FockConfig.vacuum(2)),
                         (FockConfig((1, 1)), FockConfig((0, 0)))):
            mag = overlap_magnitude_cp(t, bra, ket)
            assert not mag.sign_certain
            assert abs(mag.value - abs(overlap(g, bra, ket).value)) < 1e-12


class TestSingularFallbacks:
    def test_epsilon_reproduces_printed_table(self):
        a = np.pi / 2
        gen = QuadraticGenerator(worked_example_m(a))
        table = worked_example_elements(a)
        for r in range(8):
            for c in range(8):
                res = overlap(gen, FockConfig(table_bits(r)), FockConfig(table_bits(c)),
                              method="epsilon")
                assert abs(res.value - table[r, c]) < 1e-6
                if (r ^ c) not in (0, 3, 5, 6):  # parity mismatch -> short circuit
                    continue
                assert res.method == "epsilon-regularized"

    def test_factor_chain_reproduces_printed_table(self):
        # the auto route: T22 is singular, so every parity-allowed element
        # is one chain Pfaffian over the two halves exp(M/2) exp(M/2)
        a = np.pi / 2
        gen = QuadraticGenerator(worked_example_m(a))
        table = worked_example_elements(a)
        for r in range(8):
            for c in range(8):
                res = overlap(gen, FockConfig(table_bits(r)), FockConfig(table_bits(c)))
                assert abs(res.value - table[r, c]) < 1e-12
                if (r ^ c) in (0, 3, 5, 6):
                    assert (res.method, res.sign_certain) == ("factor-chain", True)
                    assert res.route[-1]["factors"] == 2

    def test_epsilon_agrees_with_pfaffian_when_regular(self):
        gen = QuadraticGenerator(worked_example_m(0.7))
        bra, ket = FockConfig((0, 0, 0)), FockConfig((1, 1, 0))
        direct = overlap(gen, bra, ket)
        eps = overlap(gen, bra, ket, method="epsilon")
        assert direct.method == "pfaffian"
        assert abs(direct.value - eps.value) < 1e-8

    def test_epsilon_schedule_refinement(self, monkeypatch):
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        bra = ket = FockConfig((0, 0, 0))
        monkeypatch.setattr(overlaps, "EPS_SCHEDULE", (1e-4, 5e-5))
        coarse = overlap(gen, bra, ket, method="epsilon")
        monkeypatch.setattr(overlaps, "EPS_SCHEDULE", (5e-5, 2.5e-5))
        fine = overlap(gen, bra, ket, method="epsilon")
        assert fine.route[-1]["eps_schedule"] == (5e-5, 2.5e-5, 1.25e-5)
        assert abs(coarse.value - fine.value) < 1e-7
        assert coarse.route[-1]["eps_seed"] == fine.route[-1]["eps_seed"]

    def test_epsilon_direction_drawn_once_per_L(self, monkeypatch):
        draws = []

        def counting(*args, **kwargs):
            draws.append(args)
            return random_generator(*args, **kwargs)

        monkeypatch.setattr(overlaps, "random_generator", counting)
        overlaps.epsilon_direction.cache_clear()
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig((0, 0, 0))
        values = [overlap(gen, vac, vac, method="epsilon").value for _ in range(3)]
        values.append(state_overlap(gen, QuadraticGenerator.zero(3), vac, vac,
                                    method="epsilon").value)
        assert draws == [(3, overlaps.EPS_SEED)]
        assert overlaps.epsilon_direction(3) is overlaps.epsilon_direction(3)
        assert np.array_equal(overlaps.epsilon_direction(3).m,
                              random_generator(3, overlaps.EPS_SEED, scale=1.0).m)
        assert len(set(values)) == 1

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_epsilon_sign_matches_oracle(self, L, oracle):
        # a singular two-site rotation plus a generic sector, identity bra
        # operator, vacuum ket: every nonzero element used to take the
        # epsilon route, whose continuity paths miss the double zero of
        # det T22(s) near s = 1 at L = 3, 5, 6 and 7; the factor chain now
        # serves them all, signed
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
            assert res.method == "factor-chain" and res.sign_certain
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
        kern = OverlapKernel([bbd_normal(tt)])
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

    @pytest.mark.parametrize("method", ["auto", "factor-chain", "epsilon", "cp-magnitude"])
    def test_quadratic_opposite_parity_is_the_parity_zero(self, method):
        # two quadratic operators conserve parity, so every method returns
        # the parity zero of the quadratic overlaps; forced epsilon used to
        # extrapolate the O(eps) values of a perturbation that couples the
        # ancilla, and raised ExtrapolationError on 80 of these 128 pairs
        op1, op2 = (LinearGaussianOp.quadratic(random_generator(4, np.random.default_rng(s), 3.0))
                    for s in (100, 101))
        for bra in all_configs(4):
            for ket in all_configs(4):
                if bra.parity == ket.parity:
                    continue
                res = generalized_overlap(op1, op2, bra, ket, method=method)
                assert (res.value, res.method, res.route) == (0.0, "pfaffian", [])

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
            ref = fock.config_state(cfg).conj() @ psi
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


def grassmann_pairing_matrix(x: np.ndarray, exp_y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The intermediate 6L x 6L antisymmetric matrix of the coherent-state
    integral, before the integration over auxiliary variable pairs."""
    L = x.shape[0]
    eye = np.eye(L, dtype=complex)
    o = np.zeros((L, L), dtype=complex)
    return np.block([
        [x, eye, o, o, o, o],
        [-eye, o, eye, o, o, o],
        [o, -eye, o, exp_y, o, o],
        [o, o, -exp_y.T, o, eye, o],
        [o, o, o, -eye, o, eye],
        [o, o, o, o, -eye, z],
    ])


def grassmann_reduced_pfaffian(x, exp_y, z, bra: FockConfig, ket: FockConfig) -> complex:
    """pf of the 6L x 6L matrix with rows/cols J0 and 5L + I0 removed."""
    L = x.shape[0]
    big = grassmann_pairing_matrix(x, exp_y, z)
    keep = [j - 1 for j in bra.occupied] + list(range(L, 5 * L)) \
        + [5 * L + i - 1 for i in ket.occupied]
    return pfaffian(big[np.ix_(keep, keep)])


class TestGrassmannCrossCheck:
    """The full coherent-state integral reduces to the 2L x 2L pairing matrix
    that the library evaluates."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_full_matrix_reduces(self, L):
        rng = np.random.default_rng(141 + L)
        g = random_generator(L, rng, 0.6)
        kern = OverlapKernel([bbd_normal(transfer_of(g))])
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


def test_signed_overlaps_take_generators_and_the_magnitude_call_transfers():
    g = random_generator(2, 151, 0.5)
    t = transfer_of(g)
    vac = FockConfig.vacuum(2)
    for call in (lambda: overlap(t, vac, vac), lambda: overlap(t, vac, vac, method="epsilon"),
                 lambda: state_overlap(t, g, vac, vac), lambda: state_overlap(g, t, vac, vac)):
        with pytest.raises(TypeError, match="overlap_magnitude_cp"):
            call()
    with pytest.raises(TypeError, match="TransferMatrix"):
        overlap_magnitude_cp(g, vac, vac)


def test_site_counts_checked_before_parity():
    # a parity mismatch used to return an exact zero, and an equal parity a
    # numpy shape error, before the sizes were compared
    g3 = random_generator(3, 1, 0.5)
    vac3 = FockConfig.vacuum(3)
    with pytest.raises(ValueError, match="inconsistent site counts"):
        overlap(g3, FockConfig((1,)), FockConfig((0, 0, 0)))
    g2 = random_generator(2, 1, 0.5)
    for bra, ket in [(vac3, vac3), (FockConfig((1, 0, 0)), vac3)]:
        with pytest.raises(ValueError, match="inconsistent site counts"):
            state_overlap(g3, g2, bra, ket)
        with pytest.raises(ValueError, match="inconsistent site counts"):
            generalized_overlap(LinearGaussianOp.quadratic(g3), LinearGaussianOp.quadratic(g2),
                                bra, ket)


def test_no_restoring_subset_raises(monkeypatch):
    # identity transfer flipped is always invertible, so build a genuinely
    # unrestorable case: impossible for canonical transfers of this family,
    # hence exercise the error path through an empty scan result instead
    g = random_generator(2, 152, 0.5)
    t = transfer_of(g)
    monkeypatch.setattr(quadratic, "RCOND_TOL", 2.0)
    with pytest.raises(SingularBlockError):
        overlap_magnitude_cp(t, FockConfig((0, 0)), FockConfig((0, 0)))


def cancelling_pair(scale: float) -> tuple:
    """A random L = 4 generator M at ``scale`` and the bra generator -M^dag,
    so that F2^dag F1 = e^(-M) e^(M) = I exactly."""
    g = random_generator(4, 1, scale=scale)
    return g, QuadraticGenerator(-g.m.conj().T)


def rejected_everywhere(err, routes=ROUTES) -> bool:
    return ([e["route"] for e in err.value.route] == list(routes)
            and not any(e["accepted"] for e in err.value.route))


class TestRescueChain:
    @pytest.mark.parametrize("method", ["bogus", "Auto", "magnitude"])
    def test_unknown_method_is_refused(self, method):
        g, vac = random_generator(2, 5, 0.5), FockConfig.vacuum(2)
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            state_overlap(g, QuadraticGenerator.zero(2), vac, vac, method=method)
        with pytest.raises(ValueError, match=f"unknown method '{method}'"):
            generalized_overlap(LinearGaussianOp.zero(2), LinearGaussianOp.zero(2), vac, vac,
                                method=method)

    def test_epsilon_disagreement_is_a_rejected_route(self, monkeypatch):
        # with no tolerance the forced epsilon route refuses the pi/2 worked
        # example, and its one route entry names the disagreement
        monkeypatch.setattr(overlaps, "EPS_AGREE_TOL", 0.0)
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        with pytest.raises(overlaps.ExtrapolationError) as err:
            overlap(gen, vac, vac, method="epsilon")
        d = err.value.disagreement
        assert d > 0.0 and "consider the cp-magnitude route" in str(err.value)
        assert err.value.route == [{"route": "epsilon", "accepted": False,
                                    "reason": "eps_disagreement", "eps_disagreement": d}]

    def test_route_records_each_attempt(self):
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        res = overlap(gen, vac, vac)
        assert [(e["route"], e["accepted"]) for e in res.route] == \
            [("pfaffian", False), ("factor-chain", True)]
        assert res.route[0]["reason"] == "rcond" and res.route[0]["rcond"] < 1e-12
        assert set(res.route[1]) == {"route", "accepted", "factors", "rcond"}
        assert res.route[1]["factors"] == 2 and res.route[1]["rcond"] >= 1e-12
        forced = overlap(gen, vac, vac, method="epsilon")
        assert set(forced.route[0]) == {"route", "accepted", "eps_schedule", "eps_seed",
                                        "eps_disagreement"}
        regular = overlap(QuadraticGenerator(worked_example_m(0.7)), vac, vac)
        assert regular.route == [{"route": "pfaffian", "accepted": True,
                                  "rcond": regular.route[0]["rcond"], "sign_certain": True,
                                  "branch": "continuity"}]

    def test_one_accepted_entry_is_the_provenance(self):
        # the result's route ends with its one accepted entry, which holds
        # the data of the route that answered
        def accepted(res):
            entries = [e for e in res.route if e["accepted"]]
            assert len(entries) == 1 and res.route[-1] is entries[0]
            assert res.method.startswith(entries[0]["route"])
            return {k: v for k, v in entries[0].items() if k not in ("route", "accepted")}

        g1, g2 = random_generator(4, 3, 0.5), random_generator(4, 4, 0.5)
        regular = state_overlap(g1, g2, FockConfig.from_string("1100"), FockConfig.vacuum(4))
        assert accepted(regular) == {"rcond": overlaps._pair_kernel(g1, g2).rcond,
                                     "sign_certain": True, "branch": "continuity"}
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        t = transfer_of(gen)
        bra, ket = FockConfig.from_string("110"), FockConfig.vacuum(3)
        chain = overlap(gen, bra, ket)
        assert accepted(chain) == {"factors": 2, "rcond": overlaps._chain_kernel(gen, None).rcond}
        eps = accepted(overlap(gen, bra, ket, method="epsilon"))
        assert eps.pop("eps_disagreement") <= overlaps.EPS_AGREE_TOL
        assert eps == {"eps_schedule": (1e-4, 5e-5, 2.5e-5), "eps_seed": overlaps.EPS_SEED}
        cp = {"cp_sites": (1,), "rcond": OverlapKernel([bbd_normal(cp_apply_transfer(t, (1,)))]).rcond}
        assert accepted(overlap(gen, bra, ket, method="cp-magnitude")) == cp
        assert accepted(overlap_magnitude_cp(t, bra, ket)) == cp
        zero = overlap(gen, FockConfig.from_string("100"), ket)
        assert (zero.value, zero.method, zero.route) == (0.0, "pfaffian", [])
        assert not hasattr(zero, "diagnostics")
        with pytest.raises(LinalgError) as err:
            state_overlap(*cancelling_pair(20), FockConfig.vacuum(4), FockConfig.vacuum(4))
        assert rejected_everywhere(err)

    @pytest.mark.parametrize("pair, error", [
        (lambda: (random_generator(8, 1, 20), random_generator(8, 2, 20)), SingularBlockError),
        (lambda: cancelling_pair(20), quadratic.JOrthogonalityError)], ids=["large", "cancelling"])
    def test_one_pair_product_per_call(self, monkeypatch, pair, error):
        # the Pfaffian and the magnitude routes read one product of the
        # pair's transfers; a refused product is refused once.  The other
        # product and J-check are the epsilon route's, on its perturbed ket
        g1, g2 = pair()
        vac = FockConfig.vacuum(g1.L)
        with pytest.raises(error) as cold:
            state_overlap(g1, g2, vac, vac)
        products, checks = [], []
        compose, defect = overlaps.compose_bra_ket, TransferMatrix._defect
        monkeypatch.setattr(overlaps, "compose_bra_ket",
                            lambda *a: products.append(a) or compose(*a))
        monkeypatch.setattr(TransferMatrix, "_defect",
                            staticmethod(lambda t: checks.append(t) or defect(t)))
        with pytest.raises(error) as warm:
            state_overlap(g1, g2, vac, vac)
        assert (len(products), len(checks)) == (2, 3)
        assert rejected_everywhere(warm)
        assert warm.value.route == cold.value.route
        assert (str(warm.value), vars(warm.value)) == (str(cold.value), vars(cold.value))

    def test_rcond_tol_held_on_every_route(self, monkeypatch):
        # no rcond estimate reaches 2, so one threshold rejects every pivot
        # block of every entry point; the operators are regular and fresh,
        # so nothing was factorized (and cached) before
        gen = random_generator(3, 5, 0.6)
        zero = QuadraticGenerator.zero(3)
        lin, lin_zero = LinearGaussianOp.quadratic(gen), LinearGaussianOp.zero(3)
        vac = FockConfig.vacuum(3)
        monkeypatch.setattr(quadratic, "RCOND_TOL", 2.0)
        for call in (lambda: overlap(gen, vac, vac),
                     lambda: state_overlap(gen, zero, vac, vac),
                     lambda: generalized_overlap(lin, lin_zero, vac, vac)):
            with pytest.raises(SingularBlockError) as err:
                call()
            assert rejected_everywhere(err)
        # correlators need the sign, so they run the Pfaffian and the
        # factor chain only
        for value in (n_point, generalized_expectation):
            with pytest.raises(SingularBlockError) as err:
                value(CorrelatorContext(gen, zero, vac, vac), ())
            assert rejected_everywhere(err, ("pfaffian", "factor-chain"))
        t = TransferMatrix(transfer_of(gen).t.copy())
        for factorize, src in ((bbd_normal, t), (bbd_antinormal, t),
                               (generalized_bbd, LinearGaussianOp.quadratic(gen))):
            with pytest.raises(SingularBlockError):
                factorize(src)
        assert cp_suggestions(t) == []

    @pytest.mark.parametrize("linear", [False, True])
    def test_numerical_failure_rejects_its_route(self, linear):
        # every route that forms a product transfer overflows its
        # J-orthogonality check, and the factor chain, which forms none,
        # finds the factors' own T22 singular: each attempt is recorded, and
        # the last error carries them.  The correlators' last route is the
        # factor chain, so theirs is its SingularBlockError
        g1, g2 = random_generator(2, 2, 150), random_generator(2, 102, 150)
        vac = FockConfig.vacuum(2)
        ctx = CorrelatorContext(g1, g2, vac, vac)
        if linear:
            ops = LinearGaussianOp.quadratic(g1), LinearGaussianOp.quadratic(g2)
            pair, value = generalized_overlap, generalized_expectation
        else:
            ops, pair, value = (g1, g2), state_overlap, n_point
        with pytest.raises(LinalgError, match="J-orthogonality check overflows") as err:
            pair(*ops, vac, vac)
        assert not isinstance(err.value, SingularBlockError)
        assert rejected_everywhere(err)
        reasons = {e["route"]: e["reason"] for e in err.value.route}
        assert reasons.pop("factor-chain") == "rcond"
        assert set(reasons.values()) == {"numerical"}
        assert err.value.route[-1]["message"] == str(err.value)
        with pytest.raises(SingularBlockError) as err:
            value(ctx, ())
        assert rejected_everywhere(err, ("pfaffian", "factor-chain"))
        assert [e["reason"] for e in err.value.route] == ["numerical", "rcond"]
        assert "J-orthogonality check overflows" in err.value.route[0]["message"]

    def test_failed_product_j_check_rejects_its_route(self):
        # F2^dag F1 = e^(-M) e^(M) = I, but the product of the two scale-8
        # transfers misses T J T^T = J by 1.4e-8: the pfaffian route is
        # rejected as numerical and the factor chain, which forms no
        # product, answers
        g, g2 = cancelling_pair(8)
        vac = FockConfig.vacuum(4)
        res = state_overlap(g, g2, vac, vac)
        assert abs(res.value - 1.0) <= 1e-9
        assert [(e["route"], e["accepted"], e.get("reason")) for e in res.route] == [
            ("pfaffian", False, "numerical"), ("factor-chain", True, None)]
        assert "T J T^T = J violated" in res.route[0]["message"]

    def test_failed_product_j_check_generalized(self):
        g, g2 = cancelling_pair(8)
        vac = FockConfig.vacuum(4)
        res = generalized_overlap(LinearGaussianOp.quadratic(g), LinearGaussianOp.quadratic(g2),
                                  vac, vac)
        assert abs(res.value - 1.0) <= 1e-8
        assert res.method == "factor-chain"

    def test_failed_product_j_check_correlator(self, oracle):
        # F1^-1 c1^dag c2^dag F1 between <1100| and the vacuum: a large value
        g, g2 = cancelling_pair(8)
        bra, vac = FockConfig.from_string("1100"), FockConfig.vacuum(4)
        ops = (ModeOp(1, True), ModeOp(2, True))
        ctx = CorrelatorContext(g, g2, bra, vac)
        value = n_point(ctx, ops)
        orc = oracle(4)
        ref = orc.sandwich(orc.gaussian(g2), ops, orc.gaussian(g), bra, vac)
        assert abs(value - ref) <= 1e-9 * abs(ref)
        assert ctx.method == "factor-chain"

    def test_no_exception_escapes_epsilon_route(self):
        # every perturbed kernel of this large-norm operator fails the
        # relative rcond test; the chain must still reach the cp route
        g = random_generator(8, 0, scale=30)
        vac = FockConfig.vacuum(8)
        with pytest.raises(SingularBlockError) as err:
            state_overlap(g, QuadraticGenerator.zero(8), vac, vac)
        assert rejected_everywhere(err)
        assert err.value.route[2] == {"route": "epsilon", "accepted": False,
                                      "reason": "rcond", "rcond": err.value.route[2]["rcond"]}

    def test_overflowing_exponential_is_a_numerical_failure(self):
        g = random_generator(4, 1, scale=1000)
        vac = FockConfig.vacuum(4)
        with pytest.raises(LinalgError, match="overflows"):
            state_overlap(g, QuadraticGenerator.zero(4), vac, vac)

    def test_epsilon_route_builds_no_operator(self, oracle, monkeypatch):
        # the epsilon route perturbs the embedded ket generator it is handed,
        # so no perturbed (M, u, v) is built and embedded again; the
        # correlator, which has no epsilon route, takes the factor chain
        orc = oracle(3)
        op = LinearGaussianOp(worked_example_m(np.pi / 2), [0.3, 0, 0], None)
        zero = LinearGaussianOp.zero(3)
        f1, f2 = orc.gaussian(op), orc.gaussian(zero)
        bra, ket = FockConfig.from_string("010"), FockConfig.from_string("011")
        ctx = CorrelatorContext(op, zero, bra, ket)
        ops = (ModeOp(2, True), ModeOp(3, False), ModeOp(1, False))
        builds = []
        orig = LinearGaussianOp.__post_init__
        monkeypatch.setattr(LinearGaussianOp, "__post_init__",
                            lambda self: builds.append(self) or orig(self))
        res = generalized_overlap(op, zero, FockConfig.from_string("110"), ket, method="epsilon")
        value = generalized_expectation(ctx, ops)
        assert builds == []
        assert res.method == "epsilon-regularized"
        assert [r["route"] for r in ctx.route] == ["pfaffian", "factor-chain"]
        ref = orc.element(f1, FockConfig.from_string("110"), ket)
        assert abs(ref) > 0.5 and abs(res.value - ref) < 1e-8
        ref = orc.sandwich(f2, ops, f1, bra, ket)
        assert abs(ref) > 0.5 and abs(value - ref) < 1e-8

    def test_forced_pfaffian_rejects_before_sign_tracking(self, count_calls):
        calls = count_calls("mat_exp")
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        vac = FockConfig.vacuum(3)
        with pytest.raises(SingularBlockError) as err:
            overlap(gen, vac, vac, method="pfaffian")
        assert len(calls) == 1
        assert [e["route"] for e in err.value.route] == ["pfaffian"]
