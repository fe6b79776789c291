import numpy as np
import pytest

from fermigauss import overlaps
from fermigauss.configs import FockConfig
from fermigauss.correlators import (
    CorrelatorContext,
    ModeOp,
    WickTerm,
    ZeroOverlapError,
    generalized_expectation,
    generalized_overlap_value,
    generalized_wick_expansion,
    n_point,
    one_point,
    overlap_value,
    pairings_with_sign,
    parse_mode_string,
    two_point,
)
from fermigauss.linalg import pfaffian
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.quadratic import QuadraticGenerator, random_generator

from conftest import random_config, random_linear_op, worked_example_m


def rand_string(rng, L, n):
    return tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(0, 2)))
                 for _ in range(n))


def quad_ctx(rng, L, scale=0.6, bra=None, ket=None):
    return CorrelatorContext(
        random_generator(L, rng, scale), random_generator(L, rng, scale),
        bra if bra is not None else random_config(rng, L),
        ket if ket is not None else random_config(rng, L),
    )


def oracle_value(ctx, ops, orc):
    f1 = orc.gaussian(ctx.op1)
    f2 = orc.gaussian(ctx.op2)
    return orc.sandwich(f2, ops, f1, ctx.bra, ctx.ket)


def test_parse_mode_string():
    ops = parse_mode_string("c1 cd2 c3")
    assert ops == (ModeOp(1, False), ModeOp(2, True), ModeOp(3, False))
    with pytest.raises(ValueError):
        parse_mode_string("c1 d2")
    with pytest.raises(ValueError):
        parse_mode_string("cd0")


def test_pairing_signs_match_pfaffian():
    rng = np.random.default_rng(201)
    for n in (2, 4, 6):
        g = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                g[a, b] = rng.standard_normal() + 1j * rng.standard_normal()
                g[b, a] = -g[a, b]
        total = sum(
            sign * np.prod([g[a, b] for a, b in pairs])
            for sign, pairs in pairings_with_sign(range(n))
        )
        assert abs(total - pfaffian(g)) < 1e-10 * max(1.0, abs(total))


class TestOnePoint:
    def test_equal_parity_exact_zero(self):
        rng = np.random.default_rng(202)
        ctx = quad_ctx(rng, 3, bra=FockConfig((1, 1, 0)), ket=FockConfig((1, 0, 1)))
        assert one_point(ctx, ModeOp(2, False)) == 0.0

    def test_bare_annihilation(self):
        L = 3
        zero = QuadraticGenerator.zero(L)
        ctx = CorrelatorContext(zero, zero, FockConfig.vacuum(L), FockConfig((1, 0, 0)))
        assert one_point(ctx, ModeOp(1, False)) == pytest.approx(1.0)

    def test_vs_oracle_all_sites(self, oracle):
        L = 3
        orc = oracle(L)
        rng = np.random.default_rng(203)
        ctx = quad_ctx(rng, L, bra=FockConfig((1, 0, 0)), ket=FockConfig((1, 1, 0)))
        for site in range(1, L + 1):
            for dag in (False, True):
                op = ModeOp(site, dag)
                assert abs(one_point(ctx, op) - oracle_value(ctx, (op,), orc)) < 1e-9


class TestTwoPoint:
    def test_vacuum_anticommutator(self):
        L = 3
        zero = QuadraticGenerator.zero(L)
        vac = FockConfig.vacuum(L)
        ctx = CorrelatorContext(zero, zero, vac, vac)
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                val = two_point(ctx, ModeOp(i, False), ModeOp(j, True))
                assert val == pytest.approx(1.0 if i == j else 0.0)

    def test_opposite_parity_exact_zero(self):
        rng = np.random.default_rng(204)
        ctx = quad_ctx(rng, 3, bra=FockConfig((1, 0, 0)), ket=FockConfig((1, 1, 0)))
        assert two_point(ctx, ModeOp(1, False), ModeOp(2, True)) == 0.0

    def test_vs_oracle_all_pairs(self, oracle):
        L = 3
        orc = oracle(L)
        rng = np.random.default_rng(205)
        ctx = quad_ctx(rng, L, bra=FockConfig((1, 0, 0)), ket=FockConfig((0, 1, 0)))
        for i in range(1, L + 1):
            for j in range(1, L + 1):
                for di in (False, True):
                    for dj in (False, True):
                        a, b = ModeOp(i, di), ModeOp(j, dj)
                        assert abs(two_point(ctx, a, b)
                                   - oracle_value(ctx, (a, b), orc)) < 1e-9


class TestNPoint:
    def test_two_point_special_case(self):
        rng = np.random.default_rng(206)
        ctx = quad_ctx(rng, 3, bra=FockConfig((1, 1, 0)), ket=FockConfig((0, 1, 1)))
        a, b = ModeOp(1, True), ModeOp(3, False)
        assert n_point(ctx, (a, b)) == two_point(ctx, a, b)

    def test_four_point_three_pairing_identity(self, oracle):
        # on vacuum configurations with an identity bra operator the four-point
        # function reduces to the three signed products of two-point functions
        L = 3
        orc = oracle(L)
        rng = np.random.default_rng(207)
        vac = FockConfig.vacuum(L)
        ctx = CorrelatorContext(random_generator(L, rng, 0.6),
                                QuadraticGenerator.zero(L), vac, vac)
        ops = rand_string(rng, L, 4)
        ovl = overlap_value(ctx)
        expected = (
            two_point(ctx, ops[0], ops[1]) * two_point(ctx, ops[2], ops[3])
            - two_point(ctx, ops[0], ops[2]) * two_point(ctx, ops[1], ops[3])
            + two_point(ctx, ops[0], ops[3]) * two_point(ctx, ops[1], ops[2])
        ) / ovl
        val = n_point(ctx, ops)
        assert abs(val - expected) < 1e-10
        assert abs(val - oracle_value(ctx, ops, orc)) < 1e-9

    def test_strings_vs_oracle(self, oracle):
        rng = np.random.default_rng(208)
        for trial in range(8):
            L = int(rng.integers(1, 5))
            orc = oracle(L)
            ctx = quad_ctx(rng, L)
            for n in range(1, 7):
                ops = rand_string(rng, L, n)
                try:
                    val = n_point(ctx, ops)
                except ZeroOverlapError:
                    continue
                assert abs(val - oracle_value(ctx, ops, orc)) < 1e-8

    def test_parity_superselection_exact(self):
        rng = np.random.default_rng(209)
        for _ in range(10):
            L = int(rng.integers(1, 5))
            ctx = quad_ctx(rng, L)
            for n in range(7):
                if (ctx.ket.n_occupied + n + ctx.bra.n_occupied) % 2:
                    assert n_point(ctx, rand_string(rng, L, n)) == 0.0

    def test_anticommutation_consistency(self, oracle):
        # <.. phi_i phi_j ..> + <.. phi_j phi_i ..> = {phi_i, phi_j} <..>
        rng = np.random.default_rng(210)
        L = 3
        ctx = quad_ctx(rng, L, bra=FockConfig((1, 0, 1)), ket=FockConfig((1, 1, 1)))
        for _ in range(6):
            i, j = int(rng.integers(1, L + 1)), int(rng.integers(1, L + 1))
            a, b = ModeOp(i, False), ModeOp(j, True)
            lhs = n_point(ctx, (a, b)) + n_point(ctx, (b, a))
            rhs = (1.0 if i == j else 0.0) * overlap_value(ctx)
            assert abs(lhs - rhs) < 1e-9

    def test_zero_overlap_guard(self):
        # the analytic example has same-parity configuration pairs with an
        # exactly vanishing overlap; a 4-point request there must raise with
        # the unnormalized pairing sum attached
        gen = QuadraticGenerator(worked_example_m(0.7))
        ctx = CorrelatorContext(gen, QuadraticGenerator.zero(3),
                                FockConfig((0, 0, 0)), FockConfig((1, 1, 0)))
        assert overlap_value(ctx) == pytest.approx(0.0, abs=1e-14)
        ops = (ModeOp(1, False), ModeOp(1, True), ModeOp(2, False), ModeOp(2, True))
        with pytest.raises(ZeroOverlapError) as err:
            n_point(ctx, ops)
        assert err.value.n_factors == 2
        assert np.isfinite(err.value.unnormalized)

    def test_odd_string_needs_no_normalization(self, oracle):
        # <000|F|110> = 0 in the analytic example, but an odd string between
        # 000 and 010 has a finite value and no overlap to divide by
        gen = QuadraticGenerator(worked_example_m(0.7))
        ctx = CorrelatorContext(gen, QuadraticGenerator.zero(3),
                                FockConfig.from_string("000"), FockConfig.from_string("010"))
        ops = parse_mode_string("c1 cd1 c2")
        ref = oracle_value(ctx, ops, oracle(3))
        assert abs(ref) > 0.5
        assert abs(n_point(ctx, ops) - ref) < 1e-9

    def test_epsilon_route_at_singular_point(self, oracle, monkeypatch):
        # at a = pi/2 the composed T22 is singular for every configuration
        # pair, so each value below comes from the perturbative route
        calls = []
        orig = overlaps._epsilon_extrapolate
        monkeypatch.setattr(overlaps, "_epsilon_extrapolate",
                            lambda *a: calls.append(a) or orig(*a))
        orc = oracle(3)
        gen = QuadraticGenerator(worked_example_m(np.pi / 2))
        cases = [
            ("100", "101", "cd1"),
            ("001", "001", "c2 cd3"),
            ("010", "010", "c1 cd2 c3 cd3"),
        ]
        for bra, ket, string in cases:
            ctx = CorrelatorContext(gen, QuadraticGenerator.zero(3),
                                    FockConfig.from_string(bra), FockConfig.from_string(ket))
            ops = parse_mode_string(string)
            ref = oracle_value(ctx, ops, orc)
            assert abs(ref) > 0.5
            assert abs(n_point(ctx, ops) - ref) < 1e-8
        assert len(calls) == len(cases)

    def test_uncertain_sign_takes_epsilon_route(self, oracle, monkeypatch):
        # a Pfaffian prefactor whose sign cannot be tracked is rejected, as
        # in overlap(); the value then comes from the perturbative route
        calls = []
        orig_eps = overlaps._epsilon_extrapolate
        orig_sqrt = overlaps.sqrt_det_continuous
        monkeypatch.setattr(overlaps, "_epsilon_extrapolate",
                            lambda *a: calls.append(a) or orig_eps(*a))
        monkeypatch.setattr(overlaps, "sqrt_det_continuous",
                            lambda path, end: (orig_sqrt(path, end)[0], False))
        rng = np.random.default_rng(907)
        orc = oracle(3)
        ctx = quad_ctx(rng, 3, bra=FockConfig.from_string("110"),
                       ket=FockConfig.from_string("011"))
        strings = ("c1 cd2", "cd1 c3")
        for string in strings:
            ops = parse_mode_string(string)
            ref = oracle_value(ctx, ops, orc)
            assert abs(ref) > 0.1
            assert abs(n_point(ctx, ops) - ref) < 1e-8
        assert len(calls) == len(strings)
        assert ctx._engines[False].sign_certain is False  # built once, kept


class TestGeneralized:
    def test_reduces_to_quadratic_path(self):
        rng = np.random.default_rng(211)
        for _ in range(6):
            L = int(rng.integers(1, 4))
            ctx = quad_ctx(rng, L, 0.5)
            for n in range(6):
                ops = rand_string(rng, L, n)
                try:
                    direct = n_point(ctx, ops)
                except ZeroOverlapError:
                    continue
                assert abs(generalized_expectation(ctx, ops) - direct) < 1e-11

    def test_single_mode_annihilator(self, oracle):
        orc = oracle(1)
        op = LinearGaussianOp(np.zeros((2, 2)), np.array([0.6]), np.array([0.2]))
        ctx = CorrelatorContext(op, LinearGaussianOp.zero(1),
                                FockConfig((0,)), FockConfig((0,)))
        val = generalized_expectation(ctx, (ModeOp(1, False),))
        assert abs(val - oracle_value(ctx, (ModeOp(1, False),), orc)) < 1e-12

    def test_strings_vs_oracle(self, oracle):
        rng = np.random.default_rng(212)
        for trial in range(6):
            L = int(rng.integers(1, 4))
            orc = oracle(L)
            ctx = CorrelatorContext(random_linear_op(rng, L, 0.5),
                                    random_linear_op(rng, L, 0.5),
                                    random_config(rng, L), random_config(rng, L))
            for n in range(6):
                ops = rand_string(rng, L, n)
                val = generalized_expectation(ctx, ops)
                assert abs(val - oracle_value(ctx, ops, orc)) < 1e-8

    def test_one_point_expansion_trivial(self):
        rng = np.random.default_rng(213)
        ctx = CorrelatorContext(random_linear_op(rng, 2, 0.5),
                                random_linear_op(rng, 2, 0.5),
                                FockConfig((1, 0)), FockConfig((0, 0)))
        op = ModeOp(2, True)
        val, terms = generalized_wick_expansion(ctx, (op,))
        assert len(terms) == 1 and terms[0].singleton == 0
        assert val == generalized_expectation(ctx, (op,))

    def test_three_point_identity_structure(self):
        # <<ijk>> = (1/ovl)[<<ij>><<k>> - <<ik>><<j>> + <<jk>><<i>>]
        rng = np.random.default_rng(214)
        ctx = CorrelatorContext(random_linear_op(rng, 2, 0.5),
                                random_linear_op(rng, 2, 0.5),
                                FockConfig((1, 0)), FockConfig((1, 1)))
        ops = rand_string(rng, 2, 3)
        val, terms = generalized_wick_expansion(ctx, ops)
        assert sorted(t.singleton for t in terms) == [0, 1, 2]
        signs = {t.singleton: t.sign for t in terms}
        assert signs[2] == 1 and signs[1] == -1 and signs[0] == 1
        p = {(a, b): generalized_expectation(ctx, (ops[a], ops[b]))
             for a in range(3) for b in range(a + 1, 3)}
        s = {a: generalized_expectation(ctx, (ops[a],)) for a in range(3)}
        ovl = generalized_overlap_value(ctx)
        expected = (p[(0, 1)] * s[2] - p[(0, 2)] * s[1] + p[(1, 2)] * s[0]) / ovl
        assert abs(val - expected) < 1e-12
        assert abs(val - generalized_expectation(ctx, ops)) < 1e-8

    def test_expansion_matches_direct_to_length_six(self):
        rng = np.random.default_rng(215)
        for trial in range(5):
            L = int(rng.integers(1, 4))
            ctx = CorrelatorContext(random_linear_op(rng, L, 0.5),
                                    random_linear_op(rng, L, 0.5),
                                    random_config(rng, L), random_config(rng, L))
            for n in range(1, 7):
                ops = rand_string(rng, L, n)
                try:
                    val, _ = generalized_wick_expansion(ctx, ops)
                except ZeroOverlapError:
                    continue
                assert abs(val - generalized_expectation(ctx, ops)) < 1e-8

    def test_normalization_homogeneity(self):
        # rescaling the ket state by lambda multiplies every raw expectation
        # by lambda; the expansion must then scale by exactly lambda as well
        rng = np.random.default_rng(216)
        ctx = CorrelatorContext(random_linear_op(rng, 2, 0.5),
                                random_linear_op(rng, 2, 0.5),
                                FockConfig((1, 0)), FockConfig((0, 1)))
        ops = rand_string(rng, 2, 5)
        val, terms = generalized_wick_expansion(ctx, ops)
        ovl = generalized_overlap_value(ctx)
        lam = 1.7 - 0.4j
        scaled_terms = sum(
            t.sign * np.prod([lam * f for f in t.factors]) for t in terms
        )
        n_factors = (len(ops) + 1) // 2
        scaled = scaled_terms / (lam * ovl) ** (n_factors - 1)
        assert abs(scaled - lam * val) < 1e-10 * max(1.0, abs(val))

    def test_expansion_guard_at_superselection(self):
        # quadratic operators, odd string, opposite parities: the expansion's
        # normalizing overlap vanishes identically while the direct
        # evaluation stays finite
        rng = np.random.default_rng(217)
        g1 = random_generator(2, rng, 0.5)
        g2 = random_generator(2, rng, 0.5)
        ctx = CorrelatorContext(g1, g2, FockConfig((1, 0)), FockConfig((0, 0)))
        ops = (ModeOp(1, True), ModeOp(2, True), ModeOp(2, False))
        direct = generalized_expectation(ctx, ops)
        assert abs(direct - n_point(ctx, ops)) < 1e-11
        with pytest.raises(ZeroOverlapError):
            generalized_wick_expansion(ctx, ops)


def test_context_validation():
    g = random_generator(2, 218)
    with pytest.raises(ValueError):
        CorrelatorContext(g, g, FockConfig((0, 0, 0)), FockConfig((0, 0)))
    ctx = CorrelatorContext(LinearGaussianOp(g.m, np.array([0.1, 0]), None), g,
                            FockConfig((0, 0)), FockConfig((0, 0)))
    with pytest.raises(ValueError):
        n_point(ctx, ())
