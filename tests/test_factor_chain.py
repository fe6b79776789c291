"""The factor-chain route: <J| F_1 ... F_k |I> as one Pfaffian over each
factor's own factor data, with a factor whose T22 is singular split into
its halves exp(M/2) exp(M/2).  Signed values are checked against the dense
oracle, and the work per value is counted."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.correlators import CorrelatorContext, ModeOp, _Engine, n_point
from fermigauss.linalg import LinalgError, SingularBlockError
from fermigauss.overlaps import (
    UnfixedBranchError,
    _chain_kernel,
    overlap,
    state_overlap,
)
from fermigauss.quadratic import QuadraticGenerator, random_generator, transfer_of

from conftest import all_configs, worked_example_m
from test_quadratic import pair_rotation_generator, rotation_plus_sector

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@functools.lru_cache(maxsize=None)
def modes(L: int):
    return fock.mode_operators(L)


def sector(L: int, rng) -> QuadraticGenerator:
    """A generic generator on sites 3..L only: it leaves a singular
    rotation on sites 1, 2 singular in the product."""
    return QuadraticGenerator(rotation_plus_sector(L, rng).m
                              - pair_rotation_generator(L, np.pi / 2).m)


def config(code: int, L: int) -> FockConfig:
    return FockConfig(tuple((code >> k) & 1 for k in range(L)))


#: (L, seed, ket kind, bra kind, bra code, ket code)
cases = st.tuples(st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
                  st.sampled_from(["rotation", "random"]),
                  st.sampled_from(["identity", "general"]),
                  st.integers(0, 2 ** 8 - 1), st.integers(0, 2 ** 8 - 1))


class TestOracle:
    @PROPERTY
    @given(cases)
    def test_signed_values_match_oracle(self, case):
        # one factor (a regular ket, identity bra), two (a split ket, or a
        # regular ket under a general bra) or three (a split ket under a
        # general bra), at L <= 8
        L, seed, ket_kind, bra_kind, bra_code, ket_code = case
        if ket_kind == "rotation":
            L = max(L, 2)
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.1, 3.0))
        g1 = (rotation_plus_sector(L, rng) if ket_kind == "rotation"
              else random_generator(L, rng, scale))
        bra, ket = config(bra_code, L), config(ket_code, L)
        if (bra.n_occupied + ket.n_occupied) % 2:
            ket = ket.flipped([1])
        f = fock.dense_gaussian(g1.m, modes=modes(L))
        if bra_kind == "identity":
            res = overlap(g1, bra, ket, method="factor-chain")
        else:
            g2 = random_generator(L, rng, scale)
            f = fock.dense_gaussian(g2.m, modes=modes(L)).conj().T @ f
            res = state_overlap(g1, g2, bra, ket, method="factor-chain")
        ref = fock.dense_element(f, bra, ket, modes=modes(L))
        expected = (ket_kind == "rotation") + (bra_kind == "general") + 1
        assert (res.method, res.sign_certain, res.route[-1]["factors"]) == \
            ("factor-chain", True, expected)
        assert abs(res.value - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("L", [2, 3, 5])
    def test_singular_bra_and_ket_split_both(self, L):
        # both T22 singular: four factors, the bra's halves adjoined
        rng = np.random.default_rng(L)
        g1, g2 = rotation_plus_sector(L, rng), rotation_plus_sector(L, rng)
        f = (fock.dense_gaussian(g2.m, modes=modes(L)).conj().T
             @ fock.dense_gaussian(g1.m, modes=modes(L)))
        for code in range(2 ** L):
            bra, ket = config(code, L), config(code ^ 3, L)
            res = state_overlap(g1, g2, bra, ket, method="factor-chain")
            ref = fock.dense_element(f, bra, ket, modes=modes(L))
            assert res.route[-1]["factors"] == 4
            assert abs(res.value - ref) <= 1e-10 * max(1.0, abs(ref))


def chain_case(L: int, ket: str, bra: bool):
    """(ket generator, bra generator or None): the ket is the L=3 worked
    example at a = pi/2, whose T22 is singular, the rotation-plus-sector
    generator (singular too) or a random one."""
    rng = np.random.default_rng(40 + L)
    g1 = {"worked": lambda: QuadraticGenerator(worked_example_m(np.pi / 2)),
          "rotation": lambda: rotation_plus_sector(L, rng),
          "random": lambda: random_generator(L, rng, 0.6)}[ket]()
    return g1, random_generator(L, rng, 0.6) if bra else None


class TestStackedKernel:
    @pytest.mark.parametrize("L, ket, bra, k", [
        (3, "worked", False, 2), (3, "worked", True, 3), (4, "random", True, 2),
        (4, "rotation", False, 2), (4, "rotation", True, 3),
    ])
    def test_one_elements_call_matches_per_pair_chain_and_oracle(self, L, ket, bra, k):
        # every bra/ket pair through one multi-factor kernel: the pairs of
        # one order share a stacked Pfaffian, each keeping the inner blocks.
        # A single pair takes the one-matrix Pfaffian, whose complex
        # products numpy rounds in its scalar loop, not in the array loop of
        # the stack, so the two agree to rounding, not bit for bit
        g1, g2 = chain_case(L, ket, bra)
        kern = _chain_kernel(g1, g2)
        assert kern.k == k
        pairs = [(b, c) for b in all_configs(L) for c in all_configs(L)]
        stacked = kern.elements([(b.bits, c.bits) for b, c in pairs])
        f = fock.dense_gaussian(g1.m, modes=modes(L))
        if g2 is not None:
            f = fock.dense_gaussian(g2.m, modes=modes(L)).conj().T @ f
        for (b, c), val in zip(pairs, stacked):
            res = (overlap(g1, b, c, method="factor-chain") if g2 is None
                   else state_overlap(g1, g2, b, c, method="factor-chain"))
            assert abs(val - res.value) <= 1e-13 * max(1.0, abs(res.value))
            ref = fock.dense_element(f, b, c, modes=modes(L))
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


class TestBorderedChain:
    @pytest.mark.parametrize("L, ket, bra, k", [
        (3, "worked", False, 2), (3, "worked", True, 3), (4, "random", True, 2),
        (4, "rotation", True, 3),
    ])
    def test_strings_match_oracle(self, L, ket, bra, k):
        # <J| F_1 ... F_k phi_1 ... phi_n |I> as one bordered Pfaffian of the
        # chain matrix: the string stands right of the last factor, so the
        # border couples to that factor's X-block rows, inner rows for k > 1.
        # The engine gives the coefficient rows; its kernel serves every pair
        g1, g2 = chain_case(L, ket, bra)
        vac = (0,) * L
        engine = _Engine(_chain_kernel(g1, g2), transfer_of(g1).t, vac, vac)
        assert engine.kern.k == k
        f1 = fock.dense_gaussian(g1.m, modes=modes(L))
        f2 = np.eye(2 ** L) if g2 is None else fock.dense_gaussian(g2.m, modes=modes(L))
        rng = np.random.default_rng(60 + L + k)
        values = 0
        for b in all_configs(L):
            for c in all_configs(L):
                n = int(rng.integers(1, 5))
                n += (b.n_occupied + c.n_occupied + n) % 2
                ops = [ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(0, 2)))
                       for _ in range(n)]
                val = engine.kern.bordered([engine._coeff_rows(op) for op in ops],
                                           b.bits, c.bits)
                a = fock.mode_string_matrix([(op.site, op.dagger) for op in ops], modes(L))
                ref = fock.dense_expectation(f2, a, f1, b, c, modes=modes(L))
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
                values += abs(ref) > 0.1
        assert values >= 4


class TestCounts:
    def test_warm_value_is_one_pfaffian_and_no_exponential(self, count_calls):
        L = 6
        rng = np.random.default_rng(3)
        g1, g2 = rotation_plus_sector(L, rng), sector(L, rng)
        pairs = [(config(int(a), L), config(int(b), L))
                 for a, b in rng.integers(0, 2 ** L, size=(12, 2))]
        pairs = [(bra, ket if (bra.n_occupied + ket.n_occupied) % 2 == 0 else ket.flipped([2]))
                 for bra, ket in pairs]
        state_overlap(g1, g2, *pairs[0])
        pfaffians, exponentials = count_calls("_pfaffian_exact"), count_calls("mat_exp")
        for bra, ket in pairs:
            res = state_overlap(g1, g2, bra, ket)
            assert [(e["route"], e["accepted"]) for e in res.route] == \
                [("pfaffian", False), ("factor-chain", True)]
        assert len(pfaffians) == len(pairs)
        assert exponentials == []

    def test_factor_data_cached_on_the_generator(self, count_calls):
        g = QuadraticGenerator(pair_rotation_generator(3, np.pi / 2).m)
        vac = FockConfig.vacuum(3)
        overlap(g, vac, vac)
        assert len(vars(g)["_chain"]) == 2      # the half, twice
        exponentials = count_calls("mat_exp")
        for bits in ((1, 1, 0), (0, 1, 1), (1, 0, 1)):
            overlap(g, FockConfig(bits), vac)
        assert exponentials == []

    def test_large_norm_pair_records_the_rejection(self, count_calls):
        # no factor of this pair has a root that a continuity path fixes:
        # the chain says why, and the chain of routes still ends singular
        g1, g2 = random_generator(8, 1, scale=20), random_generator(8, 2, scale=20)
        vac = FockConfig.vacuum(8)
        with pytest.raises(SingularBlockError) as err:
            state_overlap(g1, g2, vac, vac)
        chain = err.value.route[1]
        assert (chain["route"], chain["accepted"], chain["reason"]) == \
            ("factor-chain", False, "branch")
        assert chain["abs_det"] >= 1e13
        assert [e["route"] for e in err.value.route] == \
            ["pfaffian", "factor-chain", "epsilon", "cp-magnitude"]
        # the rejection is cached on the generator and raised again at no cost
        cached = vars(g2)["_chain"]
        assert isinstance(cached, UnfixedBranchError)
        exponentials = count_calls("mat_exp")
        with pytest.raises(LinalgError) as again:
            state_overlap(g1, g2, vac, vac, method="factor-chain")
        # a fresh instance of the cached error, with no traceback or context
        # that would tie the generator to the frames of an earlier call
        assert type(again.value) is type(cached)
        assert str(again.value) == str(cached) and again.value.abs_det == cached.abs_det
        assert again.value.__context__ is None and exponentials == []


def fails_on_every_route(call) -> None:
    try:
        call()
    except LinalgError:
        return
    raise AssertionError("a route answered")


def test_failing_pair_is_freed_without_the_cyclic_collector():
    # a cached rescue error keeps no traceback into the generator or
    # context that caches it, so reference counting alone frees them
    vac = FockConfig.vacuum(6)
    gc.disable()
    try:
        g1, g2 = random_generator(6, 4, scale=20), random_generator(6, 5, scale=20)
        for _ in range(2):
            fails_on_every_route(lambda: state_overlap(g1, g2, vac, vac))
        alive = [weakref.ref(g1), weakref.ref(g2)]
        del g1, g2
        assert [ref() for ref in alive] == [None, None]

        g1, g2 = random_generator(6, 4, scale=20), random_generator(6, 5, scale=20)
        ctx = CorrelatorContext(g1, g2, vac, vac)
        for _ in range(2):
            fails_on_every_route(lambda: n_point(ctx, ()))
        alive = [weakref.ref(ctx), weakref.ref(g1), weakref.ref(g2)]
        del ctx, g1, g2
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        gc.enable()
