"""The factor data X, e^Y, Z and det(T22)^(1/2), computed by one pivot routine.

Count gates (monkeypatched counters, never wall time) and property tests
over random admissible generators.
"""

import functools
import gc
import weakref
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss import correlators, quadratic
from fermigauss.configs import FockConfig
from fermigauss.correlators import CorrelatorContext, ModeOp, generalized_expectation, n_point
from fermigauss.linalg import (
    LinalgError,
    MatrixLogError,
    SingularBlockError,
    mat_exp,
    sqrt_det_via_log,
)
from fermigauss.linearpart import (
    LinearGaussianOp,
    compose_linear,
    conjugate_modes,
    embed,
    generalized_bbd,
)
from fermigauss.overlaps import (
    OverlapKernel,
    _pair_kernel,
    compose_bra_ket,
    generalized_overlap,
    overlap,
    state_overlap,
)
from fermigauss.quadratic import (
    QuadraticGenerator,
    TransferMatrix,
    bbd_antinormal,
    bbd_normal,
    cp_apply_transfer,
    random_generator,
    transfer_of,
)

from conftest import all_configs, pair_kernel, random_linear_op, worked_example_m
from test_factor_chain import fails_on_every_route

PROPERTY = settings(derandomize=True, deadline=None)

generators = st.builds(random_generator, st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
                       st.floats(0.1, 3.0))


def rel_close(a, b, tol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) <= tol * max(1.0, float(np.max(np.abs(b))))


class TestCounts:
    def test_factorizations_take_no_logm(self, count_calls):
        calls = count_calls("mat_log")
        rng = np.random.default_rng(41)
        t = transfer_of(random_generator(6, rng, 0.6))
        bbd_normal(t)
        bbd_antinormal(t)
        generalized_bbd(random_linear_op(rng, 6))
        OverlapKernel([bbd_normal(t)])
        assert calls == []

    @pytest.mark.parametrize("factorize", [
        lambda rng: bbd_normal(transfer_of(random_generator(5, rng, 0.6))),
        lambda rng: generalized_bbd(random_linear_op(rng, 5)),
    ])
    def test_y_on_first_access(self, count_calls, factorize):
        calls = count_calls("mat_log")
        fac = factorize(np.random.default_rng(42))
        assert len(calls) == 0
        y = fac.y
        assert len(calls) == 1
        assert fac.y is y
        assert len(calls) == 1
        assert rel_close(scipy.linalg.expm(y), fac.exp_y, 1e-10)

    def test_pair_kernel_expm_count(self, count_calls):
        # 2 for the transfer at s = 1, 2 for the one step of the 12-step grid
        calls = count_calls("mat_exp")
        kern = pair_kernel(random_generator(16, 1, 0.6).m,
                           random_generator(16, 2, 0.6).m.conj().T)
        assert kern.sign_certain
        assert len(calls) == 4

    def test_engine_reuses_kernel_exponential(self, count_calls):
        m1 = random_generator(16, 1, 0.6).m
        m2 = random_generator(16, 2, 0.6).m
        calls = count_calls("mat_exp")
        pair_kernel(m1, m2.conj().T)
        n_kernel = len(calls)
        vac = (0,) * 16
        g1 = QuadraticGenerator(m1)
        engine = correlators._Engine(_pair_kernel(g1, QuadraticGenerator(m2)), transfer_of(g1).t,
                                     vac, vac)
        assert len(calls) == 2 * n_kernel
        assert np.array_equal(engine.t1, mat_exp(m1))

    @pytest.mark.parametrize("seed, scale, roots", [(22, 10.0, 1), (1, 0.6, 0)])
    def test_path_kernel_principal_root_only_as_fallback(self, count_calls, seed, scale, roots):
        # |det T22| = 2.7e13 for seed 22: no continuity path, one principal root
        m = random_generator(4, seed, scale).m
        big = abs(np.linalg.det(scipy.linalg.expm(m)[4:, 4:])) >= 1e13
        assert big == (roots == 1)
        calls = count_calls("sqrt_det_via_log")
        pair_kernel(m)
        assert len(calls) == roots


def exact_exponentials(calls, gens) -> int:
    """The ``mat_exp`` calls whose argument is an unscaled M of ``gens``."""
    return sum(any(np.array_equal(a, g.m) for g in gens) for (a,) in calls)


def adjoint_exponentials(calls, gens) -> int:
    """The ``mat_exp`` calls whose argument is c M^dag of ``gens`` for any
    scalar c != 0: no bra side is exponentiated as such."""
    found = 0
    for (a,) in calls:
        for g in gens:
            mdag = g.m.conj().T
            k = np.unravel_index(np.argmax(np.abs(mdag)), mdag.shape)
            c = a[k] / mdag[k] if a.shape == mdag.shape else 0.0
            if c != 0.0 and rel_close(a, c * mdag, 1e-12):
                found += 1
    return found


class TestGeneratorExponentials:
    """exp(M) is computed once per generator object and serves it on
    either side of an overlap; no exp(M^dag) is taken."""

    def test_each_side_exponentiated_once(self, count_calls):
        gens = [random_generator(6, seed, 0.6) for seed in range(4)]
        # no M of these is itself a multiple of some M^dag
        assert not adjoint_exponentials([(g.m,) for g in gens], gens)
        bra, ket = FockConfig.from_string("110100"), FockConfig.from_string("011010")
        calls = count_calls("mat_exp")
        for g1, g2 in permutations(gens, 2):
            assert state_overlap(g1, g2, bra, ket).method == "pfaffian"
            n_point(CorrelatorContext(g1, g2, bra, ket), (ModeOp(1, True), ModeOp(4, False)))
        assert exact_exponentials(calls, gens) == len(gens)
        assert adjoint_exponentials(calls, gens) == 0
        calls.clear()
        state_overlap(gens[0], gens[1], ket, bra)
        assert exact_exponentials(calls, gens) == 0

    def test_read_only_and_not_copied(self):
        m = random_generator(3, 5, 0.6).m.copy()
        g = QuadraticGenerator(m)
        assert np.shares_memory(g.m, m) and m.flags.writeable
        t = transfer_of(g)
        assert transfer_of(g) is t
        state_overlap(g, g, FockConfig.from_string("110"), FockConfig.from_string("011"))
        # exp(M) lives only in the cached transfer; the rest are path steps
        assert set(vars(g)) == {"m", "_transfer", "_steps"}
        for a in (g.m, t.t):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0

    def test_cached_call_equals_fresh_call(self):
        ms = [random_generator(5, seed, 2.0).m for seed in (10, 11)]
        bra, ket = FockConfig.from_string("10110"), FockConfig.from_string("00011")
        ops = (ModeOp(1, True), ModeOp(4, False))

        def outputs(g1, g2):
            res = state_overlap(g1, g2, bra, ket)
            return (res.value, res.method, res.sign_certain, overlap(g1, bra, ket).value,
                    n_point(CorrelatorContext(g1, g2, bra, ket), ops),
                    compose_bra_ket(g2, g1).t, transfer_of(g1).t)

        g1, g2 = (QuadraticGenerator(m) for m in ms)
        outputs(g1, g2)
        cached = outputs(g1, g2)
        fresh = outputs(*(QuadraticGenerator(m) for m in ms))
        assert cached[:5] == fresh[:5]
        for a, b in zip(cached[5:], fresh[5:]):
            assert np.array_equal(a, b)


class TestEmbeddedExponentials:
    """An operator with linear parts builds its ancilla generator once, so
    exp(M') is computed once per operator object, on either side."""

    def test_each_side_exponentiated_once(self, count_calls):
        rng = np.random.default_rng(17)
        ops = [random_linear_op(rng, 3) for _ in range(4)]
        bra, ket = FockConfig.from_string("110"), FockConfig.from_string("011")
        calls = count_calls("mat_exp")
        for op1, op2 in permutations(ops, 2):
            assert generalized_overlap(op1, op2, bra, ket).method == "pfaffian"
            generalized_expectation(CorrelatorContext(op1, op2, bra, ket), (ModeOp(2, True),))
        gens = [embed(op) for op in ops]
        assert exact_exponentials(calls, gens) == len(ops)
        assert adjoint_exponentials(calls, gens) == 0
        calls.clear()
        generalized_overlap(ops[0], ops[1], ket, bra)
        for op in ops:
            generalized_bbd(op)
        assert exact_exponentials(calls, gens) == 0

    def test_embedding_cached_and_data_read_only(self):
        rng = np.random.default_rng(18)
        m = random_generator(3, rng, 0.6).m.copy()
        u, v = (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2))
        op = LinearGaussianOp(m, u, v)
        assert embed(op) is embed(op)
        for a, given_array in ((op.m, m), (op.u, u), (op.v, v)):
            assert np.shares_memory(a, given_array) and given_array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_contexts_share_the_embedding(self, count_calls):
        rng = np.random.default_rng(19)
        op1, op2 = random_linear_op(rng, 3), random_linear_op(rng, 3)
        calls = count_calls("mat_exp")
        for bra, ket in (("100", "011"), ("010", "110")):
            ctx = CorrelatorContext(op1, op2, FockConfig.from_string(bra),
                                    FockConfig.from_string(ket))
            generalized_expectation(ctx, (ModeOp(1, True), ModeOp(3, False)))
        # exp(M1') for the ket side and exp(M2') for the bra side
        assert exact_exponentials(calls, [embed(op1), embed(op2)]) == 2

    def test_epsilon_route_keeps_only_the_own_embedding(self, oracle):
        orc = oracle(3)
        op = LinearGaussianOp(worked_example_m(np.pi / 2), None, None)
        zero = LinearGaussianOp.zero(3)
        f = orc.gaussian(op)
        bra, ket = FockConfig.from_string("110"), FockConfig.from_string("011")
        res = generalized_overlap(op, zero, bra, ket, method="epsilon")
        assert res.method == "epsilon-regularized"
        assert abs(res.value - orc.element(f, bra, ket)) < 1e-8
        # the generator of M that checked it holds nothing computed
        assert set(vars(op)) == {"m", "u", "v", "generator", "_embedded"}
        assert set(vars(op.generator)) == {"m"}
        fresh = embed(LinearGaussianOp(op.m, op.u, op.v))
        assert np.array_equal(embed(op).m, fresh.m)

    def test_cached_call_equals_fresh_call(self):
        rng = np.random.default_rng(20)
        data = [random_linear_op(rng, 4, 0.8) for _ in range(2)]
        configs = all_configs(4)
        bra, ket = configs[5], configs[6]

        def outputs(op1, op2):
            res = generalized_overlap(op1, op2, bra, ket)
            fac = generalized_bbd(op1)
            ctx = CorrelatorContext(op1, op2, bra, ket)
            return (res.value, res.method, res.sign_certain, fac.prefactor,
                    generalized_expectation(ctx, (ModeOp(2, True),)),
                    fac.x, fac.z, fac.q, fac.p, compose_linear(op1, op2).transfer.t,
                    conjugate_modes(op2).tp)

        op1, op2 = (LinearGaussianOp(d.m, d.u, d.v) for d in data)
        outputs(op1, op2)
        cached = outputs(op1, op2)
        fresh = outputs(*(LinearGaussianOp(d.m, d.u, d.v) for d in data))
        assert cached[:5] == fresh[:5]
        for a, b in zip(cached[5:], fresh[5:]):
            assert np.array_equal(a, b)


def factor_arrays(fac) -> list:
    """The arrays of a factorization, ``y`` included (after it is computed)."""
    names = ("q", "x", "exp_y", "z", "p", "y")
    return [getattr(fac, name) for name in names if getattr(fac, name, None) is not None]


FACTORIZATIONS = {
    "bbd_normal": (lambda rng: transfer_of(random_generator(5, rng, 0.8)), bbd_normal),
    "generalized_bbd": (lambda rng: random_linear_op(rng, 5, 0.8), generalized_bbd),
}


class TestFactorData:
    """``bbd_normal`` and ``generalized_bbd`` factorize once per transfer object."""

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_same_object_on_every_call(self, name):
        make, factorize = FACTORIZATIONS[name]
        src = make(np.random.default_rng(71))
        assert factorize(src) is factorize(src)

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_repeated_call_computes_nothing(self, count_calls, monkeypatch, name):
        make, factorize = FACTORIZATIONS[name]
        src = make(np.random.default_rng(72))
        rconds, roots = count_calls("rcond_estimate"), count_calls("sqrt_det_via_log")
        factorize(src)
        assert (len(rconds), len(roots)) == (1, 1)
        rconds.clear()
        roots.clear()
        factorize(src)
        # a success is not judged again, whatever the threshold is now
        monkeypatch.setattr(quadratic, "RCOND_TOL", 1e-3)
        factorize(src)
        assert rconds == [] and roots == []

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_cached_equals_fresh(self, name):
        make, factorize = FACTORIZATIONS[name]
        src = make(np.random.default_rng(73))
        factorize(src)
        cached = factorize(src)
        if isinstance(src, TransferMatrix):
            fresh = factorize(TransferMatrix(src.t.copy()))
        else:
            fresh = factorize(LinearGaussianOp(src.m.copy(), src.u.copy(), src.v.copy()))
        assert fresh is not cached
        assert (cached.prefactor, cached.sign_certain, cached.rcond) == \
            (fresh.prefactor, fresh.sign_certain, fresh.rcond)
        for a, b in zip(factor_arrays(cached), factor_arrays(fresh), strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_arrays_read_only_views(self, name):
        make, factorize = FACTORIZATIONS[name]
        fac = factorize(make(np.random.default_rng(74)))
        assert fac.y is not None
        arrays = factor_arrays(fac)
        assert len(arrays) == (6 if name == "generalized_bbd" else 4)
        for a in arrays:
            # a view of the computed array, not a copy of it
            assert a.base is not None and np.shares_memory(a, a.base)
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_transfer_is_a_read_only_view(self):
        t = scipy.linalg.expm(random_generator(3, 75, 0.6).m)
        tm = TransferMatrix(t)
        assert np.shares_memory(tm.t, t) and t.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tm.t[0, 0] = 1.0

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_rejection_is_judged_once(self, monkeypatch, count_calls, name):
        make, factorize = FACTORIZATIONS[name]
        src = make(np.random.default_rng(76))
        t = src if name == "bbd_normal" else transfer_of(embed(src))
        key = "_normal" if name == "bbd_normal" else "_generalized"
        with monkeypatch.context() as mp:
            mp.setattr(quadratic, "RCOND_TOL", 2.0)
            with pytest.raises(SingularBlockError) as rejected:
                factorize(src)
        assert isinstance(vars(t)[key], SingularBlockError)
        # the refusal stands once the threshold would admit the block: it is
        # raised again, and nothing is factorized
        rconds = count_calls("rcond_estimate")
        with pytest.raises(SingularBlockError) as again:
            factorize(src)
        assert rconds == []
        assert (str(again.value), again.value.rcond) == (str(rejected.value), rejected.value.rcond)
        # a fresh object with the same block is judged afresh, at today's threshold
        if isinstance(src, TransferMatrix):
            fac = factorize(TransferMatrix(src.t.copy()))
        else:
            fac = factorize(LinearGaussianOp(src.m.copy(), src.u.copy(), src.v.copy()))
        assert rejected.value.rcond == fac.rcond

    @pytest.mark.parametrize("name", FACTORIZATIONS)
    def test_singular_block_raises_every_time(self, count_calls, name):
        # a pi/2 pair rotation on sites 1, 2 of L = 3: T22 is singular
        g = QuadraticGenerator(worked_example_m(np.pi / 2))
        src = transfer_of(g) if name == "bbd_normal" else LinearGaussianOp.quadratic(g)
        t = src if name == "bbd_normal" else transfer_of(embed(src))
        factorize = FACTORIZATIONS[name][1]
        rconds = count_calls("rcond_estimate")
        errors = []
        for _ in range(2):
            with pytest.raises(SingularBlockError) as exc:
                factorize(src)
            assert exc.value.__context__ is None and exc.value.__cause__ is None
            errors.append((str(exc.value), exc.value.rcond))
        assert errors[0] == errors[1]
        assert len(rconds) == 1   # the block is judged once
        kept = vars(t)["_normal" if name == "bbd_normal" else "_generalized"]
        assert isinstance(kept, SingularBlockError) and kept.__traceback__ is None


class TestCachingRule:
    """Every build that can be refused is judged once: the success or the
    detached refusal is kept, and a failing call leaves no reference cycle."""

    @pytest.mark.parametrize("L, seed, scale, message", [
        (2, 2, 200, "J-orthogonality check overflows"),
        (4, 1, 1000, "matrix exponential overflows"),
    ])
    def test_refused_transfer_is_judged_once(self, count_calls, L, seed, scale, message):
        g = random_generator(L, seed, scale)
        exponentials = count_calls("mat_exp")
        errors = []
        for _ in range(2):
            with pytest.raises(LinalgError, match=message) as exc:
                transfer_of(g)
            assert exc.value.__context__ is None
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]
        assert len(exponentials) == 1
        assert isinstance(vars(g)["_transfer"], LinalgError)

    @pytest.mark.parametrize("kind", ["bbd_normal", "generalized_bbd", "transfer_of"])
    def test_refusals_leave_no_cycles(self, kind):
        # with the cyclic collector off, reference counting alone frees
        # every object that kept a refusal
        gc.disable()
        try:
            if kind == "transfer_of":
                owner = random_generator(2, 2, 200)
                call = functools.partial(transfer_of, owner)
            elif kind == "bbd_normal":
                owner = transfer_of(QuadraticGenerator(worked_example_m(np.pi / 2)))
                call = functools.partial(bbd_normal, owner)
            else:
                owner = LinearGaussianOp(worked_example_m(np.pi / 2), None, None)
                call = functools.partial(generalized_bbd, owner)
            for _ in range(2):
                fails_on_every_route(call)
            alive = weakref.ref(owner)
            del owner, call
            assert alive() is None
        finally:
            gc.enable()


#: the step lengths of the continuity grids of 12, 24, ..., 192 steps
STEPS = [np.linspace(0.0, 1.0, n + 1)[1] for n in (12, 24, 48, 96, 192)]


def step_exponentials(calls, gens) -> dict:
    """Per generator index: the ``mat_exp`` calls whose argument is h M of
    ``gens`` for a continuity step length h."""
    found: dict = {}
    for (a,) in calls:
        for i, g in enumerate(gens):
            if any(np.array_equal(a, h * g.m) for h in STEPS):
                found[i] = found.get(i, 0) + 1
    return found


def t22_det(g1, g2) -> float:
    t = scipy.linalg.expm(g2.m.conj().T) @ scipy.linalg.expm(g1.m)
    return abs(np.linalg.det(t[g1.L:, g1.L:]))


class TestStepExponentials:
    """The continuity path's step exponentials exp(hM) are computed once
    per generator object and step length, and serve either side; no
    exp(hM^dag) is taken."""

    once = {i: 1 for i in range(4)}

    def test_each_step_exponentiated_once(self, count_calls):
        gens = [random_generator(6, seed, 0.6) for seed in range(4)]
        bra, ket = FockConfig.from_string("110100"), FockConfig.from_string("011010")
        calls = count_calls("mat_exp")
        for g1, g2 in permutations(gens, 2):
            assert t22_det(g1, g2) < 1e13  # the path runs
            assert state_overlap(g1, g2, bra, ket).method == "pfaffian"
        assert step_exponentials(calls, gens) == self.once
        assert adjoint_exponentials(calls, gens) == 0
        calls.clear()
        state_overlap(gens[0], gens[1], ket, bra)
        assert calls == []

    def test_embedded_step_exponentiated_once(self, count_calls):
        rng = np.random.default_rng(17)
        ops = [random_linear_op(rng, 3) for _ in range(4)]
        bra, ket = FockConfig.from_string("110"), FockConfig.from_string("011")
        calls = count_calls("mat_exp")
        for op1, op2 in permutations(ops, 2):
            assert t22_det(embed(op1), embed(op2)) < 1e13
            assert generalized_overlap(op1, op2, bra, ket).method == "pfaffian"
        gens = [embed(op) for op in ops]
        assert step_exponentials(calls, gens) == self.once
        assert adjoint_exponentials(calls, gens) == 0
        calls.clear()
        generalized_overlap(ops[0], ops[1], ket, bra)
        assert calls == []

    def test_cached_steps_read_only(self):
        g1, g2 = random_generator(4, 1, 0.6), random_generator(4, 2, 0.6)
        state_overlap(g1, g2, FockConfig.from_string("1100"), FockConfig.from_string("0110"))
        for g in (g1, g2):
            step = g._step_exp(STEPS[0])
            assert g._step_exp(STEPS[0]) is step
            assert set(vars(g)["_steps"]) == {STEPS[0]}
            with pytest.raises(ValueError, match="read-only"):
                step[0, 0] = 1.0

    def test_cached_call_equals_fresh_call(self):
        ms = [random_generator(6, seed, 0.6).m for seed in (3, 4)]
        bra, ket = FockConfig.from_string("101100"), FockConfig.from_string("000110")
        ops = (ModeOp(2, True), ModeOp(5, False))

        def outputs(g1, g2):
            res = state_overlap(g1, g2, bra, ket)
            kern = _pair_kernel(g1, g2)
            return (res.value, res.method, res.sign_certain, res.route,
                    overlap(g1, bra, ket).value, overlap(g2, ket, bra).value,
                    n_point(CorrelatorContext(g1, g2, bra, ket), ops),
                    kern.prefactor, kern.sign_certain, kern.pairing)

        g1, g2 = (QuadraticGenerator(m) for m in ms)
        outputs(g1, g2)
        assert vars(g1)["_steps"] and vars(g2)["_steps"]
        cached = outputs(g1, g2)
        fresh = outputs(*(QuadraticGenerator(m) for m in ms))
        assert cached[:-1] == fresh[:-1]
        assert np.array_equal(cached[-1], fresh[-1])

    def test_epsilon_route_matches_oracle(self, oracle):
        orc = oracle(3)
        g, zero = QuadraticGenerator(worked_example_m(np.pi / 2)), QuadraticGenerator.zero(3)
        bra, ket = FockConfig.from_string("110"), FockConfig.from_string("011")
        ref = orc.element(orc.gaussian(g), bra, ket)
        first = state_overlap(g, zero, bra, ket, method="epsilon")
        assert first.method == "epsilon-regularized"
        assert abs(first.value - ref) < 1e-8
        # the fixed bra side serves the perturbed kets from its own cache;
        # the unperturbed ket takes no path
        assert vars(zero)["_steps"] and "_steps" not in vars(g)
        again = state_overlap(g, zero, bra, ket, method="epsilon")
        assert (again.value, again.route) == (first.value, first.route)


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


    def test_y_absent_when_the_log_is_refused(self, monkeypatch):
        # a certain sign whose e^Y has no usable principal log (logm's
        # inaccuracy warning, raised as MatrixLogError) leaves y None
        def refuse(a):
            raise MatrixLogError("logm result may be inaccurate")

        monkeypatch.setattr(quadratic, "mat_log", refuse)
        fac = bbd_normal(transfer_of(random_generator(3, 5, 0.6)))
        assert fac.sign_certain and fac.y is None


class TestBareTransferKernel:
    """A kernel of a bare transfer reads the factor data ``bbd_normal`` keeps on it."""

    def test_overlaps_factorize_once(self, count_calls):
        t = transfer_of(random_generator(16, 78, 0.6))
        rng = np.random.default_rng(78)
        bits = rng.integers(0, 2, (5, 2, 16))
        bits[:, 1, -1] ^= bits.sum(axis=(1, 2)) % 2   # even total: a nonzero element
        pairs = [(FockConfig(tuple(b)), FockConfig(tuple(k))) for b, k in bits]
        fresh = [OverlapKernel([bbd_normal(TransferMatrix(t.t.copy()))]).element(b, k)
                 for b, k in pairs]
        rconds = count_calls("rcond_estimate")
        cached = [OverlapKernel([bbd_normal(t)]).element(b, k) for b, k in pairs]
        assert len(rconds) == 1
        assert cached == fresh
        assert all(v != 0.0 for v in cached)

    def test_rejected_block_raises_every_time(self):
        t = transfer_of(QuadraticGenerator(worked_example_m(np.pi / 2)))
        errors = []
        for _ in range(3):
            with pytest.raises(SingularBlockError) as exc:
                OverlapKernel([bbd_normal(t)])
            errors.append((type(exc.value), str(exc.value), exc.value.rcond))
        assert len(set(errors)) == 1
