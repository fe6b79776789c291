import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermigauss.configs import FockConfig
from fermigauss.linalg import LinalgError, SingularBlockError, rcond_estimate, skew_defect
from fermigauss.linearpart import LinearGaussianOp, compose_linear, embed
from fermigauss.overlaps import compose_bra_ket, overlap_magnitude_cp, state_overlap
from fermigauss.quadratic import (
    RCOND_TOL,
    CPScanEntry,
    JOrthogonalityError,
    QuadraticGenerator,
    TransferMatrix,
    _cp_index,
    _t22_rcond_bound,
    admissibility_defect,
    bbd_antinormal,
    bbd_normal,
    compose_transfers,
    cp_apply_transfer,
    cp_scan,
    cp_suggestions,
    cp_transform,
    random_generator,
    transfer_of,
)

from conftest import dagger, identity_transfer, j_matrix, worked_example_m, worked_example_t

PROPERTY = settings(derandomize=True, deadline=None)
EPS = float(np.finfo(float).eps)


def factored_dense(fac, oracle_obj):
    """Dense product of the three factors (prefactor included via -tr(Y)/2)."""
    from fermigauss import fock
    L = fac.x.shape[0]
    zero = np.zeros((L, L))
    if fac.ordering == "normal":
        left = np.block([[zero, fac.x], [zero, zero]])      # creation pairs
        right = np.block([[zero, zero], [fac.z, zero]])     # annihilation pairs
    else:
        left = np.block([[zero, zero], [fac.x, zero]])
        right = np.block([[zero, fac.z], [zero, zero]])
    middle = np.block([[fac.y, zero], [zero, -fac.y.T]])
    out = fock.dense_gaussian(left)
    out = out @ fock.dense_gaussian(middle)
    return out @ fock.dense_gaussian(right)


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticGenerator(np.eye(4))  # J.M symmetric, not antisymmetric
        g = random_generator(3, 0)
        assert g.L == 3

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,), (2, 2, 2)])
    def test_shape_is_checked(self, shape):
        with pytest.raises(ValueError, match=r"M must be square of even dimension, got shape"):
            QuadraticGenerator(np.zeros(shape))
        with pytest.raises(ValueError, match=r"T must be square of even dimension, got shape"):
            TransferMatrix(np.zeros(shape))

    def test_dagger_matches_dense_adjoint(self, oracle):
        orc = oracle(2)
        g = random_generator(2, 1, 0.6)
        f = orc.gaussian(g)
        fd = orc.gaussian(dagger(g))
        assert np.max(np.abs(fd - f.conj().T)) < 1e-12


class TestTransfer:
    def test_zero_generator(self):
        t = transfer_of(QuadraticGenerator.zero(3))
        assert np.array_equal(t.t, np.eye(6))

    @pytest.mark.parametrize("a", [0.3, 0.7, 1.2])
    def test_worked_example(self, a):
        t = transfer_of(QuadraticGenerator(worked_example_m(a)))
        assert np.max(np.abs(t.t - worked_example_t(a))) < 1e-12

    def test_j_orthogonality_random(self):
        rng = np.random.default_rng(21)
        # quantified invariant: 100+ seeds across L = 1..6
        count = 0
        for L in range(1, 7):
            for _ in range(18):
                t = transfer_of(random_generator(L, rng, 0.9))
                assert t.j_defect() < 1e-10
                count += 1
        assert count >= 100

    def test_det_unimodular(self):
        rng = np.random.default_rng(22)
        for L in (1, 2, 4):
            for _ in range(10):
                t = transfer_of(random_generator(L, rng, 0.8))
                assert abs(abs(np.linalg.det(t.t)) - 1.0) < 1e-8

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            TransferMatrix(np.diag([2.0, 3.0]))

    def test_j_check_failure_is_a_numerical_error(self):
        # a route that builds a transfer failing the check is rejected like
        # any other numerical failure, and malformed input stays a ValueError
        with pytest.raises(JOrthogonalityError) as err:
            TransferMatrix(np.diag([2.0, 3.0]))
        assert isinstance(err.value, LinalgError) and isinstance(err.value, ValueError)

    @pytest.mark.parametrize("L", [1, 4, 16])
    def test_j_checks_equal_the_matmul_form(self, L):
        # J is applied by indexing, which is exact: both defects equal the
        # products with the permutation matrix, and a nan stays a nan
        j = j_matrix(L)
        g = random_generator(L, 24 + L, 3.0)
        t = transfer_of(g).t.copy()
        m = g.m.copy()
        bad_t, bad_m = t.copy(), m.copy()
        bad_t[-1, 0] = bad_m[-1, 0] = np.nan
        for a in (t, bad_t):
            scale = max(1.0, float(np.max(np.abs(a))) ** 2)
            ref = float(np.max(np.abs(a @ j @ a.T - j))) / scale
            assert np.array_equal(TransferMatrix._defect(a), ref, equal_nan=True)
        for a in (m, bad_m):
            assert np.array_equal(admissibility_defect(a), skew_defect(j @ a), equal_nan=True)
        assert np.isnan(TransferMatrix._defect(bad_t))
        with pytest.raises(ValueError, match="nan"):
            TransferMatrix(bad_t)


class TestCompose:
    def test_site_counts_must_agree(self):
        t2, t3 = (transfer_of(QuadraticGenerator.zero(L)) for L in (2, 3))
        with pytest.raises(ValueError, match="site counts differ: 2 vs 3"):
            compose_transfers(t2, t3)

    def test_identity_neutral(self):
        g = random_generator(2, 31, 0.5)
        t = transfer_of(g)
        tid = transfer_of(QuadraticGenerator.zero(2))
        assert np.array_equal(compose_transfers(t, tid).t, t.t @ np.eye(4))

    def test_commuting_generators_add(self):
        g = random_generator(3, 32, 0.4)
        g1 = QuadraticGenerator(0.7 * g.m)
        g2 = QuadraticGenerator(0.3 * g.m)
        res = compose_linear(LinearGaussianOp.quadratic(g1), LinearGaussianOp.quadratic(g2))
        assert res.op is not None
        assert np.max(np.abs(res.op.m - g.m)) < 1e-10
        assert np.max(np.abs(res.op.u)) < 1e-10 and np.max(np.abs(res.op.v)) < 1e-10

    def test_product_matches_dense(self, oracle):
        orc = oracle(3)
        rng = np.random.default_rng(33)
        g1 = random_generator(3, rng, 0.5)
        g2 = random_generator(3, rng, 0.5)
        res = compose_linear(LinearGaussianOp.quadratic(g1), LinearGaussianOp.quadratic(g2))
        f12 = orc.gaussian(g1) @ orc.gaussian(g2)
        assert res.op is not None
        fc = orc.gaussian(res.op)
        assert np.max(np.abs(f12 - fc)) < 1e-9

    def test_associativity_transfer_level(self):
        rng = np.random.default_rng(34)
        t1, t2, t3 = (transfer_of(random_generator(3, rng, 0.6)) for _ in range(3))
        lhs = compose_transfers(compose_transfers(t1, t2), t3).t
        rhs = compose_transfers(t1, compose_transfers(t2, t3)).t
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_branch_failure_flagged(self):
        # transfer eigenvalue lands on the negative real axis at a = pi/2
        # and the exact transfer product is still returned
        op = LinearGaussianOp.quadratic(QuadraticGenerator(worked_example_m(np.pi / 2)))
        res = compose_linear(op, op)
        assert res.op is None
        t = transfer_of(embed(op)).t
        assert np.array_equal(res.transfer.t, t @ t)

    @pytest.mark.parametrize("L", [3, 4])
    def test_large_scale_grid_returns_or_flags(self, L):
        # 200 pairs at scale 3, where the principal log of the product is
        # often admissible only to 1e-10..1e-6 or flagged inaccurate by
        # logm: compose reports "no generator" instead of letting a
        # ValueError or a RuntimeWarning escape
        def draw(rng):
            s = 3.0 / np.sqrt(L)
            a, b, c = (s * (rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))
                       for _ in range(3))
            return QuadraticGenerator(np.block([[a, 0.5 * (b - b.T)], [0.5 * (c - c.T), -a.T]]))

        available = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in range(200):
                rng = np.random.default_rng(1000 * L + s)
                g1, g2 = draw(rng), draw(rng)
                res = compose_linear(LinearGaussianOp.quadratic(g1),
                                     LinearGaussianOp.quadratic(g2))
                available += res.op is not None
        assert 0 < available < 200

    def test_j_check_overflow_raises_linalg_error(self):
        # finite factors (max entries 5e120 and 2.4e84) whose product's
        # J-check leaves the float range
        g1, g2 = random_generator(2, 2, 150), random_generator(2, 102, 150)
        t1, t2 = transfer_of(g1), transfer_of(g2)
        vac = FockConfig.vacuum(2)
        calls = (lambda: compose_transfers(t1, t2),
                 lambda: compose_linear(LinearGaussianOp.quadratic(g1),
                                        LinearGaussianOp.quadratic(g2)),
                 lambda: state_overlap(g1, g2, vac, vac))
        for call in calls:
            with pytest.raises(LinalgError, match="J-orthogonality check overflows"):
                call()


class TestFactorizations:
    def test_identity_trivial(self):
        t = identity_transfer(3)
        for fac in (bbd_normal(t), bbd_antinormal(t)):
            assert np.max(np.abs(fac.x)) == 0.0
            assert np.max(np.abs(fac.z)) == 0.0
            assert np.max(np.abs(fac.exp_y - np.eye(3))) == 0.0
            assert fac.prefactor == pytest.approx(1.0)

    def test_worked_example_closed_forms(self):
        a = 0.7
        t = transfer_of(QuadraticGenerator(worked_example_m(a)))
        sec, tan = 1 / np.cos(a), np.tan(a)
        fn = bbd_normal(t)
        assert fn.x[0, 1] == pytest.approx(1 - sec, abs=1e-12)
        assert fn.x[0, 2] == pytest.approx(tan, abs=1e-12)
        assert fn.z[1, 2] == pytest.approx(1 - sec, abs=1e-12)
        assert fn.prefactor == pytest.approx(np.cos(a), abs=1e-12)
        fa = bbd_antinormal(t)
        assert fa.x[1, 2] == pytest.approx(sec - 1, abs=1e-12)
        assert fa.z[0, 1] == pytest.approx(sec - 1, abs=1e-12)
        assert fa.prefactor == pytest.approx(1 / np.cos(a), abs=1e-12)

    @pytest.mark.parametrize("form", ["normal", "antinormal"])
    @pytest.mark.parametrize("L", [4, 5])
    def test_dense_reassembly(self, form, L, oracle):
        orc = oracle(L)
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_generator(L, rng, 0.5)
            t = transfer_of(g)
            fac = bbd_normal(t) if form == "normal" else bbd_antinormal(t)
            assert fac.y is not None
            dense = factored_dense(fac, orc)
            assert np.max(np.abs(dense - orc.gaussian(g))) < 1e-9

    def test_pairing_blocks_antisymmetric(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            t = transfer_of(random_generator(4, rng, 0.7))
            scale = max(1.0, float(np.max(np.abs(t.t))))
            for fac in (bbd_normal(t), bbd_antinormal(t)):
                assert np.max(np.abs(fac.x + fac.x.T)) < 1e-9 * scale
                assert np.max(np.abs(fac.z + fac.z.T)) < 1e-9 * scale

    def test_prefactor_squares_to_block_determinant(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            t = transfer_of(random_generator(3, rng, 0.7))
            fac = bbd_normal(t)
            det = np.linalg.det(t.t22)
            assert abs(fac.prefactor ** 2 - det) < 1e-9 * max(1.0, abs(det))

    def test_singular_block_raises(self):
        t = transfer_of(QuadraticGenerator(worked_example_m(np.pi / 2)))
        with pytest.raises(SingularBlockError):
            bbd_normal(t)
        with pytest.raises(SingularBlockError):
            bbd_antinormal(t)


def pair_rotation_generator(L: int, a: float, sites=(1, 2)) -> QuadraticGenerator:
    """Generator whose transfer has cos(a) on the diagonal blocks of the
    chosen two-site sector; at a = pi/2 both blocks turn singular."""
    m = np.zeros((2 * L, 2 * L), dtype=complex)
    i, j = sites[0] - 1, sites[1] - 1
    b = np.zeros((L, L))
    b[i, j], b[j, i] = a, -a
    m[:L, L:] = b
    m[L:, :L] = b
    return QuadraticGenerator(m)


def rotation_plus_sector(L: int, rng) -> QuadraticGenerator:
    """Direct sum of a singular two-site rotation and a generic sector."""
    g_good = random_generator(L, rng, 0.3)
    mask = np.zeros((2 * L, 2 * L))
    for blk_r in (0, L):
        for blk_c in (0, L):
            mask[blk_r + 2: blk_r + L, blk_c + 2: blk_c + L] = 1.0
    return QuadraticGenerator(pair_rotation_generator(L, np.pi / 2).m + g_good.m * mask)


def reference_scan(t: TransferMatrix, rcond_tol: float, max_exhaustive: int) -> list:
    """The cp scan evaluated subset by subset: one ``_cp_index`` permutation
    and one scalar rcond estimate per block."""
    L = t.L

    def entry(sites):
        idx = _cp_index(L, sites)
        r22 = rcond_estimate(t.t[np.ix_(idx[L:], idx[L:])])
        r11 = rcond_estimate(t.t[np.ix_(idx[:L], idx[:L])])
        return CPScanEntry(sites, r22, r11, r22 >= rcond_tol, r11 >= rcond_tol)

    def score(e):
        return max(e.rcond_t22, e.rcond_t11)

    if L <= max_exhaustive:
        return [entry(s) for size in range(L + 1) for s in combinations(range(1, L + 1), size)]
    out = [entry(())]
    while not (out[-1].t22_invertible or out[-1].t11_invertible):
        current = out[-1].sites
        candidates = [entry(tuple(sorted(current + (s,))))
                      for s in range(1, L + 1) if s not in current]
        if not candidates or score(max(candidates, key=score)) <= score(out[-1]):
            break
        out.append(max(candidates, key=score))
    return out


SCAN_CASES = [(L, kind) for L in range(9) for kind in ("random", "singular", "large")
              if kind != "singular" or L >= 2]


def scan_generator(L: int, kind: str) -> QuadraticGenerator:
    """A scan input: a random generator at scale 1 or 20 (``large``), or a
    rotation plus sector (``singular``, L >= 2)."""
    rng = np.random.default_rng([L, 60])
    if kind == "singular":
        return rotation_plus_sector(L, rng)
    return random_generator(L, rng, 20.0 if kind == "large" else 1.0)


class TestBatchedScanMatchesReference:
    """The batched scan against the per-subset reference, bit for bit."""

    @staticmethod
    def transfer(L: int, kind: str) -> TransferMatrix:
        return transfer_of(scan_generator(L, kind))

    @pytest.mark.parametrize("max_exhaustive", [20, 0])
    @pytest.mark.parametrize("L, kind", SCAN_CASES)
    def test_entries(self, monkeypatch, L, kind, max_exhaustive):
        from fermigauss import quadratic
        t = self.transfer(L, kind)
        ref = reference_scan(t, 1e-12, max_exhaustive)
        monkeypatch.setattr(quadratic, "CP_EXHAUSTIVE_MAX", max_exhaustive)
        got = list(cp_scan(t))
        assert [e.sites for e in got] == [e.sites for e in ref]
        assert [(e.t22_invertible, e.t11_invertible) for e in got] == \
            [(e.t22_invertible, e.t11_invertible) for e in ref]
        for block in ("rcond_t22", "rcond_t11"):
            assert np.array_equal([getattr(e, block) for e in got],
                                  [getattr(e, block) for e in ref])

    @pytest.mark.parametrize("max_exhaustive", [20, 0])
    @pytest.mark.parametrize("L, kind", SCAN_CASES)
    def test_suggestions(self, monkeypatch, L, kind, max_exhaustive):
        from fermigauss import quadratic
        t = self.transfer(L, kind)
        restoring = [e.sites for e in reference_scan(t, 1e-12, max_exhaustive) if e.t22_invertible]
        monkeypatch.setattr(quadratic, "CP_EXHAUSTIVE_MAX", max_exhaustive)
        for limit in range(1, 7):
            assert cp_suggestions(t, limit=limit) == restoring[:limit]

    def test_chunked_size_classes(self, monkeypatch, count_calls):
        # a size class longer than CP_CHUNK is split in order, and a search
        # that stops early pays for the rest of its chunk only
        from fermigauss import quadratic
        t = self.transfer(6, "singular")
        calls = count_calls("rcond_estimate")
        monkeypatch.setattr(quadratic, "CP_CHUNK", 4)
        assert list(cp_scan(t)) == reference_scan(t, 1e-12, 20)
        classes = [math.comb(6, size) for size in range(7)]
        chunks = [n for c in classes for n in [4] * (c // 4) + [c % 4] * (c % 4 > 0)]
        assert [len(a) for (a,) in calls] == chunks
        calls.clear()
        assert cp_suggestions(t, limit=1) == [(1,)]
        assert [len(a) for (a,) in calls] == [1, 4]


def certificate_cases():
    """(L, seed, scale, kind): a transfer, or a bra-ket product of two."""
    return st.tuples(st.integers(2, 8), st.integers(0, 2 ** 16),
                     st.floats(0.5, 40.0), st.sampled_from(["transfer", "product"]))


def certificate_transfer(L: int, seed: int, scale: float, kind: str) -> TransferMatrix:
    rng = np.random.default_rng([L, seed, 61])
    g1 = random_generator(L, rng, scale)
    if kind == "transfer":
        return transfer_of(g1)
    return compose_bra_ket(random_generator(L, rng, scale), g1)


def certified_product() -> TransferMatrix:
    """An L = 10 product of two large-norm generators that the certificate rejects."""
    return compose_bra_ket(random_generator(10, 2, 25), random_generator(10, 1, 25))


class TestEmptySearchCertificate:
    """One SVD of T certifies that no particle-hole subset restores T22,
    and the suggestions equal those of the enumeration in every case."""

    @staticmethod
    def check_against_enumeration(t: TransferMatrix) -> bool:
        bound, certified = _t22_rcond_bound(t)
        if t.L <= 20:
            scan = cp_scan(t)
            rconds = dict(zip(scan.sites, scan.rcond_t22))
            restoring = [s for s, r in rconds.items() if r >= RCOND_TOL]
            # the bound holds for every block, up to the rounding of its SVD
            assert max(rconds.values()) <= bound + 2 * 8 * t.L * EPS
        else:
            restoring = [e.sites for e in cp_scan(t) if e.t22_invertible]
        if certified:
            assert restoring == []
        for limit in range(1, 7):
            assert cp_suggestions(t, limit=limit) == restoring[:limit]
        return certified

    @PROPERTY
    @given(certificate_cases())
    def test_sound_and_exact(self, case):
        self.check_against_enumeration(certificate_transfer(*case))

    def test_fires_on_large_norm_only(self):
        cases = [("transfer", 0.5), ("product", 0.5), ("product", 40.0)]
        fired = [self.check_against_enumeration(certificate_transfer(L, seed, scale, kind))
                 for L in (4, 6) for seed in range(3) for kind, scale in cases]
        assert fired == [False, False, True] * 6

    @pytest.mark.parametrize("L, kind", [(L, kind) for L, kind in SCAN_CASES
                                         if L == 1 or kind == "singular"])
    def test_small_floor_never_certifies(self, L, kind):
        # at L = 1 the ceiling is s_1, which no entry of T exceeds, and the
        # singular rotation puts a zero among the candidates of its entries
        # (at L = 2 the floor is exactly 0): the bound is 1, and nothing
        # divides by the floor (RuntimeWarnings are errors here)
        t = TestBatchedScanMatchesReference.transfer(L, kind)
        assert _t22_rcond_bound(t) == (1.0, False)
        self.check_against_enumeration(t)

    def test_exact_zero_floor(self):
        # the full particle-hole swap: every permuted T22 is exactly zero
        t = TransferMatrix(j_matrix(1).astype(complex))
        assert _t22_rcond_bound(t) == (1.0, False)
        assert cp_suggestions(t) == []
        with pytest.raises(SingularBlockError) as err:
            overlap_magnitude_cp(t, FockConfig.vacuum(1), FockConfig.vacuum(1))
        assert err.value.rcond == 1.0

    @pytest.mark.parametrize("scale", [1.0, 40.0])
    def test_greedy_mode(self, scale):
        # above the exhaustive cap the certificate runs before the greedy search
        if scale == 1.0:
            t = transfer_of(rotation_plus_sector(21, np.random.default_rng(57)))
        else:
            t = transfer_of(random_generator(21, np.random.default_rng(0), scale))
        assert self.check_against_enumeration(t) == (scale == 40.0)

    def test_no_rcond_estimate_when_certified(self, count_calls):
        t = certified_product()
        calls = count_calls("rcond_estimate")
        assert cp_suggestions(t) == []
        assert calls == []
        # the enumeration it replaces: one stacked estimate per subset-size
        # class over all 2^10 blocks, none of which restores T22
        rconds = cp_scan(t).rcond_t22
        assert [len(a) for (a,) in calls] == [math.comb(10, size) for size in range(11)]
        assert max(rconds) < RCOND_TOL

    def test_failing_cp_route_computes_the_bound_once(self, monkeypatch):
        # the certificate's SVD of T is kept on the transfer: the refusal
        # reports the bound that cp_suggestions computed, with no second SVD
        g1, g2 = random_generator(10, 1, 25), random_generator(10, 2, 25)
        vac = FockConfig.vacuum(10)
        svd, of_t = np.linalg.svd, []

        def counting(a, *args, **kwargs):
            if np.shape(a) == (20, 20):
                of_t.append(a)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        with pytest.raises(SingularBlockError) as err:
            state_overlap(g1, g2, vac, vac, method="cp-magnitude")
        monkeypatch.undo()
        assert len(of_t) == 1
        bound = _t22_rcond_bound(certified_product())[0]
        assert err.value.route == [{"route": "cp-magnitude", "accepted": False,
                                    "reason": "cp_sites", "cp_sites": None,
                                    "rcond_bound": bound}]
        assert err.value.rcond == bound

    def test_exhausted_chain_reports_the_bound(self, count_calls):
        # the same rejections as the full enumeration gives (the factor
        # chain refuses a factor whose |det T22| is beyond the continuity
        # path's reach); the cp route reports an upper bound on every
        # permuted T22's rcond
        g1, g2 = random_generator(10, 1, 25), random_generator(10, 2, 25)
        vac = FockConfig.vacuum(10)
        calls = count_calls("rcond_estimate")
        with pytest.raises(SingularBlockError) as err:
            state_overlap(g1, g2, vac, vac)
        route = err.value.route
        assert [(e["route"], e["accepted"], e["reason"]) for e in route] == [
            ("pfaffian", False, "rcond"), ("factor-chain", False, "branch"),
            ("epsilon", False, "rcond"), ("cp-magnitude", False, "cp_sites")]
        assert route[1]["abs_det"] >= 1e13
        assert route[-1]["cp_sites"] is None
        bound = route[-1]["rcond_bound"]
        assert bound == err.value.rcond == _t22_rcond_bound(certified_product())[0]
        assert 0.0 < bound < RCOND_TOL
        assert f"rcond={bound:.3e}" in str(err.value)
        assert route[0]["rcond"] <= bound
        assert all(np.ndim(a) == 2 for (a,) in calls)  # no stacked subset estimate


class TestCanonicalPermutations:
    def test_empty_subset_is_identity(self):
        g = random_generator(3, 51, 0.5)
        res = cp_transform(g, ())
        assert np.array_equal(res.m, g.m)

    def test_full_subset_is_j(self):
        g = random_generator(3, 50, 0.5)
        j = j_matrix(3)
        assert np.array_equal(cp_transform(g, (1, 2, 3)).m, j @ g.m @ j)

    def test_involution_exact(self):
        g = random_generator(4, 52, 0.6)
        once = cp_transform(g, (1, 3))
        twice = cp_transform(once, (1, 3))
        assert np.array_equal(twice.m, g.m)

    def test_scan_slices_like_a_list(self):
        scan = cp_scan(transfer_of(random_generator(3, 53, 0.6)))
        for k in (slice(0, 3), slice(2, 7), slice(5, None), slice(None), slice(None, None, -3)):
            assert scan[k] == list(scan)[k]

    def test_scan_identity(self):
        entries = cp_scan(identity_transfer(2))
        assert len(entries) == 4
        assert all(e.t22_invertible and e.t11_invertible for e in entries)
        assert [e.sites for e in entries] == [(), (1,), (2,), (1, 2)]

    def test_worked_example_singular_point(self):
        t = transfer_of(QuadraticGenerator(worked_example_m(np.pi / 2)))
        verdicts = {e.sites: (e.t22_invertible, e.t11_invertible) for e in cp_scan(t)}
        assert verdicts[(2,)] == (False, False)
        assert verdicts[(1, 3)] == (False, False)
        for sites in [(1,), (3,), (1, 2), (2, 3)]:
            assert verdicts[sites] == (True, True)

    def test_worked_example_factorization_after_swap(self):
        # at a = pi/2 the swap on site 1 restores the factorization; in the
        # swapped variables the creation-pair factor vanishes and the other
        # two factors take the closed forms of the analytic example
        a = np.pi / 2
        gen = QuadraticGenerator(worked_example_m(a))
        tt = transfer_of(cp_transform(gen, (1,)))
        fac = bbd_normal(tt)
        assert np.max(np.abs(fac.x)) < 1e-12
        y_ref = a * np.array([[0, 0, 1], [0, 0, -1], [-1, 0, 0]])
        z_ref = np.array([[0, -1, 1], [1, 0, 1], [-1, -1, 0]], dtype=complex)
        assert np.max(np.abs(fac.y - y_ref)) < 1e-10
        assert np.max(np.abs(fac.z - z_ref)) < 1e-10
        assert fac.prefactor == pytest.approx(1.0, abs=1e-12)

    def test_engineered_rank_deficiency_restored(self):
        t = transfer_of(rotation_plus_sector(4, np.random.default_rng(53)))
        from fermigauss.linalg import rcond_estimate
        assert rcond_estimate(t.t22) < 1e-12
        restoring = [e for e in cp_scan(t) if e.t22_invertible]
        assert restoring
        best = restoring[0]
        tt = cp_apply_transfer(t, best.sites)
        assert rcond_estimate(tt.t22) >= 1e-12

    def test_greedy_scan_restores_t22(self):
        # above the exhaustive cap the scan adds one site per step
        t = transfer_of(rotation_plus_sector(21, np.random.default_rng(57)))
        entries = cp_scan(t)
        assert entries[0].sites == () and not entries[0].t22_invertible
        assert entries[-1].t22_invertible and len(entries[-1].sites) == 1
        assert all(len(e.sites) == k for k, e in enumerate(entries))
        assert cp_suggestions(t) == [entries[-1].sites]

    @pytest.mark.parametrize("seed, limit, classes", [
        pytest.param(53, 1, 2, id="53-1"),
        pytest.param(53, 6, 3, id="53-6"),
        pytest.param(58, 6, 3, id="58-6"),
    ])
    def test_exhaustive_suggestions_read_t22_only(self, count_calls, seed, limit, classes):
        # one stacked T22 estimate per subset-size class, up to the class of
        # the limit-th restoring subset; no T11 block is read
        t = transfer_of(rotation_plus_sector(4, np.random.default_rng(seed)))
        entries = cp_scan(t)
        restoring = [k for k, e in enumerate(entries) if e.t22_invertible]
        assert len(entries[restoring[limit - 1]].sites) == classes - 1
        calls = count_calls("rcond_estimate")
        found = cp_suggestions(t, limit=limit)
        assert found == [entries[k].sites for k in restoring[:limit]]
        assert [len(a) for (a,) in calls] == [math.comb(4, size) for size in range(classes)]
        visited = [e.sites for e in entries if len(e.sites) < classes]
        t22 = [t.t[np.ix_(idx[4:], idx[4:])] for idx in (_cp_index(4, s) for s in visited)]
        assert np.array_equal(np.concatenate([a for (a,) in calls]), np.array(t22))

    def test_scan_one_stacked_estimate_per_class(self, count_calls):
        # T11 of a subset is read off the T22 estimate of its complement
        t = transfer_of(random_generator(10, 59, 0.8))
        calls = count_calls("rcond_estimate")
        entries = cp_scan(t)
        assert len(entries) == 2 ** 10
        assert len(calls) == 11
        assert [len(a) for (a,) in calls] == [math.comb(10, size) for size in range(11)]

    def test_transfer_rejects_nan(self):
        t = np.eye(4, dtype=complex)
        t[0, 0] = np.nan
        with pytest.raises(ValueError):
            TransferMatrix(t)

    def test_transform_consistent_with_transfer(self):
        g = random_generator(3, 54, 0.6)
        sites = (2, 3)
        direct = transfer_of(cp_transform(g, sites)).t
        via_t = cp_apply_transfer(transfer_of(g), sites).t
        assert np.max(np.abs(direct - via_t)) < 1e-12

    @PROPERTY
    @given(st.integers(1, 6).flatmap(lambda L: st.tuples(
        st.just(L), st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "singular"]),
        st.sets(st.integers(1, L)))))
    def test_transform_is_the_permutation_product(self, case):
        # the relabeling equals Pi_S M Pi_S entry for entry, with Pi_S the
        # identity with rows j and L+j exchanged for j in S; it is an
        # involution, and its exponential is the relabeled transfer
        L, seed, kind, sites = case
        rng = np.random.default_rng(seed)
        g = (rotation_plus_sector(L, rng) if kind == "singular" and L >= 2
             else random_generator(L, rng, 0.8))
        pi = np.eye(2 * L)
        for j in sites:
            pi[[j - 1, L + j - 1]] = pi[[L + j - 1, j - 1]]
        swapped = cp_transform(g, sites)
        assert np.array_equal(swapped.m, pi @ g.m @ pi)
        assert np.array_equal(cp_transform(swapped, sites).m, g.m)
        via_t = cp_apply_transfer(transfer_of(g), sites).t
        assert np.max(np.abs(transfer_of(swapped).t - via_t)) <= 1e-12

    def test_site_validation(self):
        g = random_generator(2, 55)
        with pytest.raises(ValueError):
            cp_transform(g, (0,))
        with pytest.raises(ValueError):
            cp_transform(g, (1, 1))
