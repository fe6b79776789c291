import math
from itertools import combinations

import numpy as np
import pytest

from fermigauss.linalg import MatrixLogBranchError, SingularBlockError, rcond_estimate
from fermigauss.quadratic import (
    CPScanEntry,
    QuadraticGenerator,
    TransferMatrix,
    _cp_entries,
    _cp_index,
    bbd_antinormal,
    bbd_normal,
    compose_generators,
    compose_transfers,
    cp_apply_transfer,
    cp_matrix,
    cp_scan,
    cp_suggestions,
    cp_transform,
    j_matrix,
    random_generator,
    transfer_of,
)

from conftest import all_configs, worked_example_m, worked_example_t


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
    out = fock.dense_gaussian(left, modes=oracle_obj.modes)
    out = out @ fock.dense_gaussian(middle, modes=oracle_obj.modes)
    return out @ fock.dense_gaussian(right, modes=oracle_obj.modes)


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticGenerator(np.eye(4))  # J.M symmetric, not antisymmetric
        g = random_generator(3, 0)
        assert g.L == 3

    def test_dagger_matches_dense_adjoint(self, oracle):
        orc = oracle(2)
        g = random_generator(2, 1, 0.6)
        f = orc.gaussian(g)
        fd = orc.gaussian(g.dagger())
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

    def test_inverse(self):
        t = transfer_of(random_generator(3, 23, 0.7))
        assert np.max(np.abs(t.inverse().t @ t.t - np.eye(6))) < 1e-12


class TestCompose:
    def test_identity_neutral(self):
        g = random_generator(2, 31, 0.5)
        t = transfer_of(g)
        tid = transfer_of(QuadraticGenerator.zero(2))
        assert np.array_equal(compose_transfers(t, tid).t, t.t @ np.eye(4))

    def test_commuting_generators_add(self):
        g = random_generator(3, 32, 0.4)
        g1 = QuadraticGenerator(0.7 * g.m)
        g2 = QuadraticGenerator(0.3 * g.m)
        res = compose_generators(g1, g2)
        assert res.generator_available
        assert np.max(np.abs(res.generator.m - g.m)) < 1e-10

    def test_product_matches_dense(self, oracle):
        orc = oracle(3)
        rng = np.random.default_rng(33)
        g1 = random_generator(3, rng, 0.5)
        g2 = random_generator(3, rng, 0.5)
        res = compose_generators(g1, g2)
        f12 = orc.gaussian(g1) @ orc.gaussian(g2)
        assert res.generator_available
        fc = orc.gaussian(res.generator)
        assert np.max(np.abs(f12 - fc)) < 1e-9

    def test_associativity_transfer_level(self):
        rng = np.random.default_rng(34)
        t1, t2, t3 = (transfer_of(random_generator(3, rng, 0.6)) for _ in range(3))
        lhs = compose_transfers(compose_transfers(t1, t2), t3).t
        rhs = compose_transfers(t1, compose_transfers(t2, t3)).t
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_branch_failure_flagged(self):
        # transfer eigenvalue lands on the negative real axis at a = pi/2
        g = QuadraticGenerator(worked_example_m(np.pi / 2))
        res = compose_generators(g, g)
        assert not res.generator_available and res.generator is None


class TestFactorizations:
    def test_identity_trivial(self):
        t = TransferMatrix.identity(3)
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


class TestBatchedScanMatchesReference:
    """The batched scan against the per-subset reference, bit for bit."""

    @staticmethod
    def transfer(L: int, kind: str) -> TransferMatrix:
        rng = np.random.default_rng([L, 60])
        if kind == "singular":
            return transfer_of(rotation_plus_sector(L, rng))
        return transfer_of(random_generator(L, rng, 20.0 if kind == "large" else 1.0))

    @pytest.mark.parametrize("max_exhaustive", [20, 0])
    @pytest.mark.parametrize("L, kind", SCAN_CASES)
    def test_entries(self, L, kind, max_exhaustive):
        t = self.transfer(L, kind)
        ref = reference_scan(t, 1e-12, max_exhaustive)
        got = list(_cp_entries(t, 1e-12, max_exhaustive))
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

    def test_chunked_size_classes(self, monkeypatch):
        # a size class longer than CP_CHUNK is split in order, and a search
        # that stops early pays for the rest of its chunk only
        from fermigauss import linalg, quadratic
        t = self.transfer(6, "singular")
        calls = []
        monkeypatch.setattr(quadratic, "CP_CHUNK", 4)
        monkeypatch.setattr(quadratic, "rcond_estimate",
                            lambda a: calls.append(len(a)) or linalg.rcond_estimate(a))
        assert list(_cp_entries(t, 1e-12, 20)) == reference_scan(t, 1e-12, 20)
        classes = [math.comb(6, size) for size in range(7)]
        chunks = [n for c in classes for n in [4] * (c // 4) + [c % 4] * (c % 4 > 0)]
        assert calls[::2] == calls[1::2] == chunks
        calls.clear()
        assert cp_suggestions(t, limit=1) == [(1,)]
        assert calls == [1, 4]


class TestCanonicalPermutations:
    def test_empty_subset_is_identity(self):
        g = random_generator(3, 51, 0.5)
        res = cp_transform(g, ())
        assert np.array_equal(res.generator.m, g.m)

    def test_full_subset_is_j(self):
        assert np.array_equal(cp_matrix(3, (1, 2, 3)), j_matrix(3))

    def test_involution_exact(self):
        g = random_generator(4, 52, 0.6)
        once = cp_transform(g, (1, 3))
        twice = cp_transform(once.generator, (1, 3))
        assert np.array_equal(twice.generator.m, g.m)

    def test_scan_identity(self):
        entries = cp_scan(TransferMatrix.identity(2))
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
        tt = transfer_of(cp_transform(gen, (1,)).generator)
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
    def test_exhaustive_suggestions_read_t22_only(self, monkeypatch, seed, limit, classes):
        # one stacked T22 estimate per subset-size class, up to the class of
        # the limit-th restoring subset; no T11 block is read
        from fermigauss import linalg, quadratic
        t = transfer_of(rotation_plus_sector(4, np.random.default_rng(seed)))
        entries = cp_scan(t)
        restoring = [k for k, e in enumerate(entries) if e.t22_invertible]
        assert len(entries[restoring[limit - 1]].sites) == classes - 1
        calls = []
        monkeypatch.setattr(quadratic, "rcond_estimate",
                            lambda a: calls.append(a) or linalg.rcond_estimate(a))
        found = cp_suggestions(t, limit=limit)
        assert found == [entries[k].sites for k in restoring[:limit]]
        assert [len(a) for a in calls] == [math.comb(4, size) for size in range(classes)]
        visited = [e.sites for e in entries if len(e.sites) < classes]
        t22 = [t.t[np.ix_(idx[4:], idx[4:])] for idx in (_cp_index(4, s) for s in visited)]
        assert np.array_equal(np.concatenate(calls), np.array(t22))

    def test_scan_one_stacked_estimate_per_class(self, monkeypatch):
        from fermigauss import linalg, quadratic
        t = transfer_of(random_generator(10, 59, 0.8))
        calls = []
        monkeypatch.setattr(quadratic, "rcond_estimate",
                            lambda a: calls.append(a) or linalg.rcond_estimate(a))
        entries = cp_scan(t)
        assert len(entries) == 2 ** 10
        assert len(calls) == 22
        assert [len(a) for a in calls[::2]] == [math.comb(10, size) for size in range(11)]

    def test_transfer_rejects_nan(self):
        t = np.eye(4, dtype=complex)
        t[0, 0] = np.nan
        with pytest.raises(ValueError):
            TransferMatrix(t)

    def test_transform_consistent_with_transfer(self):
        g = random_generator(3, 54, 0.6)
        sites = (2, 3)
        direct = transfer_of(cp_transform(g, sites).generator).t
        via_t = cp_apply_transfer(transfer_of(g), sites).t
        assert np.max(np.abs(direct - via_t)) < 1e-12

    def test_site_validation(self):
        g = random_generator(2, 55)
        with pytest.raises(ValueError):
            cp_transform(g, (0,))
        with pytest.raises(ValueError):
            cp_transform(g, (1, 1))
