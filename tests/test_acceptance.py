"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import numpy as np

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.correlators import (
    CorrelatorContext,
    ModeOp,
    ZeroOverlapError,
    generalized_expectation,
    generalized_wick_expansion,
    n_point,
    one_point,
    two_point,
)
from fermigauss.linalg import pfaffian
from fermigauss.linearpart import (
    LinearGaussianOp,
    conjugate_modes,
    embed,
    factor_orderings,
    factors_as_ops,
    generalized_bbd,
    single_mode_op,
    split_extended_transfer,
)
from fermigauss.overlaps import generalized_overlap, overlap, pair_state_norm, state_overlap
from fermigauss.quadratic import (
    QuadraticGenerator,
    bbd_antinormal,
    bbd_normal,
    cp_scan,
    random_generator,
    transfer_of,
)

from conftest import (
    all_configs,
    random_config,
    random_linear_op,
    random_skew,
    single_mode_factor_matrix,
    table_bits,
    worked_example_elements,
    worked_example_m,
    worked_example_t,
    Oracle,
)

_oracles: dict = {}


def orc(L: int) -> Oracle:
    if L not in _oracles:
        _oracles[L] = Oracle(L)
    return _oracles[L]


def report(num: int, name: str, dev: float, tol: float):
    status = "PASS" if dev <= tol else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} (max deviation {dev:.3e}, tolerance {tol:.1e})")
    assert dev <= tol, f"criterion {num} ({name}): {dev:.3e} > {tol:.1e}"


def test_criterion_1_worked_example_transfer():
    dev = 0.0
    for a in (0.3, 0.7, 1.2):
        t = transfer_of(QuadraticGenerator(worked_example_m(a)))
        dev = max(dev, float(np.max(np.abs(t.t - worked_example_t(a)))))
    report(1, "analytic transfer matrix", dev, 1e-12)


def test_criterion_2_worked_example_elements():
    a = 0.7
    gen = QuadraticGenerator(worked_example_m(a))
    table = worked_example_elements(a)
    f_dense = orc(3).gaussian(gen)
    dev_formula = dev_oracle = 0.0
    for r in range(8):
        for c in range(8):
            bra, ket = FockConfig(table_bits(r)), FockConfig(table_bits(c))
            val = overlap(gen, bra, ket).value
            dev_formula = max(dev_formula, abs(val - table[r, c]))
            dev_oracle = max(dev_oracle, abs(val - orc(3).element(f_dense, bra, ket)))
    report(2, "8x8 matrix-element table (formula and oracle)",
           max(dev_formula, dev_oracle), 1e-10)


def test_criterion_3_singular_point():
    a = np.pi / 2
    gen = QuadraticGenerator(worked_example_m(a))
    table = worked_example_elements(a)
    dev = 0.0
    for r in range(8):
        for c in range(8):
            res = overlap(gen, FockConfig(table_bits(r)), FockConfig(table_bits(c)))
            dev = max(dev, abs(res.value - table[r, c]))
    verdicts = {e.sites: (e.t22_invertible, e.t11_invertible)
                for e in cp_scan(transfer_of(gen))}
    expected = {
        (1,): (True, True),
        (2,): (False, False),
        (3,): (True, True),
        (1, 2): (True, True),
        (1, 3): (False, False),
        (2, 3): (True, True),
    }
    pattern_ok = all(verdicts[s] == v for s, v in expected.items())
    report(3, "regularized elements at the singular point", dev, 1e-6)
    status = "PASS" if pattern_ok else "FAIL"
    print(f"ACCEPTANCE 3 [permutation-scan invertibility pattern]: {status}")
    assert pattern_ok


def test_criterion_4_factorization_golden_forms():
    a = 0.7
    c, s = np.cos(a), np.sin(a)
    sec, tan, lc, cot = 1 / c, np.tan(a), np.log(c), 1 / np.tan(a / 2)
    t = transfer_of(QuadraticGenerator(worked_example_m(a)))
    fn = bbd_normal(t)
    fa = bbd_antinormal(t)
    x_ref = np.array([[0, 1 - sec, tan], [sec - 1, 0, 0], [-tan, 0, 0]])
    z_ref = np.array([[0, 0, tan], [0, 0, 1 - sec], [-tan, sec - 1, 0]])
    y_ref = np.array([[-lc, cot * lc, cot ** 2 * lc + 2],
                      [0, 0, cot * lc],
                      [0, 0, -lc]])
    xa_ref = np.array([[0, 0, tan], [0, 0, sec - 1], [-tan, 1 - sec, 0]])
    za_ref = np.array([[0, sec - 1, tan], [1 - sec, 0, 0], [-tan, 0, 0]])
    ya_ref = np.array([[lc, cot * lc, -(cot ** 2 * lc + 2)],
                       [0, 0, cot * lc],
                       [0, 0, lc]])
    dev = max(
        float(np.max(np.abs(fn.x - x_ref))),
        float(np.max(np.abs(fn.z - z_ref))),
        float(np.max(np.abs(fn.y - y_ref))),
        abs(fn.prefactor - c),
        float(np.max(np.abs(fa.x - xa_ref))),
        float(np.max(np.abs(fa.z - za_ref))),
        float(np.max(np.abs(fa.y - ya_ref))),
        abs(fa.prefactor - 1 / c),
    )
    report(4, "golden factor coefficients", dev, 1e-10)

    o = orc(3)
    f_dense = o.gaussian(QuadraticGenerator(worked_example_m(a)))
    dev_re = 0.0
    for fac in (fn, fa):
        L = 3
        zero = np.zeros((L, L))
        if fac.ordering == "normal":
            left = np.block([[zero, fac.x], [zero, zero]])
            right = np.block([[zero, zero], [fac.z, zero]])
        else:
            left = np.block([[zero, zero], [fac.x, zero]])
            right = np.block([[zero, fac.z], [zero, zero]])
        middle = np.block([[fac.y, zero], [zero, -fac.y.T]])
        prod = fock.dense_gaussian(left) \
            @ fock.dense_gaussian(middle) \
            @ fock.dense_gaussian(right)
        dev_re = max(dev_re, float(np.max(np.abs(prod - f_dense))))
    report(4, "dense factor reassembly", dev_re, 1e-9)


def test_criterion_5_single_mode_grid():
    grid = [-1.0, 0.0, 1.0]
    # per-ordering extraction of (gamma, alpha, beta) from the dense 2x2
    derive = {
        "I": lambda f: (-2 * np.log(f[0, 0]), f[1, 0] / f[0, 0], f[0, 1] / f[0, 0]),
        "II": lambda f: (2 * np.log(f[1, 1]), f[1, 0] / f[1, 1], f[0, 1] / f[1, 1]),
        "III": lambda f: (-2 * np.log(f[0, 0]), f[1, 0] / f[0, 0], f[0, 1] * f[0, 0]),
        "IV": lambda f: (2 * np.log(f[1, 1]), f[1, 0] * f[1, 1], f[0, 1] / f[1, 1]),
        "V": lambda f: (2 * np.log(f[1, 1]), f[1, 0] / f[1, 1], f[0, 1] * f[1, 1]),
        "VI": lambda f: (-2 * np.log(f[0, 0]), f[1, 0] * f[0, 0], f[0, 1] / f[0, 0]),
    }
    dev_closed = dev_dense = 0.0
    n_points = 0
    for a in grid:
        for b in grid:
            for d in grid:
                if abs(4 * a * b + d * d) < 1e-6:
                    continue
                n_points += 1
                op = single_mode_op(a, b, d)
                f = fock.dense_gaussian(op.m, op.u, op.v)
                for fac in factor_orderings(a, b, d):
                    ga, al, be = derive[fac.kind](f)
                    dev_closed = max(dev_closed,
                                     abs(ga - fac.gamma), abs(al - fac.alpha),
                                     abs(be - fac.beta))
                    dev_dense = max(dev_dense, float(np.max(np.abs(
                        single_mode_factor_matrix(fac) - f))))
    assert n_points == 22
    report(5, "single-mode closed forms (22 grid points, 6 orderings)", dev_closed, 1e-10)
    report(5, "single-mode dense reassembly", dev_dense, 1e-10)


def test_criterion_6_pair_state_norm():
    L = 4
    o = orc(L)
    rng = np.random.default_rng(2024)
    dev_oracle = dev_closed = 0.0
    for _ in range(50):
        r = random_skew(rng, L, 0.7)
        u = 0.6 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
        m = np.zeros((2 * L, 2 * L), dtype=complex)
        m[:L, L:] = r
        psi = o.gaussian(LinearGaussianOp(m, u, None))[:, 0]
        ref = float(np.real(psi.conj() @ psi))
        dev_oracle = max(dev_oracle, abs(pair_state_norm(r, u) - ref) / max(1.0, ref))
        det = float(np.real(np.linalg.det(np.eye(L) + r.conj().T @ r)))
        dev_closed = max(dev_closed, abs(pair_state_norm(r, None) ** 2 - det) / det)
    report(6, "pair-state norm vs oracle (50 seeds)", dev_oracle, 1e-9)
    report(6, "pair-state norm closed form at u=0", dev_closed, 1e-12)


def test_criterion_7_quadratic_property_suite():
    rng = np.random.default_rng(777)
    dev_j = dev_pf = dev_ovl = dev_corr = 0.0
    parity_zero_exact = True
    n_seeds = 0
    for L in (1, 2, 3, 4, 5):
        o = orc(L)
        for _ in range(20):
            n_seeds += 1
            g1 = random_generator(L, rng, 0.6)
            g2 = random_generator(L, rng, 0.6)
            t = transfer_of(g1)
            dev_j = max(dev_j, t.j_defect())

            skew = random_skew(rng, 2 * ((L % 4) + 1))
            pf = pfaffian(skew)
            det = np.linalg.det(skew)
            dev_pf = max(dev_pf, abs(pf ** 2 - det) / max(1.0, abs(det)))

            f1, f2 = o.gaussian(g1), o.gaussian(g2)
            bra, ket = random_config(rng, L), random_config(rng, L)
            ctx = CorrelatorContext(g1, g2, bra, ket)
            val = state_overlap(g1, g2, bra, ket).value
            dev_ovl = max(dev_ovl, abs(val - o.sandwich(f2, (), f1, bra, ket)))
            if (bra.n_occupied + ket.n_occupied) % 2:
                parity_zero_exact &= (val == 0.0)

            for n in range(1, 7):
                ops = tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(2)))
                            for _ in range(n))
                ref = o.sandwich(f2, ops, f1, bra, ket)
                if n == 1:
                    got = one_point(ctx, ops[0])
                elif n == 2:
                    got = two_point(ctx, *ops)
                else:
                    got = n_point(ctx, ops)
                dev_corr = max(dev_corr, abs(got - ref))
                if (ket.n_occupied + n + bra.n_occupied) % 2:
                    parity_zero_exact &= (got == 0.0)
    assert n_seeds >= 100
    report(7, "transfer J-orthogonality (100 seeds)", dev_j, 1e-10)
    report(7, "pfaffian squared vs determinant", dev_pf, 1e-9)
    report(7, "overlaps vs oracle", dev_ovl, 1e-8)
    report(7, "correlators vs oracle (strings to length 6)", dev_corr, 1e-8)
    status = "PASS" if parity_zero_exact else "FAIL"
    print(f"ACCEPTANCE 7 [parity zeros exact]: {status}")
    assert parity_zero_exact


def test_criterion_8_linear_property_suite():
    rng = np.random.default_rng(888)
    dev_bbd = dev_ovl = dev_conj = dev_wick = dev_reduce = 0.0
    n_seeds = 0
    for L in (1, 2, 3, 4):
        o = orc(L)
        for _ in range(13):
            n_seeds += 1
            op1 = random_linear_op(rng, L, 0.5)
            op2 = random_linear_op(rng, L, 0.5)
            f1, f2 = o.gaussian(op1), o.gaussian(op2)

            fac = generalized_bbd(op1)
            prod = o.eye.copy()
            for f in factors_as_ops(fac):
                prod = prod @ fock.dense_gaussian(f.m, f.u, f.v)
            dev_bbd = max(dev_bbd, float(np.max(np.abs(prod - f1))))

            bra, ket = random_config(rng, L), random_config(rng, L)
            val = generalized_overlap(op1, op2, bra, ket).value
            dev_ovl = max(dev_ovl, abs(val - o.sandwich(f2, (), f1, bra, ket)))

            nt = conjugate_modes(op1)
            phi = [o.modes[i][0] for i in range(L)] + [o.modes[i][1] for i in range(L)]
            row = [o.modes[i][1] for i in range(L)] + [o.modes[i][0] for i in range(L)]
            for mu in range(L):
                for dag in (False, True):
                    target = fock.dense_conjugate(f1, o.modes[mu][dag])
                    r = mu + (L if dag else 0)
                    img = sum(nt.tp[r, nu] * phi[nu] for nu in range(2 * L))
                    bmat = nt.b_bar[mu] if dag else nt.b[mu]
                    for al in range(2 * L):
                        for ga in range(2 * L):
                            if bmat[al, ga] != 0.0:
                                img = img + 0.5 * bmat[al, ga] * (row[al] @ phi[ga])
                    img = img + nt.shift[r] * o.eye
                    dev_conj = max(dev_conj, float(np.max(np.abs(img - target))))

            ctx = CorrelatorContext(op1, op2, bra, ket)
            n = int(rng.integers(1, 6))
            ops = tuple(ModeOp(int(rng.integers(1, L + 1)), bool(rng.integers(2)))
                        for _ in range(n))
            direct = generalized_expectation(ctx, ops)
            dev_ovl = max(dev_ovl, abs(direct - o.sandwich(f2, ops, f1, bra, ket)))
            try:
                expanded, _ = generalized_wick_expansion(ctx, ops)
                dev_wick = max(dev_wick, abs(expanded - direct))
            except ZeroOverlapError:
                pass

            # u = v = 0 reductions through the embedded machinery
            gq1 = QuadraticGenerator(op1.m)
            gq2 = QuadraticGenerator(op2.m)
            qctx = CorrelatorContext(gq1, gq2, bra, ket)
            dev_reduce = max(dev_reduce, abs(
                generalized_overlap(LinearGaussianOp.quadratic(gq1),
                                    LinearGaussianOp.quadratic(gq2), bra, ket).value
                - state_overlap(gq1, gq2, bra, ket).value))
            dev_reduce = max(dev_reduce, abs(
                generalized_expectation(qctx, ops) - n_point(qctx, ops)))
    assert n_seeds >= 50
    report(8, "five-factor dense reassembly (52 seeds)", dev_bbd, 1e-9)
    report(8, "generalized overlaps/expectations vs oracle", dev_ovl, 1e-9)
    report(8, "mode conjugation vs dense", dev_conj, 1e-9)
    report(8, "wick expansion vs direct evaluation", dev_wick, 1e-8)
    report(8, "quadratic-limit reductions", dev_reduce, 1e-11)


def test_criterion_9_embedding_structure():
    rng = np.random.default_rng(999)
    dev = 0.0
    for L in (1, 2, 3, 4):
        for _ in range(13):
            op = random_linear_op(rng, L, 0.6)
            parts = split_extended_transfer(transfer_of(embed(op)))
            dev = max(dev, parts.defect)
    report(9, "extended-transfer corner/border redundancy", dev, 1e-10)

    # substituted-operator action table, reproduced exactly
    exact = True
    for L in (1, 2, 3):
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
                    out_low = lower @ vec
                    out_raise = raise_ @ vec
                    if cfg.bits[j - 1] == 1:
                        target = sgn * fock.config_state(
                            cfg.flipped([j]).with_ancilla(1 - e))
                        exact &= bool(np.array_equal(out_low, target))
                        exact &= not np.any(out_raise)
                    else:
                        target = sgn * fock.config_state(
                            cfg.flipped([j]).with_ancilla(1 - e))
                        exact &= bool(np.array_equal(out_raise, target))
                        exact &= not np.any(out_low)
    status = "PASS" if exact else "FAIL"
    print(f"ACCEPTANCE 9 [substituted-operator action table, exact]: {status}")
    assert exact
