"""Signed values above the dense cap, checked against a sparse oracle.

A fixed grid of 16 scale-3 pairs at L = 10 and 12.  Per (L, seed) a ket
operator F1 and a bra operator F2 are drawn as the benchmark draws its
random generators and linear parts (``random_m``, ``random_linear``), and
<J| F2^dag F1 |I> is taken between the vacua and between two random
configurations of equal parity.  Each pair checks ``state_overlap`` on the
automatic route and on the forced factor chain, ``generalized_overlap``
with linear parts on both operators, and a four-operator ``n_point``, at
1e-9 relative to max(1, |ref|).  The grid was fixed before any value was
compared; the cases that fail today are strict xfails that name their
seeds.

The oracle wraps the COO triplets of ``fermigauss.fock`` (the exponent W
of an operator and the matrix of a mode string) as CSR matrices and takes
``e^W |I>`` with ``expm_multiply``, so no 2^L x 2^L exponential is formed.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.correlators import CorrelatorContext, ModeOp, n_point
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.overlaps import generalized_overlap, state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator

SCALE = 3.0
PAIRS = [(L, seed, kind) for L in (10, 12) for seed in range(4) for kind in ("vacuum", "configs")]
QUANTITIES = ("state_overlap", "state_overlap-factor-chain", "generalized_overlap", "n_point")

# (quantity, L) -> the seeds whose value misses the oracle today, at both
# pair kinds.  Each miss is the oracle's value negated, returned by the
# `pfaffian` route with sign_certain=True; the forced factor chain gets
# every pair right, and n_point misses exactly where state_overlap does.
FAILING = {
    ("state_overlap", 10): (1, 2),
    ("state_overlap", 12): (3,),
    ("generalized_overlap", 10): (1,),
    ("generalized_overlap", 12): (2, 3),
    ("n_point", 10): (1, 2),
    ("n_point", 12): (3,),
}


def _csr(L: int, triplets) -> sp.csr_matrix:
    rows, cols, vals = triplets
    return sp.csr_matrix((vals, (rows, cols)), shape=(2 ** L, 2 ** L))


@functools.cache
def _grid_point(L: int, seed: int):
    """The ket and bra operators (M, u, v) and the mode string of one
    (L, seed), and per pair kind its (bra, ket) and oracle values."""
    rng = np.random.default_rng([17, L, seed])
    s = 0.3 * SCALE / np.sqrt(L)

    def operator():
        m = random_generator(L, rng, SCALE).m
        return (m, *(s * (rng.standard_normal(L) + 1j * rng.standard_normal(L)) for _ in range(2)))

    ket_op, bra_op = operator(), operator()
    ops = tuple(ModeOp(int(k), d)
                for k, d in zip(rng.integers(1, L + 1, size=4), (True, False, True, False)))
    ket_bits, bra_bits = rng.integers(0, 2, size=(2, L))
    bra_bits[-1] ^= (bra_bits.sum() + ket_bits.sum()) % 2
    vac = FockConfig.vacuum(L)
    configs = {"vacuum": (vac, vac),
               "configs": (FockConfig(tuple(map(int, bra_bits))), FockConfig(tuple(map(int, ket_bits))))}
    bras, kets = (np.column_stack([fock.config_state(cfg) for cfg in side])
                  for side in zip(*configs.values()))

    def evolved(m, u, v, states):
        """``exp(W) |I>`` for each column ``|I>`` of ``states``."""
        return expm_multiply(_csr(L, fock.exponent_triplets(m, u, v)), states)

    quad_ket, quad_bra = evolved(ket_op[0], None, None, kets), evolved(bra_op[0], None, None, bras)
    lin_ket, lin_bra = evolved(*ket_op, kets), evolved(*bra_op, bras)
    string = _csr(L, fock.string_triplets([(o.site, o.dagger) for o in ops], L))
    refs = {}
    for col, kind in enumerate(configs):
        state = complex(np.vdot(quad_bra[:, col], quad_ket[:, col]))
        refs[kind] = {
            "state_overlap": state,
            "state_overlap-factor-chain": state,
            "generalized_overlap": complex(np.vdot(lin_bra[:, col], lin_ket[:, col])),
            "n_point": complex(np.vdot(quad_bra[:, col], string @ quad_ket[:, col])),
        }
    return ket_op, bra_op, ops, configs, refs


def _value(quantity: str, ket_op, bra_op, bra, ket, ops) -> complex:
    if quantity == "generalized_overlap":
        return generalized_overlap(LinearGaussianOp(*ket_op), LinearGaussianOp(*bra_op),
                                   bra, ket).value
    g1, g2 = QuadraticGenerator(ket_op[0]), QuadraticGenerator(bra_op[0])
    if quantity == "n_point":
        return n_point(CorrelatorContext(g1, g2, bra, ket), ops)
    method = "factor-chain" if quantity.endswith("factor-chain") else "auto"
    return state_overlap(g1, g2, bra, ket, method=method).value


def _case(quantity: str, L: int, seed: int, kind: str):
    seeds = FAILING.get((quantity, L), ())
    reason = f"the oracle's value negated at seeds {seeds}"
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if seed in seeds else []
    return pytest.param(quantity, L, seed, kind, marks=marks, id=f"{quantity}-L{L}-{kind}-s{seed}")


@pytest.mark.parametrize("quantity, L, seed, kind",
                         [_case(q, L, seed, kind) for q in QUANTITIES for L, seed, kind in PAIRS])
def test_signed_value_matches_sparse_oracle(quantity, L, seed, kind):
    ket_op, bra_op, ops, configs, refs = _grid_point(L, seed)
    val, ref = _value(quantity, ket_op, bra_op, *configs[kind], ops), refs[kind][quantity]
    assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref)), (val, ref)
