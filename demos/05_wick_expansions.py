"""Correlation functions and the generalized Wick expansion.

Between two Gaussian states all higher expectation values reduce to one-
and two-point functions.  With linear terms present, odd strings stop
vanishing and the expansion acquires single-operator contractions: every
partition into pairs plus at most one singleton contributes, signed by
its pairing parity and normalized by the overlap once per extra factor.
"""

import numpy as np

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.correlators import (
    CorrelatorContext,
    generalized_expectation,
    generalized_wick_expansion,
    n_point,
    parse_mode_string,
)
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.quadratic import random_generator

rng = np.random.default_rng(11)
L = 3

# --- quadratic sector ------------------------------------------------------
g1 = random_generator(L, rng, 0.5)
g2 = random_generator(L, rng, 0.5)
bra, ket = FockConfig((1, 0, 1)), FockConfig((0, 1, 1))
ctx = CorrelatorContext(g1, g2, bra, ket)
ops = parse_mode_string("c1 cd2 c3 cd3")
val = n_point(ctx, ops)
print("quadratic 4-point", " ".join(map(str, ops)), "=", val)

f1 = fock.dense_gaussian(g1.m)
f2 = fock.dense_gaussian(g2.m)
a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops], L)
print("dense check              =",
      fock.dense_expectation(f2, a, f1, bra, ket), "\n")

# --- linear sector: the term table -----------------------------------------
def rand_op():
    g = random_generator(L, rng, 0.5)
    u = 0.4 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    v = 0.4 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    return LinearGaussianOp(g.m, u, v)


ctx = CorrelatorContext(rand_op(), rand_op(), FockConfig((1, 0, 0)), FockConfig((0, 1, 0)))
ops = parse_mode_string("c1 cd2 c3")
direct = generalized_expectation(ctx, ops)
value, terms = generalized_wick_expansion(ctx, ops)
print("3-point with linear terms:", " ".join(map(str, ops)))
print("direct evaluation:", direct)
print("pairing expansion:", value)
print("term table (sign, pairs, singleton, product):")
for t in terms:
    pairs = " ".join(f"({ops[i]},{ops[j]})" for i, j in t.pairs)
    single = str(ops[t.singleton]) if t.singleton is not None else "-"
    print(f"  {t.sign:+d}  pairs: {pairs or '-':24s} singleton: {single:5s} value: {t.value:.6f}")
