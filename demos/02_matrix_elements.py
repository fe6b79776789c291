"""Configuration-basis matrix elements through the Pfaffian formula.

Every element <J|F|I> of a quadratic Gaussian operator is a Pfaffian of a
submatrix of one fixed 2L x 2L antisymmetric matrix, times det(T22)^(1/2)
and a combinatorial sign.  We tabulate all 64 elements of the three-site
worked example and check them against the dense 2^L brute force.
"""

import numpy as np

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.overlaps import overlap, state_overlap
from fermigauss.quadratic import QuadraticGenerator, random_generator

np.set_printoptions(precision=4, suppress=True, linewidth=140)

a = 0.7
m = np.zeros((6, 6))
m[0, 1], m[0, 5] = -a, a
m[1, 2], m[2, 3] = -a, -a
m[3, 2], m[4, 3] = a, a
m[5, 0], m[5, 4] = -a, a
gen = QuadraticGenerator(m)

configs = [FockConfig(tuple((n >> k) & 1 for k in range(3))) for n in range(8)]
table = np.array([[overlap(gen, bra, ket).value for ket in configs] for bra in configs])
print("all matrix elements <J|F|I> (site 1 varies fastest):")
print(table.real, "\n")

dense = fock.dense_gaussian(gen.m)
ref = np.array([[fock.dense_element(dense, bra, ket)
                 for ket in configs] for bra in configs])
print("max deviation from the dense brute force:", np.max(np.abs(table - ref)), "\n")

# overlaps between two different Gaussian states <M2(J)|M1(I)>
rng = np.random.default_rng(1)
g1 = random_generator(3, rng, 0.5)
g2 = random_generator(3, rng, 0.5)
bra, ket = FockConfig((1, 0, 1)), FockConfig((0, 1, 1))
res = state_overlap(g1, g2, bra, ket)
print(f"<M2({bra})|M1({ket})> =", res.value, " method:", res.method)
f1 = fock.dense_gaussian(g1.m)
f2 = fock.dense_gaussian(g2.m)
check = fock.dense_expectation(f2, np.eye(8), f1, bra, ket)
print("dense check:             ", check)
