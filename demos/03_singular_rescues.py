"""What to do when T22 is singular.

At a = pi/2 the worked example's diagonal transfer blocks lose their
inverses, so the plain factorization and the Pfaffian overlap formula
break down.  Four rescues are shown: the particle-hole permutation scan,
the signed factor chain (the two halves exp(M/2) exp(M/2) in one Pfaffian),
the signed perturbative continuation, and the permutation magnitude.
"""

import numpy as np

from fermigauss.configs import FockConfig
from fermigauss.linalg import SingularBlockError
from fermigauss.overlaps import overlap, overlap_magnitude_cp
from fermigauss.quadratic import QuadraticGenerator, bbd_normal, cp_scan, transfer_of

a = np.pi / 2
m = np.zeros((6, 6))
m[0, 1], m[0, 5] = -a, a
m[1, 2], m[2, 3] = -a, -a
m[3, 2], m[4, 3] = a, a
m[5, 0], m[5, 4] = -a, a
gen = QuadraticGenerator(m)
t = transfer_of(gen)

try:
    bbd_normal(t)
except SingularBlockError as exc:
    print("factorization fails as expected:", exc, "\n")

print("particle-hole permutation scan (which site swaps restore the blocks):")
for e in cp_scan(t):
    print(f"  sites {str(e.sites):10s} T22 invertible: {str(e.t22_invertible):5s} "
          f"T11 invertible: {str(e.t11_invertible):5s} "
          f"(rcond {e.rcond_t22:.2e} / {e.rcond_t11:.2e})")
print()

bra = ket = FockConfig((0, 0, 0))
res = overlap(gen, bra, ket)
print(f"<000|F|000> at a = pi/2 should be cos(pi/2) = 0")
print("auto-dispatched method:", res.method)
print("routes tried:", [(e["route"], e["accepted"]) for e in res.route])
print("value:", res.value)
print("chain factors:", res.route[-1]["factors"], " smallest rcond:", res.route[-1]["rcond"], "\n")

res = overlap(gen, FockConfig((1, 1, 0)), FockConfig((0, 0, 0)))
print("<110|F|000> by the factor chain:", res.value, " (closed form cos(a)-1 = -1)")
res = overlap(gen, FockConfig((1, 1, 0)), FockConfig((0, 0, 0)), method="epsilon")
print("<110|F|000> regularized:", res.value,
      " convergence diagnostic:", res.route[-1]["eps_disagreement"])

mag = overlap_magnitude_cp(t, FockConfig((1, 1, 0)), FockConfig((0, 0, 0)))
print("same element by permutation magnitude:", mag.value,
      " sign_certain:", mag.sign_certain, " sites:", mag.route[-1]["cp_sites"])
