"""Gaussian operators with linear terms: embedding and factorizations.

A linear term in the exponent is traded for quadratic couplings to one
ancillary mode; the enlarged operator is purely quadratic and all the
usual machinery applies.  The headline result is the five-factor form

    F = exp(q.c+) exp(c+.X.c+/2) exp(c+.Y.c - trY/2) exp(c.Z.c/2) exp(p.c).
"""

import numpy as np

from fermigauss import fock
from fermigauss.configs import FockConfig
from fermigauss.linearpart import (
    LinearGaussianOp,
    conjugate_modes,
    embed,
    factor_orderings,
    factors_as_ops,
    generalized_bbd,
    single_mode_op,
)
from fermigauss.overlaps import pair_state_amplitude, pair_state_norm, pair_state_overlap
from fermigauss.quadratic import random_generator

np.set_printoptions(precision=5, suppress=True, linewidth=120)

# --- single mode: all six ordered factorizations in closed form ----------
a, b, d = 0.3, 0.2, 0.5
print(f"f = exp({a} c+ + {b} c + {d}(2 c+c - 1)/2), six orderings:")
op1 = single_mode_op(a, b, d)
dense = fock.dense_gaussian(op1.m, op1.u, op1.v)
for fac in factor_orderings(a, b, d):
    print(f"  type {fac.kind:3s} order {'-'.join(fac.order)}: "
          f"alpha={fac.alpha.real:+.6f} beta={fac.beta.real:+.6f} "
          f"gamma={fac.gamma.real:+.6f}")
print()

# --- the ancillary-mode embedding ----------------------------------------
rng = np.random.default_rng(4)
L = 2
g = random_generator(L, rng, 0.5)
u = 0.4 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
v = 0.4 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
op = LinearGaussianOp(g.m, u, v)
mp = embed(op).m
print("enlarged generator (ancilla borders carry the linear coefficients):")
print(np.round(mp, 3), "\n")

fac = generalized_bbd(op)
print("five-factor data: q =", np.round(fac.q, 5), " p =", np.round(fac.p, 5))
prod = np.eye(2 ** L, dtype=complex)
modes = fock.mode_operators(L)
for f in factors_as_ops(fac):
    prod = prod @ fock.dense_gaussian(f.m, f.u, f.v, modes=modes)
ref = fock.dense_gaussian(op.m, op.u, op.v, modes=modes)
print("dense five-factor reassembly error:", np.max(np.abs(prod - ref)), "\n")

# --- conjugation is a *nonlinear* canonical transformation ----------------
nt = conjugate_modes(op)
print("F^-1 c_1 F picks up a constant shift", nt.shift[0],
      "and quadratic terms of size", np.max(np.abs(nt.b[0])))

# --- pair states with a linear part ---------------------------------------
# |psi(R, u)> is one factor on L + 1 sites (the ancilla is occupied exactly
# when the configuration is odd), so amplitudes, norms and overlaps are all
# elements of one overlap kernel; fock's dense state vectors check them
r = np.array([[0, 0.6], [-0.6, 0]], dtype=complex)
uvec = np.array([0.3, -0.2j])
r1 = np.array([[0, -0.4 + 0.2j], [0.4 - 0.2j, 0]])
u1 = np.array([-0.1j, 0.5])
modes = fock.mode_operators(L)


def dense_state(r, u):
    m = np.zeros((2 * L, 2 * L), dtype=complex)
    m[:L, L:] = r
    return fock.dense_gaussian(m, u, None, modes=modes)[:, 0]


psi0, psi1 = dense_state(r, uvec), dense_state(r1, u1)
print("\npair state exp(c+.R.c+/2 + u+.c+)|vac>:")
for bits in [(0, 0), (1, 0), (0, 1), (1, 1)]:
    amp = pair_state_amplitude(r, uvec, FockConfig(bits))
    print(f"  <{bits[0]}{bits[1]}|psi0> = {amp:.6f}")
print("  <psi0|psi0> =", pair_state_norm(r, uvec), " fock:", (psi0.conj() @ psi0).real)
print(f"  <psi0|psi1> = {pair_state_overlap(r, uvec, r1, u1):.10f}  fock: {psi0.conj() @ psi1:.10f}")
f = random_generator(L, 7, 0.5)
ref = psi0.conj() @ fock.dense_gaussian(f.m, modes=modes) @ psi1
print(f"  <psi0|F|psi1> = {pair_state_overlap(r, uvec, r1, u1, op=f):.10f}  fock: {ref:.10f}")
