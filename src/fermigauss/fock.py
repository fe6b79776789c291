"""Brute force in the 2^L Fock space.

One Jordan-Wigner table per chain length (:func:`jordan_wigner`) says how
each mode ``c_l = prod_{j<l} sigma_j^z sigma_l^-`` acts on the basis
states: which states have site l occupied, the state with site l flipped,
and the string sign.  Every operator here is read from it: products of
mode operators and the exponent W of a Gaussian operator as COO triplets
``(rows, cols, values)``, and their dense matrices, which are capped at
``MAX_SITES_DENSE`` sites.  A configuration state ``|I>`` is the +1 basis
vector at ``config_index(I)``, so a matrix element is one entry of the
dense operator.  This module is the independent cross-check for every
closed formula in the package: it deliberately knows nothing about
transfer matrices, factorizations or Pfaffians, and it imports no scipy.

Basis ordering: configurations ``(i_1, ..., i_L)`` are enumerated with
``i_1`` as the most significant bit, and the state ``|I>`` is the ordered
product of creation operators on occupied sites (site index increasing
left to right) applied to the vacuum.
"""

from __future__ import annotations

import numpy as np

from .configs import FockConfig
from .linalg import mat_exp

#: largest L for which dense 2^L x 2^L matrices are built
MAX_SITES_DENSE = 10


def jordan_wigner(L: int):
    """The Jordan-Wigner table of L sites: ``(occupied, flipped, sign)``,
    each of shape ``(L, 2^L)`` and indexed ``[site - 1, basis state]``.

    ``occupied`` says whether the site is occupied, ``flipped`` is the basis
    state with the site's occupation flipped, and ``sign`` is the string sign
    ``(-1)^(occupations on the sites before it)``.  So ``c_l|n> = sign |flipped>``
    where site l is occupied, ``c_l^dag|n> = sign |flipped>`` where it is
    empty, and each annihilates the other states.
    """
    if L < 1:
        raise ValueError(f"L must be positive, got {L}")
    states = np.arange(2 ** L)
    shifts = np.arange(L - 1, -1, -1)[:, None]         # site 1 is the most significant bit
    bits = (states >> shifts) & 1
    before = np.cumsum(bits, axis=0) - bits
    return bits == 1, states ^ (1 << shifts), (1 - 2 * (before % 2)).astype(np.int8)


def _ladder(table, j, dagger, states, amps):
    """The images and amplitudes of the basis states ``states`` (amplitudes
    ``amps``) under ``c_{j+1}``, or ``c_{j+1}^dag`` where ``dagger``; every
    argument broadcasts."""
    occupied, flipped, sign = table
    return flipped[j, states], amps * sign[j, states] * (occupied[j, states] != dagger)


def _term(rows, amps, coef):
    """The nonzero COO triplets of ``coef * amps``: row ``rows``, column the
    basis state of the last axis; flattened in C order."""
    vals = coef * amps
    keep = vals != 0
    cols = np.broadcast_to(np.arange(rows.shape[-1]), rows.shape)
    return rows[keep], cols[keep], vals[keep]


def string_triplets(ops, L: int):
    """COO triplets of a product of mode operators on L sites.

    ``ops`` is a sequence of ``(site, dagger)`` pairs, leftmost factor first;
    the empty product is the identity.
    """
    table = jordan_wigner(L)
    rows, amps = np.arange(2 ** L), np.ones(2 ** L, dtype=np.int8)
    for site, dagger in reversed(list(ops)):
        rows, amps = _ladder(table, site - 1, dagger, rows, amps)
    return _term(rows, amps, 1)


def exponent_triplets(m: np.ndarray, u=None, v=None):
    """COO triplets of ``W = (1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c``.

    They are ordered by the term of W they come from, and a basis pair
    recurs across terms: summing duplicates in order gives W.
    """
    m = np.asarray(m, dtype=complex)
    L = m.shape[0] // 2
    if L < 1 or m.shape != (2 * L, 2 * L):
        raise ValueError(f"M must be 2L x 2L, got {m.shape}")
    table = jordan_wigner(L)
    states = np.arange(2 ** L)
    j = np.tile(np.arange(L), 2)[:, None]
    dagger = np.repeat([False, True], L)[:, None]     # the column vector (c, c^dag)
    mid, amps = _ladder(table, j, dagger, states, 1)  # C_b |n> on row b
    # R_a C_b |n>, one entry a of the row vector (c^dag, c) at a time
    terms = [_term(*_ladder(table, j[a], ~dagger[a], mid, amps), 0.5 * m[a, :, None])
             for a in range(2 * L)]
    if u is not None:
        terms.append(_term(*_ladder(table, j[:L], True, states, 1),
                           np.conj(np.asarray(u, dtype=complex))[:, None]))
    if v is not None:
        terms.append(_term(*_ladder(table, j[:L], False, states, 1),
                           np.asarray(v, dtype=complex)[:, None]))
    return tuple(np.concatenate(part) for part in zip(*terms))


def _dense(L: int, triplets) -> np.ndarray:
    """The dense 2^L x 2^L matrix of COO triplets, duplicates summed in order."""
    rows, cols, vals = triplets
    out = np.zeros((2 ** L, 2 ** L), dtype=complex)
    np.add.at(out, (rows, cols), vals)
    return out


def _check_dense(L: int) -> None:
    if not 1 <= L <= MAX_SITES_DENSE:
        raise ValueError(f"dense matrices need L in 1..{MAX_SITES_DENSE}, got {L}")


def mode_string_matrix(ops, L: int) -> np.ndarray:
    """Dense matrix of a product of mode operators on L sites.

    ``ops`` is a sequence of ``(site, dagger)`` pairs, leftmost factor first.
    """
    _check_dense(L)
    return _dense(L, string_triplets(ops, L))


def mode_operators(L: int):
    """Dense annihilation/creation matrices ``[(c_1, c_1^dag), ...]`` for L sites.

    The anticommutation relations hold exactly (entries are 0/+-1).
    """
    _check_dense(L)
    return [(c, c.T.copy()) for c in (mode_string_matrix([(j, False)], L) for j in range(1, L + 1))]


def config_index(bits) -> int:
    """Basis index of a configuration (site 1 = most significant bit)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def config_state(cfg: FockConfig) -> np.ndarray:
    """State vector of ``|I>``: the creators of the occupied sites, site
    order left to right, on the vacuum give the +1 basis vector."""
    vec = np.zeros(2 ** cfg.L, dtype=complex)
    vec[config_index(cfg.bits)] = 1.0
    return vec


def quadratic_exponent(m: np.ndarray, u=None, v=None) -> np.ndarray:
    """Dense matrix of ``(1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c``."""
    L = np.shape(m)[0] // 2
    _check_dense(L)
    return _dense(L, exponent_triplets(m, u, v))


def dense_gaussian(m: np.ndarray, u=None, v=None) -> np.ndarray:
    """Dense 2^L x 2^L matrix of the Gaussian operator ``exp(...)``."""
    return mat_exp(quadratic_exponent(m, u, v))


def dense_element(f: np.ndarray, bra: FockConfig, ket: FockConfig) -> complex:
    """Matrix element ``<J| F |I>`` in the configuration basis."""
    return complex(f[config_index(bra.bits), config_index(ket.bits)])


def dense_conjugate(f: np.ndarray, op: np.ndarray) -> np.ndarray:
    """``F^-1 op F`` by direct solve."""
    return np.linalg.solve(f, op @ f)


def dense_expectation(f2: np.ndarray, a: np.ndarray, f1: np.ndarray,
                      bra: FockConfig, ket: FockConfig) -> complex:
    """``<J| F2^dag A F1 |I>`` evaluated densely (A may be the identity)."""
    return complex(np.vdot(f2[:, config_index(bra.bits)], a @ f1[:, config_index(ket.bits)]))
