"""Reference values for the benchmark's correctness gate.

Two sources, chosen by system size:

* L <= 10: the Jordan-Wigner Fock-space construction of ``fermigauss.fock``,
  held as sparse matrices so that a 2^10-dimensional exponent costs
  milliseconds.  The operator exponential is never formed; its action on a
  basis state is taken with ``expm_multiply``.  The mode matrices are checked
  entry by entry against ``fock.mode_operators`` on a small chain, so the
  conventions (site order, string signs, basis ordering) are fock's own.
* L > 10: values stored in ``reference.json`` next to this file, written by
  ``make_reference.py`` and cross-checked there through an independent route.

Nothing here calls the formula modules (``quadratic``, ``overlaps``,
``correlators``, ``linearpart``), so agreement is evidence, not circularity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fermigauss import fock

#: largest chain on which the dense oracle is evaluated
MAX_ORACLE_SITES = 10

_SIGMA_MINUS = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
_SIGMA_Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def sparse_modes(L: int):
    """``[(c_j, c_j^dag)]`` as CSR matrices, c_l = prod_{j<l} sigma^z_j sigma^-_l."""
    eye = sp.identity(2, dtype=complex, format="csr")
    out = []
    for j in range(L):
        factors = [_SIGMA_Z] * j + [_SIGMA_MINUS] + [eye] * (L - j - 1)
        c = factors[0]
        for f in factors[1:]:
            c = sp.kron(c, f, format="csr")
        out.append((c, c.conj().T.tocsr()))
    return out


def _check_against_fock(L: int = 4) -> None:
    dense = fock.mode_operators(L)
    for (c, _), (c_ref, _) in zip(sparse_modes(L), dense):
        if not np.array_equal(c.toarray(), c_ref):
            raise RuntimeError("sparse Jordan-Wigner modes disagree with fermigauss.fock")


class FockOracle:
    """Matrix elements ``<J| F2^dag A F1 |I>`` on one chain length.

    Each quadratic product ``R_a C_b`` of the exponent is precomputed once as
    COO triplets, so building the exponent of a new operator is one
    weighted scatter-add.  Vectors ``F|I>`` are cached per operator key.
    """

    def __init__(self, L: int):
        if not 1 <= L <= MAX_ORACLE_SITES:
            raise ValueError(f"oracle chain length must be 1..{MAX_ORACLE_SITES}, got {L}")
        _check_against_fock()
        self.L = L
        self.dim = 2 ** L
        self.modes = sparse_modes(L)
        row = [self.modes[i][1] for i in range(L)] + [self.modes[i][0] for i in range(L)]
        col = [self.modes[i][0] for i in range(L)] + [self.modes[i][1] for i in range(L)]
        rows, cols, vals, slots = [], [], [], []
        for a in range(2 * L):
            for b in range(2 * L):
                p = (row[a] @ col[b]).tocoo()
                rows.append(p.row)
                cols.append(p.col)
                vals.append(p.data)
                slots.append(np.full(p.nnz, a * 2 * L + b))
        self._rows = np.concatenate(rows)
        self._cols = np.concatenate(cols)
        self._vals = np.concatenate(vals)
        self._slots = np.concatenate(slots)
        self._exponents: dict = {}
        self._vectors: dict = {}

    def exponent(self, key, m, u=None, v=None) -> sp.csr_matrix:
        w = self._exponents.get(key)
        if w is None:
            m = np.asarray(m, dtype=complex)
            data = 0.5 * m.ravel()[self._slots] * self._vals
            w = sp.coo_matrix((data, (self._rows, self._cols)),
                              shape=(self.dim, self.dim)).tocsr()
            for i in range(self.L):
                if u is not None and u[i] != 0.0:
                    w = w + np.conj(u[i]) * self.modes[i][1]
                if v is not None and v[i] != 0.0:
                    w = w + v[i] * self.modes[i][0]
            self._exponents[key] = w
        return w

    def state(self, bits) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        for j in reversed([k for k, b in enumerate(bits) if b]):
            vec = self.modes[j][1] @ vec
        return vec

    def evolved(self, key, m, u, v, bits) -> np.ndarray:
        """``F |bits>`` for the operator registered under ``key``."""
        vkey = (key, tuple(bits))
        vec = self._vectors.get(vkey)
        if vec is None:
            with np.errstate(over="ignore", invalid="ignore"):
                vec = expm_multiply(self.exponent(key, m, u, v), self.state(bits))
            self._vectors[vkey] = vec
        return vec

    def string_matrix(self, ops):
        """Sparse product of mode operators, ``ops`` = [(site, dagger)], leftmost first."""
        out = sp.identity(self.dim, dtype=complex, format="csr")
        for site, dagger in ops:
            out = out @ self.modes[site - 1][1 if dagger else 0]
        return out

    def sandwich(self, ket_op, bra_op, bra_bits, ket_bits, ops=()) -> complex:
        """``<J| F2^dag A F1 |I>``; ``ket_op``/``bra_op`` are (key, m, u, v)."""
        right = self.evolved(*ket_op, ket_bits)
        if ops:
            right = self.string_matrix(ops) @ right
        left = self.evolved(*bra_op, bra_bits)
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.vdot(left, right))
