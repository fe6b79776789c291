"""Sparse Jordan-Wigner oracle for matrix elements beyond the dense cap.

The sparse form of the benchmark's reference oracle: the mode operators
are CSR matrices, the exponent W of a Gaussian operator is assembled from
them, and ``e^W |I>`` is taken with ``expm_multiply``, so no 2^L x 2^L
exponential is ever formed.

Nothing here calls the formula modules (``quadratic``, ``overlaps``,
``correlators``, ``linearpart``), so agreement is evidence, not
circularity.  ``fermigauss.fock`` is imported only to check the
conventions (site order, string signs, basis ordering) at L <= 4.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from fermigauss import fock
from fermigauss.configs import FockConfig

_SIGMA_MINUS = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
_SIGMA_Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))


def sparse_modes(L: int):
    """``[(c_j, c_j^dag)]`` as CSR matrices, c_l = prod_{j<l} sigma^z_j sigma^-_l."""
    eye = sp.identity(2, dtype=complex, format="csr")
    out = []
    for j in range(L):
        c = sp.identity(1, dtype=complex, format="csr")
        for f in [_SIGMA_Z] * j + [_SIGMA_MINUS] + [eye] * (L - j - 1):
            c = sp.kron(c, f, format="csr")
        out.append((c, c.conj().T.tocsr()))
    return out


class SparseOracle:
    """``<J| exp(W2)^dag A exp(W1) |I>`` on one chain length, A a product of
    mode operators.

    W is ``(1/2)(c^dag, c) M (c, c^dag)^T + u^dag c^dag + v^T c``, the
    exponent of :func:`fermigauss.fock.quadratic_exponent`; configurations
    are bit tuples with site 1 first, as in ``fock``.  Each product
    ``R_a C_b`` of the exponent is held once as COO triplets, so the
    exponent of a new operator is one weighted scatter-add.
    """

    def __init__(self, L: int):
        self.dim = 2 ** L
        self.modes = sparse_modes(L)
        rows = [c_dag for _, c_dag in self.modes] + [c for c, _ in self.modes]
        cols = [c for c, _ in self.modes] + [c_dag for _, c_dag in self.modes]
        products = [(a * 2 * L + b, (r @ c).tocoo())
                    for a, r in enumerate(rows) for b, c in enumerate(cols)]
        self._slots = np.concatenate([np.full(p.nnz, k) for k, p in products])
        self._rows, self._cols, self._vals = (np.concatenate([getattr(p, f) for _, p in products])
                                              for f in ("row", "col", "data"))

    def exponent(self, m, u=None, v=None) -> sp.csr_matrix:
        """W of the operator (M, u, v) as a CSR matrix."""
        data = 0.5 * np.asarray(m, dtype=complex).ravel()[self._slots] * self._vals
        w = sp.coo_matrix((data, (self._rows, self._cols)), shape=(self.dim, self.dim)).tocsr()
        for j, (c, c_dag) in enumerate(self.modes):
            if u is not None and u[j] != 0.0:
                w = w + np.conj(u[j]) * c_dag
            if v is not None and v[j] != 0.0:
                w = w + v[j] * c
        return w

    def state(self, bits) -> np.ndarray:
        """``|I>``: the creators of the occupied sites, site order left to right."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[0] = 1.0
        for j in reversed([k for k, b in enumerate(bits) if b]):
            vec = self.modes[j][1] @ vec
        return vec

    def evolved(self, w: sp.csr_matrix, kets) -> np.ndarray:
        """``exp(W) |I>`` for each configuration of ``kets``, one column each."""
        return expm_multiply(w, np.column_stack([self.state(bits) for bits in kets]))

    def sandwich(self, bra_vec: np.ndarray, ket_vec: np.ndarray, ops=()) -> complex:
        """``<bra_vec| A |ket_vec>``, ``ops`` = [(site, dagger)] with 1-based
        sites, leftmost first; with ``bra_vec = exp(W2)|J>`` and
        ``ket_vec = exp(W1)|I>`` this is ``<J| F2^dag A F1 |I>``."""
        for site, dagger in reversed(list(ops)):
            ket_vec = self.modes[site - 1][1 if dagger else 0] @ ket_vec
        return complex(np.vdot(bra_vec, ket_vec))


def check_against_fock(L: int = 4, seed: int = 0) -> None:
    """The modes, the exponent and one sandwich of two operators with linear
    parts around a mode string agree with ``fock``'s dense construction on
    ``L <= 4`` sites."""
    oracle = SparseOracle(L)
    dense = fock.mode_operators(L)
    for (c, c_dag), (c_ref, c_dag_ref) in zip(oracle.modes, dense):
        if not (np.array_equal(c.toarray(), c_ref) and np.array_equal(c_dag.toarray(), c_dag_ref)):
            raise AssertionError("sparse Jordan-Wigner modes disagree with fermigauss.fock")
    rng = np.random.default_rng(seed)

    def random_op():
        m = rng.standard_normal((2 * L, 2 * L)) + 1j * rng.standard_normal((2 * L, 2 * L))
        return (m, *(rng.standard_normal(L) + 1j * rng.standard_normal(L) for _ in range(2)))

    ket_op, bra_op = random_op(), random_op()
    w = oracle.exponent(*ket_op).toarray()
    if not np.allclose(w, fock.quadratic_exponent(*ket_op, modes=dense), rtol=0, atol=1e-13):
        raise AssertionError("sparse exponent disagrees with fermigauss.fock")
    bra, ket = tuple(rng.integers(0, 2, L)), tuple(rng.integers(0, 2, L))
    ops = [(1, True), (L, False)]
    val = oracle.sandwich(oracle.evolved(oracle.exponent(*bra_op), [bra])[:, 0],
                          oracle.evolved(oracle.exponent(*ket_op), [ket])[:, 0], ops)
    ref = fock.dense_expectation(fock.dense_gaussian(*bra_op, modes=dense),
                                 fock.mode_string_matrix(ops, dense),
                                 fock.dense_gaussian(*ket_op, modes=dense),
                                 FockConfig(bra), FockConfig(ket), modes=dense)
    if abs(val - ref) > 1e-10 * max(1.0, abs(ref)):
        raise AssertionError(f"sparse element {val} disagrees with fermigauss.fock {ref}")
