"""Shared fixtures: the analytic L=3 example, random-instance helpers and
the kernel-call counter of the count gates."""

import importlib
import pkgutil

import numpy as np
import pytest

import fermigauss
from fermigauss import fock, linalg
from fermigauss.configs import FockConfig
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.quadratic import QuadraticGenerator, random_generator


def worked_example_m(a: float) -> np.ndarray:
    """Generator of exp(a(-c1+ c2 + c1+ c3+ + c3 c2+ + c1 c3)) on three sites."""
    m = np.zeros((6, 6), dtype=complex)
    m[0, 1] = -a
    m[0, 5] = a
    m[1, 2] = -a
    m[2, 3] = -a
    m[3, 2] = a
    m[4, 3] = a
    m[5, 0] = -a
    m[5, 4] = a
    return m


def worked_example_t(a: float) -> np.ndarray:
    """Closed-form transfer matrix of the three-site example."""
    c, s = np.cos(a), np.sin(a)
    return np.array([
        [c, -s, 1 - c, 0, 1 - c, s],
        [0, 1, -s, 1 - c, 0, 0],
        [0, 0, c, -s, 0, 0],
        [0, 0, s, c, 0, 0],
        [0, 0, 1 - c, s, 1, 0],
        [-s, 1 - c, 0, 1 - c, s, c],
    ], dtype=complex)


def worked_example_elements(a: float) -> np.ndarray:
    """Closed-form 8x8 matrix elements <J|F|I> of the three-site example.

    Row/column index n encodes the configuration with site 1 as the least
    significant bit: bits(n) = (n & 1, (n >> 1) & 1, (n >> 2) & 1).  This
    ordering was fixed once against the Jordan-Wigner oracle and is pinned
    by the golden tests.
    """
    c, s = np.cos(a), np.sin(a)
    return np.array([
        [c, 0, 0, 0, 0, -s, 1 - c, 0],
        [0, 1, -s, 0, 1 - c, 0, 0, -1 + c],
        [0, 0, c, 0, -s, 0, 0, s],
        [c - 1, 0, 0, 1, 0, -s, 1 - c, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [s, 0, 0, 0, 0, c, -s, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, -s, 0, 1 - c, 0, 0, c],
    ], dtype=complex)


def table_bits(n: int, L: int = 3) -> tuple:
    """Configuration bits for a golden-table index (site 1 fastest)."""
    return tuple((n >> k) & 1 for k in range(L))


def all_configs(L: int):
    return [FockConfig(table_bits(n, L)) for n in range(2 ** L)]


def random_config(rng, L: int) -> FockConfig:
    return FockConfig(tuple(int(b) for b in rng.integers(0, 2, size=L)))


def random_linear_op(rng, L: int, scale: float = 0.5) -> LinearGaussianOp:
    g = random_generator(L, rng, scale)
    u = scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    v = scale * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    return LinearGaussianOp(g.m, u, v)


def compose_pair(L: int, seed: int) -> tuple:
    """The operators (a, b) of the ``compose_linear`` checks: scale 0.5, then 1.5."""
    rng = np.random.default_rng(1000 * L + seed)
    return random_linear_op(rng, L, 0.5), random_linear_op(rng, L, 1.5)


def random_skew(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return 0.5 * (a - a.T)


class Oracle:
    """Dense Fock-space reference bundled with cached mode operators."""

    def __init__(self, L: int):
        self.L = L
        self.modes = fock.mode_operators(L)
        self.dim = 2 ** L
        self.eye = np.eye(self.dim, dtype=complex)

    def gaussian(self, op) -> np.ndarray:
        if isinstance(op, QuadraticGenerator):
            return fock.dense_gaussian(op.m, modes=self.modes)
        return fock.dense_gaussian(op.m, op.u, op.v, modes=self.modes)

    def element(self, f, bra: FockConfig, ket: FockConfig) -> complex:
        return fock.dense_element(f, bra, ket, modes=self.modes)

    def sandwich(self, f2, ops, f1, bra: FockConfig, ket: FockConfig) -> complex:
        a = fock.mode_string_matrix([(o.site, o.dagger) for o in ops], self.modes)
        return fock.dense_expectation(f2, a, f1, bra, ket, modes=self.modes)


_ORACLES: dict = {}


@pytest.fixture
def oracle():
    def get(L: int) -> Oracle:
        if L not in _ORACLES:
            _ORACLES[L] = Oracle(L)
        return _ORACLES[L]

    return get


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name)`` records every call of ``linalg.<name>`` made
    from a fermigauss module and returns the list of argument tuples.

    Every submodule is imported first and patched where it bound the
    function by name, so a call counts wherever it moves; the dense oracle
    ``fock`` is left alone, so checking against it adds no counts.
    """
    modules = [importlib.import_module(f"fermigauss.{info.name}")
               for info in pkgutil.iter_modules(fermigauss.__path__) if info.name != "fock"]

    def install(name: str) -> list:
        orig = getattr(linalg, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return orig(*args, **kwargs)

        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, counting)
        return calls

    return install
