"""Calculus of fermionic Gaussian operators with linear terms.

Submodules
----------
``linalg``      matrix exponential/logarithm, Pfaffian, condition estimates
``quadratic``   generators, transfer matrices, factorizations, permutations
``linearpart``  ancilla embedding, five-factor form, single-mode closed forms
``overlaps``    configuration-basis matrix elements and pair states
``correlators`` one/two/n-point functions and the generalized Wick expansion
``fock``        dense 2^L brute-force cross-check (independent of the above)
``cli``         command-line front end

Names listed in ``__all__`` are re-exported lazily from their home modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "FockConfig": "configs",
    "pfaffian": "linalg",
    "mat_exp": "linalg",
    "mat_log": "linalg",
    "SingularBlockError": "linalg",
    "MatrixLogError": "linalg",
    "MatrixLogBranchError": "linalg",
    "QuadraticGenerator": "quadratic",
    "TransferMatrix": "quadratic",
    "transfer_of": "quadratic",
    "compose_transfers": "quadratic",
    "bbd_normal": "quadratic",
    "bbd_antinormal": "quadratic",
    "cp_transform": "quadratic",
    "cp_scan": "quadratic",
    "random_generator": "quadratic",
    "LinearGaussianOp": "linearpart",
    "embed": "linearpart",
    "generalized_bbd": "linearpart",
    "factor_orderings": "linearpart",
    "conjugate_modes": "linearpart",
    "compose_linear": "linearpart",
    "OverlapResult": "overlaps",
    "overlap": "overlaps",
    "state_overlap": "overlaps",
    "overlap_magnitude_cp": "overlaps",
    "generalized_overlap": "overlaps",
    "pair_state_amplitude": "overlaps",
    "pair_state_norm": "overlaps",
    "pair_state_overlap": "overlaps",
    "ModeOp": "correlators",
    "parse_mode_string": "correlators",
    "CorrelatorContext": "correlators",
    "one_point": "correlators",
    "two_point": "correlators",
    "n_point": "correlators",
    "generalized_expectation": "correlators",
    "generalized_wick_expansion": "correlators",
    "ZeroOverlapError": "correlators",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    # lazy re-export keeps `import fermigauss` free of numpy until needed
    if name in _EXPORTS:
        module = importlib.import_module("." + _EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
