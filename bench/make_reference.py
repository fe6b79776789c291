"""Write ``reference.json``: the stored pools and reference values for L > 10.

    python3 bench/make_reference.py

Above L = 10 the dense oracle is out of reach, so the benchmark draws its
L > 10 ops from fixed pools whose values are computed here once and checked
through a second, independent route before they are stored:

* overlaps against the conjugate of the swapped overlap, <I|F1^dag F2|J>^*;
* ``bbd_normal`` prefactors against det(T22) from a separate ``expm``, and
  X T22 against T12;
* quadratic correlators against ``generalized_expectation`` on the same
  states with zero linear parts, which runs the ancilla-extended string
  expansion instead of the Wick route.

``generalized_bbd`` factor data are stored as regression values.  Takes a
few minutes on one core.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys

import numpy as np
import scipy.linalg

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fermigauss import correlators, linearpart, overlaps, quadratic  # noqa: E402
from fermigauss.configs import FockConfig  # noqa: E402

from workloads import (  # noqa: E402
    CORRELATOR_TOL,
    ELEMENT_TOL,
    REFERENCE_PATH,
    basis_member,
    close,
    factor_summary,
    fingerprint,
    matched_bits,
    random_bits,
)

SWEEP_CATEGORIES = [(16, 0.5), (16, 3.0), (32, 0.5), (32, 3.0), (48, 0.5), (48, 3.0)]
BASIS_SIZE = 8
SWEEP_POOL = {"state": 20, "generalized": 8, "bbd": 2, "generalized_bbd": 2}
CONTEXTS = 16
CONTEXT_L = 16
FOUR_POINT_STRINGS = 64
CROSS_CHECKS_PER_CONTEXT = 6


def pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference cross-check failed: {what}")


def sweep_category(L: int, scale: float) -> dict:
    seeds = [100000 * L + int(100 * scale) * 100 + k for k in range(BASIS_SIZE)]
    basis = [basis_member(s, L, scale) for s in seeds]
    gens = [quadratic.QuadraticGenerator(m) for m, _, _ in basis]
    lins = [linearpart.LinearGaussianOp(m, u, v) for m, u, v in basis]
    rng = np.random.default_rng([L, int(10 * scale), 7])
    ops = []
    for kind in ("state", "generalized"):
        for _ in range(SWEEP_POOL[kind]):
            i, j = (int(x) for x in rng.choice(BASIS_SIZE, size=2, replace=False))
            if kind == "state":
                bra, ket = matched_bits(rng, L)
                b, k = FockConfig.from_string(bra), FockConfig.from_string(ket)
                res = overlaps.state_overlap(gens[i], gens[j], b, k)
                swapped = overlaps.state_overlap(gens[j], gens[i], k, b)
            else:
                bra, ket = random_bits(rng, L), random_bits(rng, L)
                b, k = FockConfig.from_string(bra), FockConfig.from_string(ket)
                res = overlaps.generalized_overlap(lins[i], lins[j], b, k)
                swapped = overlaps.generalized_overlap(lins[j], lins[i], k, b)
            require(res.sign_certain and swapped.sign_certain, f"{kind} L={L} sign")
            require(close(res.value, np.conj(swapped.value), ELEMENT_TOL),
                    f"{kind} L={L} scale={scale} swap identity")
            ops.append({"op": kind, "i": i, "j": j, "bra": bra, "ket": ket,
                        "value": pair(res.value), "method": res.method})
    picks = [int(x) for x in rng.choice(BASIS_SIZE, size=4, replace=False)]
    for n, i in enumerate(picks):
        kind = "bbd" if n < SWEEP_POOL["bbd"] else "generalized_bbd"
        if kind == "bbd":
            fac = quadratic.bbd_normal(quadratic.transfer_of(gens[i]))
            t = scipy.linalg.expm(basis[i][0])
            t12, t22 = t[:L, L:], t[L:, L:]
            require(close(fac.prefactor ** 2, np.linalg.det(t22), ELEMENT_TOL), "bbd det(T22)")
            require(np.max(np.abs(fac.x @ t22 - t12)) <= ELEMENT_TOL * max(1.0, np.max(np.abs(t12))),
                    "bbd X T22 = T12")
        else:
            fac = linearpart.generalized_bbd(lins[i])
        prefactor, norms = factor_summary(fac)
        ops.append({"op": kind, "i": i, "prefactor": pair(prefactor), "norms": norms,
                    "sign_certain": bool(fac.sign_certain)})
    return {"L": L, "scale": scale, "seeds": seeds,
            "fingerprints": [fingerprint(m) for m, _, _ in basis], "ops": ops}


def context(k: int) -> dict:
    L = CONTEXT_L
    scale = 0.5 if k % 2 == 0 else 1.0
    seeds = [900000 + 2 * k, 900001 + 2 * k]
    (m1, _, _), (m2, _, _) = (basis_member(s, L, scale) for s in seeds)
    rng = np.random.default_rng([k, 11])
    bra, ket = matched_bits(rng, L)
    g1, g2 = quadratic.QuadraticGenerator(m1), quadratic.QuadraticGenerator(m2)
    b, kt = FockConfig.from_string(bra), FockConfig.from_string(ket)
    ctx = correlators.CorrelatorContext(g1, g2, b, kt)
    ModeOp = correlators.ModeOp
    table = [correlators.n_point(ctx, (ModeOp(a, True), ModeOp(c, False)))
             for a in range(1, L + 1) for c in range(1, L + 1)]
    # no creation or annihilation pair repeats, so every string costs the same
    # two fresh anomalous two-point values on top of the cached table
    strings, seen = [], set()
    while len(strings) < FOUR_POINT_STRINGS:
        s1, s2, s3, s4 = (int(s) for s in rng.choice(L, size=4, replace=False) + 1)
        pairs = {("cd", frozenset((s1, s2))), ("c", frozenset((s3, s4)))}
        if pairs & seen:
            continue
        seen |= pairs
        ops = (ModeOp(s1, True), ModeOp(s2, True), ModeOp(s3, False), ModeOp(s4, False))
        strings.append((" ".join(str(o) for o in ops), correlators.n_point(ctx, ops)))
    ext = correlators.CorrelatorContext(linearpart.LinearGaussianOp(m1, None, None),
                                        linearpart.LinearGaussianOp(m2, None, None), b, kt)
    for idx in rng.choice(L * L, size=CROSS_CHECKS_PER_CONTEXT, replace=False):
        a, c = divmod(int(idx), L)
        alt = correlators.generalized_expectation(ext, (ModeOp(a + 1, True), ModeOp(c + 1, False)))
        require(close(table[int(idx)], alt, CORRELATOR_TOL), f"context {k} table entry {idx}")
    for text, value in strings[:2]:
        alt = correlators.generalized_expectation(ext, correlators.parse_mode_string(text))
        require(close(value, alt, CORRELATOR_TOL), f"context {k} string {text!r}")
    return {"L": L, "scale": scale, "seed1": seeds[0], "seed2": seeds[1],
            "fingerprints": [fingerprint(m1), fingerprint(m2)], "bra": bra, "ket": ket,
            "overlap": pair(correlators.overlap_value(ctx)),
            "table": [pair(v) for v in table],
            "strings": [[text, pair(v)] for text, v in strings]}


def main() -> None:
    doc = {
        "overlap_sweep": {"categories": []},
        "correlator_table": {"contexts": []},
    }
    for L, scale in SWEEP_CATEGORIES:
        doc["overlap_sweep"]["categories"].append(sweep_category(L, scale))
        print(f"overlap-sweep L={L} scale={scale:g} done", flush=True)
    for k in range(CONTEXTS):
        doc["correlator_table"]["contexts"].append(context(k))
        print(f"correlator context {k} done", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
