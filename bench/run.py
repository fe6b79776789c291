"""fermigauss benchmark: one workload, one process, a closed loop with one client.

    python3 bench/run.py --workload overlap-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from ``src/``.
BLAS is pinned to one thread before numpy loads.  With ``--trace 0`` the
workload runs in whole rounds until ``--seconds`` have passed and the
end-to-end metrics are printed.  With ``--trace 1`` a fixed number of rounds
runs once untraced and once with the library's public functions wrapped, and
the per-layer metrics are printed.  Every result is checked against the
dense oracle (L <= 10) or the stored reference values (L > 10) outside the
timed region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("overlap-sweep", "correlator-table", "singular-rescue")
#: rounds run by a traced pass: fixed, so that counts repeat exactly under a seed
TRACE_ROUNDS = {"overlap-sweep": 1, "correlator-table": 4, "singular-rescue": 2}
#: fresh interpreters timed for the set-up metric
SETUP_PROBES = 5
#: speed-probe time at the reference speed, and op time between two probe runs
CAL_REF_S = 3.0e-3
CAL_INTERVAL_S = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_threads() -> int | None:
    """Thread count reported by every OpenBLAS loaded in this process (max), or None."""
    import ctypes

    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and ".so" in path:
                    paths.add(path)
    except OSError:
        return None
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts) if counts else None


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def setup_probe(args) -> None:
    """Child mode: import the library, build the workload's inputs, report excluded time."""
    import workloads

    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _, input_s = workloads.build(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"input_s": input_s}))


def measure_setup(args, probe) -> list[float]:
    """Time from interpreter start to a built workload, input generation excluded,
    at the reference speed (each probe process is bracketed by speed probes)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    before = probe()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        after = probe()
        own = wall - json.loads(proc.stdout.strip().splitlines()[-1])["input_s"]
        times.append(own * CAL_REF_S / (0.5 * (before + after)))
        before = after
    return times


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

class SpeedProbe:
    """A fixed calibration kernel that calls nothing in fermigauss.

    It does the kinds of work the library does -- a small ``expm``, small
    SVDs and an interpreter loop -- and takes about ``CAL_REF_S`` on a quiet
    core.  The benchmark shares its machine, and the speed of a core drifts
    by tens of percent over seconds; timings are divided by the probe's
    current time and multiplied by ``CAL_REF_S``, so they read as seconds at
    the reference speed.  A change to the library cannot move the probe.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = 0.3 * (rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
        self.s = [rng.standard_normal((10, 10)) for _ in range(8)]
        for _ in range(3):
            self()

    def __call__(self) -> float:
        import numpy as np
        import scipy.linalg

        t0 = time.perf_counter()
        for _ in range(4):
            scipy.linalg.expm(self.a)
        for _ in range(10):
            for m in self.s:
                np.linalg.svd(m, compute_uv=False)
        counts: dict = {}
        for i in range(3000):
            counts[i % 17] = counts.get(i % 17, 0) + i
        return time.perf_counter() - t0


def execute(ops, probe=None):
    """Run ops back to back; returns [(op, outcome, seconds, speed factor)].

    With a probe, the probe runs before the first op, after every
    ``CAL_INTERVAL_S`` of op time and after the last op; the ops between two
    probe runs get the factor ``CAL_REF_S / mean(probe times)``.
    """
    from workloads import Raised

    records, pending = [], []
    last = probe() if probe else None
    since = 0.0

    def flush():
        nonlocal last, since
        factor = 1.0
        if probe:
            now = probe()
            factor = CAL_REF_S / (0.5 * (last + now))
            last, since = now, 0.0
        records.extend((op, outcome, dt, factor) for op, outcome, dt in pending)
        pending.clear()

    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:  # a failed op is data, recorded by type
            outcome = Raised(exc)
        dt = time.perf_counter() - t0
        pending.append((op, outcome, dt))
        since += dt
        if probe and since >= CAL_INTERVAL_S:
            flush()
    if pending:
        flush()
    return records


def warm_up(workload, rng) -> None:
    """One op of every kind, so lazy imports and first-call costs are paid untimed."""
    seen = set()
    ops = []
    for op in next(workload.rounds(rng)):
        if op.kind not in seen:
            seen.add(op.kind)
            ops.append(op)
    execute(ops)


def timed_rounds(workload, rng, seconds: float, probe):
    """Whole rounds until ``seconds`` of rounds have run, so every run sees the same mix.

    Each round is checked as it ends, outside the timed region, and only its
    rows are kept, so the states it built are freed and memory does not grow
    with the number of ops a run completes.
    """
    rows = []
    rounds = workload.rounds(rng)
    measured = 0.0
    while measured < seconds:
        t0 = time.perf_counter()
        records = execute(next(rounds), probe)
        measured += time.perf_counter() - t0
        rows.extend(check_rows(records))
    return rows, measured


def check_rows(records):
    """[(kind, seconds, speed factor, verdict)] for executed ops."""
    return [(op.kind, dt, factor, op.check(outcome)) for op, outcome, dt, factor in records]


def grade(rows):
    verdicts = [v for _, _, _, v in rows]
    failures = Counter(v.reason for v in verdicts if not v.ok)
    by_kind: dict = {}
    for kind, _, _, v in rows:
        if not v.ok:
            by_kind.setdefault(kind, Counter())[v.reason] += 1
    return verdicts, failures, by_kind


def percentile_note(latencies_ms) -> str:
    n = len(latencies_ms)
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"latency: {n} samples, fewer than 10 beyond the median"
    value = statistics.quantiles(latencies_ms, n=1000, method="inclusive")[int(best * 10) - 1]
    beyond = sum(1 for x in latencies_ms if x > value)
    return f"latency: highest percentile with >=10 samples beyond it: p{best:g} = {value:.4f} ms " \
           f"({n} samples, {beyond} beyond)"


def _oracles():
    cache = {}

    def get(L):
        if L not in cache:
            from oracle import FockOracle

            cache[L] = FockOracle(L)
        return cache[L]

    return get


def run(args, out=print) -> dict:
    """Run one benchmark invocation; prints the report lines and returns the result object."""
    import numpy as np

    import workloads

    env = environment()
    out("env " + json.dumps(env))
    if env["blas_threads"] not in (1, None):
        raise SystemExit(f"refusing to time: BLAS runs {env['blas_threads']} threads, not 1")

    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        probe = SpeedProbe()
        setup_times = measure_setup(args, probe) if args.trace == 0 else []
        workload, _ = workloads.build(args.workload, args.seed, workdir, _oracles())
        warm_up(workload, np.random.default_rng([args.seed, 1]))
        if args.trace:
            result = _traced(workload, args, out)
        else:
            result = _timed(workload, args, probe, setup_times, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out("note: one client in a closed loop in a single thread with no queue, "
        "so there is no wait time to report")
    return result


def _summary(rows, out):
    verdicts, failures, by_kind = grade(rows)
    attempted = len(rows)
    failed = sum(1 for v in verdicts if not v.ok)
    out(f"ops: attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6f}")
    out("failures " + json.dumps(dict(sorted(failures.items()))))
    out("failures_by_kind " + json.dumps({k: dict(c) for k, c in sorted(by_kind.items())}))
    correct = not any(v.wrong for v in verdicts)
    out(f"correct {str(correct).lower()}")
    return verdicts, attempted, failed, correct


def _timed(workload, args, probe, setup_times, out) -> dict:
    import numpy as np

    rows, elapsed = timed_rounds(workload, np.random.default_rng([args.seed, 0]),
                                 args.seconds, probe)
    verdicts, attempted, failed, correct = _summary(rows, out)
    ok = sum(1 for v in verdicts if v.ok)
    signed = sum(1 for v in verdicts if v.ok and v.signed)
    raw = [1e3 * dt for _, dt, _, _ in rows]
    lat = [1e3 * dt * factor for _, dt, factor, _ in rows]
    p50, p90 = (float(np.percentile(lat, q)) for q in (50, 90))
    out(percentile_note(lat))
    out(f"time in rounds: {elapsed:.3f} s for {attempted} ops, {ok / elapsed:.4f} correct ops/s; "
        f"unscaled latency p50 {np.percentile(raw, 50):.4f} ms, p90 {np.percentile(raw, 90):.4f} ms")
    out(f"speed: timings scaled to a speed probe time of {CAL_REF_S * 1e3:g} ms; "
        f"mean factor this run {sum(lat) / sum(raw):.4f}")
    out("setup_s samples " + json.dumps(setup_times))
    metrics = {
        "throughput_ops_s": (ok / (1e-3 * sum(lat)), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "ok_frac": (ok / attempted, "ratio"),
        "signed_frac": (signed / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        out(f"{name} {value!r} {unit}")
    return _result(correct, attempted, failed, metrics)


def _traced(workload, args, out) -> dict:
    import numpy as np

    from tracing import Tracer, layer_metrics

    rounds = TRACE_ROUNDS[args.workload]

    def ops():
        gen = workload.rounds(np.random.default_rng([args.seed, 0]))
        return [op for _ in range(rounds) for op in next(gen)]

    t0 = time.perf_counter()
    execute(ops())
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    traced_ops = ops()
    undo = tracer.patch()
    try:
        t0 = time.perf_counter()
        records = execute(traced_ops)
        traced = time.perf_counter() - t0
    finally:
        tracer.unpatch(undo)
    _, attempted, failed, correct = _summary(check_rows(records), out)
    metrics = layer_metrics(tracer, [outcome for _, outcome, _, _ in records])
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    absent = sorted(set(_per_layer_names()) - set(metrics))
    if absent:
        out("absent (traced function no longer exists): " + ", ".join(absent))
    for name, (value, unit) in metrics.items():
        out(f"{name} {value!r} {unit}")
    return _result(correct, attempted, failed, metrics)


def _per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def _result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fermigauss", "__init__.py")):
        sys.stderr.write(f"error: no library sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
