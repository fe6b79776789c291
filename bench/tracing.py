"""Per-layer tracing by wrapping the library's public functions at run time.

``Tracer.patched()`` replaces each traced function with a wrapper in its home
module, in every ``fermigauss`` module that imported it by name, or on its
class, and restores the originals on exit.  ``src/`` is never edited.  The
dense oracle module ``fock`` is never wrapped.

A wrapper records a span: calls, wall time and self time (its duration minus
the time covered by the traced calls it made).  Spans are aggregated in
memory per name as they close.  A function that no longer exists is skipped,
and every metric that needs it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass

#: traced callables per layer; "Class.method" names a method
TRACED = {
    "linalg": ("mat_exp", "mat_log", "pfaffian", "rcond_estimate",
               "sqrt_det_continuous", "sqrt_det_via_log"),
    "quadratic": ("transfer_of", "bbd_normal", "bbd_antinormal", "cp_scan"),
    "linearpart": ("embed", "generalized_bbd"),
    "overlaps": ("OverlapKernel.__init__", "OverlapKernel.element",
                 "_epsilon_extrapolate", "overlap_magnitude_cp"),
    "correlators": ("CorrelatorContext.__init__", "_Engine.__init__", "_Engine.element",
                    "_Engine.one_point", "_Engine.two_point", "_Engine.n_point",
                    "_Engine._wick_even", "_Engine.string_element", "_Engine._odd_reduction"),
    "cli": ("main", "load_operator", "emit", "build_parser"),
}

ENGINE_EXPANSION = ("correlators._Engine.element", "correlators._Engine.one_point",
                    "correlators._Engine.two_point", "correlators._Engine.n_point",
                    "correlators._Engine._wick_even", "correlators._Engine.string_element",
                    "correlators._Engine._odd_reduction")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: float = 0.0     # per-function count: Pfaffian order, det path points, scan entries
    useful: int = 0        # cp scans that found a restoring subset; kernel elements under the cache


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.present: set[str] = set()
        self._stack: list[list] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        pre = _PRE_HOOKS.get(name)
        post = _POST_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if pre is not None:
                args = pre(stats, stack, args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total += dur
                stats.self_time += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(stats, result)
            return result

        return wrapped

    def patch(self):
        """Install the wrappers; returns the list of (owner, attribute, original) to restore."""
        undo = []
        modules = [m for key, m in list(sys.modules.items())
                   if key.startswith("fermigauss.") and key != "fermigauss.fock" and m is not None]
        for layer, names in TRACED.items():
            try:
                home = importlib.import_module(f"fermigauss.{layer}")
            except ImportError:
                continue
            for attr in names:
                span = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        continue
                    setattr(cls, meth, self._wrap(span, orig))
                    undo.append((cls, meth, orig))
                else:
                    orig = getattr(home, attr, None)
                    if orig is None:
                        continue
                    wrapped = self._wrap(span, orig)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapped)
                                undo.append((mod, key, orig))
                self.present.add(span)
        return undo

    @staticmethod
    def unpatch(undo) -> None:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def _pfaffian_pre(stats, stack, args):
    stats.extra += len(args[0])
    return args


def _continuity_pre(stats, stack, args):
    mat_at = args[0]

    def counted(s):
        stats.extra += 1
        return mat_at(s)

    return (counted,) + tuple(args[1:])


def _kernel_element_pre(stats, stack, args):
    if stack and stack[-1][0] == "correlators._Engine.element":
        stats.useful += 1   # a cache miss of the correlator engine
    return args


def _cp_scan_post(stats, result):
    stats.extra += len(result)
    if any(e.t22_invertible for e in result):
        stats.useful += 1


_PRE_HOOKS = {
    "linalg.pfaffian": _pfaffian_pre,
    "linalg.sqrt_det_continuous": _continuity_pre,
    "overlaps.OverlapKernel.element": _kernel_element_pre,
}
_POST_HOOKS = {"quadratic.cp_scan": _cp_scan_post}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def result_method(outcome) -> str | None:
    """Route of an overlap outcome: ``OverlapResult.method`` or a CLI report's method."""
    method = getattr(outcome, "method", None)
    if isinstance(method, str):
        return method
    if isinstance(outcome, tuple) and len(outcome) == 2 and outcome[0] == 0:
        try:
            doc = json.loads(outcome[1])
        except ValueError:
            return None
        if doc.get("command") == "overlap":
            return doc.get("method")
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes) -> dict[str, tuple[float, str]]:
    """Per-op metrics of one traced pass; metrics whose functions are gone are omitted."""
    ops = len(outcomes)
    st = tracer.stats
    methods = [m for m in map(result_method, outcomes) if m is not None]
    results = len(methods)

    def calls(name):
        return st[name].calls

    def ms(name):
        return 1e3 * st[name].total

    def self_ms(name):
        return 1e3 * st[name].self_time

    specs = [
        ("linalg.expm_calls_per_op", "count", ["linalg.mat_exp"],
         lambda: calls("linalg.mat_exp") / ops),
        ("linalg.expm_ms_per_op", "ms", ["linalg.mat_exp"], lambda: ms("linalg.mat_exp") / ops),
        ("linalg.det_path_points_per_op", "count", ["linalg.sqrt_det_continuous"],
         lambda: st["linalg.sqrt_det_continuous"].extra / ops),
        ("linalg.sign_tracking_self_ms_per_op", "ms", ["linalg.sqrt_det_continuous"],
         lambda: self_ms("linalg.sqrt_det_continuous") / ops),
        ("linalg.pfaffian_calls_per_op", "count", ["linalg.pfaffian"],
         lambda: calls("linalg.pfaffian") / ops),
        ("linalg.pfaffian_ms_per_op", "ms", ["linalg.pfaffian"], lambda: ms("linalg.pfaffian") / ops),
        ("linalg.pfaffian_mean_order", "count", ["linalg.pfaffian"],
         lambda: _ratio(st["linalg.pfaffian"].extra, calls("linalg.pfaffian"))),
        ("linalg.rcond_calls_per_op", "count", ["linalg.rcond_estimate"],
         lambda: calls("linalg.rcond_estimate") / ops),
        ("linalg.rcond_ms_per_op", "ms", ["linalg.rcond_estimate"],
         lambda: ms("linalg.rcond_estimate") / ops),
        ("linalg.logm_calls_per_op", "count", ["linalg.mat_log"], lambda: calls("linalg.mat_log") / ops),
        ("linalg.logm_ms_per_op", "ms", ["linalg.mat_log"], lambda: ms("linalg.mat_log") / ops),
        ("quadratic.transfer_of_calls_per_op", "count", ["quadratic.transfer_of"],
         lambda: calls("quadratic.transfer_of") / ops),
        ("quadratic.transfer_of_ms_per_op", "ms", ["quadratic.transfer_of"],
         lambda: ms("quadratic.transfer_of") / ops),
        ("quadratic.bbd_ms_per_op", "ms", ["quadratic.bbd_normal", "quadratic.bbd_antinormal"],
         lambda: (ms("quadratic.bbd_normal") + ms("quadratic.bbd_antinormal")) / ops),
        ("quadratic.cp_scan_ms_per_op", "ms", ["quadratic.cp_scan"], lambda: ms("quadratic.cp_scan") / ops),
        ("quadratic.cp_scan_entries_per_call", "count", ["quadratic.cp_scan"],
         lambda: _ratio(st["quadratic.cp_scan"].extra, calls("quadratic.cp_scan"))),
        ("quadratic.cp_scan_useful_ratio", "ratio", ["quadratic.cp_scan"],
         lambda: _ratio(st["quadratic.cp_scan"].useful, st["quadratic.cp_scan"].extra)),
        ("linearpart.embed_calls_per_op", "count", ["linearpart.embed"],
         lambda: calls("linearpart.embed") / ops),
        ("linearpart.embed_ms_per_op", "ms", ["linearpart.embed"], lambda: ms("linearpart.embed") / ops),
        ("linearpart.generalized_bbd_ms_per_op", "ms", ["linearpart.generalized_bbd"],
         lambda: ms("linearpart.generalized_bbd") / ops),
        ("overlaps.kernel_builds_per_op", "count", ["overlaps.OverlapKernel.__init__"],
         lambda: calls("overlaps.OverlapKernel.__init__") / ops),
        ("overlaps.kernel_build_self_ms_per_op", "ms", ["overlaps.OverlapKernel.__init__"],
         lambda: self_ms("overlaps.OverlapKernel.__init__") / ops),
        ("overlaps.element_calls_per_op", "count", ["overlaps.OverlapKernel.element"],
         lambda: calls("overlaps.OverlapKernel.element") / ops),
        ("overlaps.element_self_ms_per_op", "ms", ["overlaps.OverlapKernel.element"],
         lambda: self_ms("overlaps.OverlapKernel.element") / ops),
        ("overlaps.route_pfaffian_frac", "ratio", [],
         lambda: _ratio(methods.count("pfaffian"), results)),
        ("overlaps.route_epsilon_frac", "ratio", [],
         lambda: _ratio(methods.count("epsilon-regularized"), results)),
        ("overlaps.route_cp_magnitude_frac", "ratio", [],
         lambda: _ratio(methods.count("cp-magnitude"), results)),
        ("overlaps.rescue_attempts_per_result", "count",
         ["overlaps._epsilon_extrapolate", "overlaps.overlap_magnitude_cp"],
         lambda: _ratio(calls("overlaps._epsilon_extrapolate")
                        + calls("overlaps.overlap_magnitude_cp"), results)),
        ("overlaps.epsilon_ms_per_op", "ms", ["overlaps._epsilon_extrapolate"],
         lambda: ms("overlaps._epsilon_extrapolate") / ops),
        ("correlators.engine_builds_per_op", "count", ["correlators._Engine.__init__"],
         lambda: calls("correlators._Engine.__init__") / ops),
        ("correlators.values_per_context", "count", ["correlators.CorrelatorContext.__init__"],
         lambda: _ratio(ops, calls("correlators.CorrelatorContext.__init__"))),
        ("correlators.element_cache_hit_ratio", "ratio",
         ["correlators._Engine.element", "overlaps.OverlapKernel.element"],
         lambda: _ratio(calls("correlators._Engine.element")
                        - st["overlaps.OverlapKernel.element"].useful,
                        calls("correlators._Engine.element"))),
        ("correlators.expansion_self_ms_per_op", "ms", list(ENGINE_EXPANSION),
         lambda: sum(self_ms(n) for n in ENGINE_EXPANSION) / ops),
        ("cli.load_operator_ms_per_op", "ms", ["cli.load_operator"],
         lambda: ms("cli.load_operator") / ops),
        ("cli.report_ms_per_op", "ms", ["cli.emit"], lambda: ms("cli.emit") / ops),
        ("cli.compute_frac", "ratio", ["cli.main", "cli.load_operator", "cli.emit", "cli.build_parser"],
         lambda: _ratio(ms("cli.main") - ms("cli.load_operator") - ms("cli.emit")
                        - ms("cli.build_parser"), ms("cli.main"))),
    ]
    out = {}
    for name, unit, needs, fn in specs:
        if all(n in tracer.present for n in needs):
            out[name] = (float(fn()), unit)
    return out


#: per-layer metrics that count work and must repeat exactly under a fixed seed
EXACT_COUNTS = (
    "linalg.expm_calls_per_op", "linalg.det_path_points_per_op", "linalg.pfaffian_calls_per_op",
    "linalg.pfaffian_mean_order", "linalg.rcond_calls_per_op", "linalg.logm_calls_per_op",
    "quadratic.transfer_of_calls_per_op", "quadratic.cp_scan_entries_per_call",
    "quadratic.cp_scan_useful_ratio", "linearpart.embed_calls_per_op",
    "overlaps.kernel_builds_per_op", "overlaps.element_calls_per_op",
    "overlaps.route_pfaffian_frac", "overlaps.route_epsilon_frac",
    "overlaps.route_cp_magnitude_frac", "overlaps.rescue_attempts_per_result",
    "correlators.engine_builds_per_op", "correlators.values_per_context",
    "correlators.element_cache_hit_ratio",
)
