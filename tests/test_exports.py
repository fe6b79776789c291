import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fermigauss
from fermigauss import cli
from fermigauss.linearpart import LinearGaussianOp

from conftest import worked_example_m

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermigauss"


def test_every_export_resolves():
    # a name left in the lazy table after its definition is deleted would
    # otherwise fail only at first use
    assert set(fermigauss.__all__) == set(fermigauss._EXPORTS) | {"__version__"}
    for name in fermigauss.__all__:
        assert getattr(fermigauss, name) is not None


def test_pair_state_overlap_is_a_lazy_export():
    # importing the package loads no formula module; the first use of the
    # name loads overlaps and resolves to its function
    code = ("import sys, fermigauss; assert 'fermigauss.overlaps' not in sys.modules; "
            "f = fermigauss.pair_state_overlap; from fermigauss import overlaps; "
            "assert f is overlaps.pair_state_overlap; print('ok')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def used_names(node) -> set:
    """Every name and attribute ``node`` reads; docstrings and other strings
    do not count."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_definition_has_a_user_outside_the_tests():
    # code that only the tests reach belongs in the tests: each public
    # module-level function or class of the package (the dense oracle aside)
    # must be used by another package definition, exported, or used by the
    # benchmark or a demo; its own body does not count
    top = [(path.name, node, used_names(node)) for path in sorted(PACKAGE.glob("*.py"))
           for node in ast.parse(path.read_text()).body]
    outside = set(fermigauss._EXPORTS)
    for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]:
        outside |= used_names(ast.parse(path.read_text()))
    unused = [
        f"{file}:{node.name}" for file, node, _ in top
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and file != "fock.py"
        and not node.name.startswith("_") and node.name not in outside
        and not any(node.name in names for _, other, names in top if other is not node)
    ]
    assert unused == []


def method_uses(node) -> tuple[set, set]:
    """The ``Class.name`` references in ``node``, as (class, name) pairs, and
    the names it calls as ``<expr>.name(``."""
    refs, calls = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            refs.add((sub.value.id, sub.attr))
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            calls.add(sub.func.attr)
    return refs, calls


def test_every_public_method_has_a_user_outside_the_tests():
    # the same rule for the public methods of public classes, properties and
    # cached properties aside: a class or static method is used when another
    # package definition, the benchmark or a demo names it as Class.name, an
    # instance method when one calls <expr>.name(, so that a field or a
    # foreign function of the same name does not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    units = [unit for tree in trees.values() for node in tree.body
             for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
    units += [ast.parse(path.read_text())
              for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]]
    uses = [(unit, *method_uses(unit)) for unit in units]
    unused = []
    for file, tree in trees.items():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)
                   and not node.name.startswith("_") and file != "fock.py"]
        for cls in classes:
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                kinds = {getattr(d, "id", None) or getattr(d, "attr", None)
                         for d in fn.decorator_list}
                if kinds & {"property", "cached_property"}:
                    continue
                bound = bool(kinds & {"classmethod", "staticmethod"})
                if not any((cls.name, fn.name) in refs if bound else fn.name in calls
                           for unit, refs, calls in uses if unit is not fn):
                    unused.append(f"{file}:{cls.name}.{fn.name}")
    assert unused == []


def package_imports(tree) -> set:
    """The package modules a module imports, relative or absolute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.startswith("fermigauss")}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "fermigauss" + ("." + node.module if node.module else "")
            elif node.module.startswith("fermigauss"):
                base = node.module
            else:
                continue
            # ``from fermigauss import x`` may name a module
            out |= {base} if base != "fermigauss" else {f"{base}.{a.name}" for a in node.names}
    return out


def test_oracle_imports_only_configs_and_linalg():
    # the dense oracle is an independent check only while it calls none of
    # the formula modules
    tree = ast.parse((PACKAGE / "fock.py").read_text())
    assert package_imports(tree) == {"fermigauss.configs", "fermigauss.linalg"}


def unused_imports(tree) -> list:
    """The names a module imports but never reads; ``__future__`` aside."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_no_unused_imports():
    # no lint step runs in CI, so this stands in for one
    found = {
        str(path.relative_to(ROOT)): names
        for folder in (PACKAGE, ROOT / "tests", ROOT / "demos")
        for path in sorted(folder.glob("*.py"))
        if (names := unused_imports(ast.parse(path.read_text())))
    }
    assert found == {}


def defaulted_parameters(tree) -> list:
    """``(callee, position, name)`` of each defaulted parameter of each
    function in ``tree``: the name a call uses (a class's for ``__init__``),
    the index among a call's positional arguments (None for keyword-only)
    and the parameter's name."""
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        params = fn.args.posonlyargs + fn.args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        if id(fn) in owner and not static:
            params = params[1:]   # self or cls, bound by the call
        callee = owner[id(fn)] if fn.name == "__init__" else fn.name
        first = len(params) - len(fn.args.defaults)
        out += [(callee, i, p.arg) for i, p in enumerate(params) if i >= first]
        out += [(callee, None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None]
    return out


def passes(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter; ``*args`` and ``**kwargs``
    count as passing every one."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if position is not None and len(call.args) > position:
        return True
    return any(k.arg in (None, name) for k in call.keywords)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    # a default that nothing but the tests overrides is a tuning knob with one
    # value in use: make it a module constant, which a test can monkeypatch
    sources = [*PACKAGE.glob("*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("demos/*.py")]
    calls: dict = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = [
        f"{path.name}:{callee}({name})"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "fock.py"
        for callee, position, name in defaulted_parameters(ast.parse(path.read_text()))
        if not any(passes(call, position, name) for call in calls.get(callee, []))
    ]
    assert never == []


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps functions and methods by name and reports
    # a metric only when all its names resolve, so a deleted or renamed one
    # would otherwise surface only in a full benchmark run
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    missing = []
    for layer, names in traced.items():
        module = importlib.import_module(f"fermigauss.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            scope = vars(getattr(module, owner, None) or object) if owner else vars(module)
            if not callable(scope.get(attr)):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_correlators_read_no_foreign_private_attribute():
    # the overlap kernel owns its chain matrix's layout: the correlators read
    # only the private attributes they define themselves (their own methods
    # and the attributes they assign), never the kernel's
    tree = ast.parse((PACKAGE / "correlators.py").read_text())
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    foreign = sorted({node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and not node.attr.startswith("__") and node.attr not in own})
    assert foreign == []


def scipy_imports(tree) -> list:
    """The enclosing top-level function of each scipy import (None outside one)."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                out.append(top.name if isinstance(top, ast.FunctionDef) else None)
    return out


def test_only_the_matrix_logarithm_imports_scipy():
    # the exponential is computed in-house; scipy, whose import dominates a
    # cold start, is loaded only by the first matrix logarithm
    found = {path.name: owners for path in sorted(PACKAGE.glob("*.py"))
             if (owners := scipy_imports(ast.parse(path.read_text())))}
    assert found == {"linalg.py": ["mat_log"]}


SCIPY_FREE = """
import json, os, sys
sys.modules["scipy"] = None          # every scipy import now raises ImportError

import numpy as np

from fermigauss import cli
from fermigauss.configs import FockConfig
from fermigauss.correlators import (CorrelatorContext, ModeOp, generalized_expectation,
                                    n_point)
from fermigauss.linearpart import LinearGaussianOp
from fermigauss.overlaps import generalized_overlap, pair_state_overlap, state_overlap
from fermigauss.quadratic import QuadraticGenerator, cp_scan, random_generator, transfer_of

workdir = sys.argv[1]
files = {name: os.path.join(workdir, name + ".json") for name in ("a", "b", "s")}
rng = np.random.default_rng(7)
g1, g2 = random_generator(3, rng, 0.8), random_generator(3, rng, 0.8)
op1 = LinearGaussianOp(g1.m, 0.5 * rng.standard_normal(3), 0.5j * rng.standard_normal(3))
op2 = LinearGaussianOp(g2.m, None, 0.5 * rng.standard_normal(3))
cli.write_operator_file(files["a"], op1)
cli.write_operator_file(files["b"], op2)
sing = QuadraticGenerator(cli.load_operator(files["s"])[0].m)
# a singular pair: a pi/2 pair rotation on sites 1, 2 plus a number term on
# site 3 as the ket operator, and a number term on site 3 as the bra's
rot, num = np.zeros((6, 6), dtype=complex), np.zeros((6, 6), dtype=complex)
rot[0, 4] = rot[3, 1] = np.pi / 2
rot[1, 3] = rot[4, 0] = -np.pi / 2
num[2, 2], num[5, 5] = 0.3 + 0.2j, -0.3 - 0.2j
files["r"], files["n"] = (os.path.join(workdir, name + ".json") for name in ("r", "n"))
cli.write_operator_file(files["r"], LinearGaussianOp(rot + 0.5 * num, None, None))
cli.write_operator_file(files["n"], LinearGaussianOp(num, None, None))
bra, ket, vac = FockConfig((1, 0, 1)), FockConfig((0, 1, 1)), FockConfig.vacuum(3)
state_overlap(g1, g2, bra, ket)
state_overlap(sing, QuadraticGenerator.zero(3), vac, vac)        # the factor chain
res = state_overlap(QuadraticGenerator(rot + 0.5 * num), QuadraticGenerator(num),
                    FockConfig((1, 1, 0)), vac)
assert res.method == "factor-chain", res.route
generalized_overlap(op1, op2, bra, ket)
n_point(CorrelatorContext(g1, g2, bra, ket), (ModeOp(1, True), ModeOp(2, False)))
generalized_expectation(CorrelatorContext(op1, op2, bra, ket),
                        (ModeOp(1, True), ModeOp(2, False), ModeOp(3, False)))
cp_scan(transfer_of(sing))
r = np.array([[0, 0.5, 0.2j], [-0.5, 0, 0.3], [-0.2j, -0.3, 0]])
pair_state_overlap(r, np.ones(3), r.T, None, op=g1)
out = ["--output", os.path.join(workdir, "report.json")]
for argv in (["overlap", "--op", files["a"], "--op2", files["b"], "--bra", "101", "--ket", "011",
              "--verify"],
             ["overlap", "--op", files["s"], "--bra", "000", "--ket", "000"],
             ["overlap", "--op", files["r"], "--op2", files["n"], "--bra", "110",
              "--ket", "000", "--verify"],
             ["correlate", "--op", files["a"], "--op2", files["b"], "--bra", "101",
              "--ket", "011", "--string", "cd1 c2 c3"],
             ["cp-scan", "--op", files["s"]]):
    assert cli.main(argv + out) == 0, argv
    if argv[2] == files["r"]:
        with open(out[1]) as fh:
            assert json.load(fh)["method"] == "factor-chain"
print("ok")
"""


def test_overlap_paths_run_without_scipy(tmp_path):
    # a fresh interpreter in which scipy cannot be imported runs the CLI
    # overlap, correlate and cp-scan commands and the public overlap and
    # correlator calls, on regular operators, on a singular operator and on
    # a singular pair (both through the factor chain), so none of them pays
    # scipy's import
    cli.write_operator_file(str(tmp_path / "s.json"),
                            LinearGaussianOp(worked_example_m(np.pi / 2), None, None))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
