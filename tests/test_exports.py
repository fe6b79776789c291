import ast
from pathlib import Path

import fermigauss

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fermigauss"


def test_every_export_resolves():
    # a name left in the lazy table after its definition is deleted would
    # otherwise fail only at first use
    assert set(fermigauss.__all__) == set(fermigauss._EXPORTS) | {"__version__"}
    for name in fermigauss.__all__:
        assert getattr(fermigauss, name) is not None


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
