"""Source hygiene: no module imports a name it never uses, and the package
defines no private function that nothing calls."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(
    path
    for folder in ("src/btcomplex", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)
PACKAGE = sorted((ROOT / "src" / "btcomplex").rglob("*.py"))


def _imported(tree):
    """Name bound by each import of the module -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Every name the module reads, including names inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_string_annotation_uses():
    source = "\n".join([
        "import os.path",
        "from fractions import Fraction as F",
        "from random import Random, choice",
        "def f(x: 'Random') -> None:",
        "    return os.path.sep",
    ])
    assert unused_imports(source) == [(2, "F"), (3, "choice")]


def _referenced(node):
    """Every name read, attribute taken or name imported inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def unreferenced_private_functions(sources: dict):
    """(module, name) of each module-level function named _private that no
    module references outside the function's own body."""
    top = [(module, node, _referenced(node))
           for module, source in sources.items() for node in ast.parse(source).body]
    return sorted(
        (module, fn.name) for module, fn, _ in top
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name.startswith("_") and not fn.name.startswith("__")
        and not any(fn.name in names for _, node, names in top if node is not fn)
    )


def test_no_unreferenced_private_functions_in_the_package():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def test_private_function_scan_sees_unreferenced_and_cross_module_uses():
    sources = {
        "a.py": "\n".join([
            "def _called(): return 1",
            "def _unused(): return 2",
            "def _recursive(n): return _recursive(n - 1) if n else 0",
            "def _imported(): return 3",
            "def _as_attribute(): return 4",
            "def __dunder__(): return 5",
            "class C:",
            "    def _method(self): return 6",
            "x = _called()",
        ]),
        "b.py": "\n".join([
            "from a import _imported",
            "import a",
            "y = a._as_attribute()",
        ]),
    }
    assert unreferenced_private_functions(sources) == [("a.py", "_recursive"), ("a.py", "_unused")]


def bare_asserts(source: str) -> int:
    """The assert statements of a module: python -O deletes every one."""
    return sum(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(source)))


def test_bare_asserts_in_the_package_are_pinned():
    # a ratchet: a check that must survive -O raises AssertionError instead;
    # lower the pin when an assert goes
    assert sum(bare_asserts(path.read_text()) for path in PACKAGE) == 17


def test_assert_scan_counts_statements_not_raises_or_strings():
    source = "\n".join([
        "assert x",
        "def f(y):",
        "    assert y, 'message'",
        "    if not y:",
        "        raise AssertionError('kept under -O')",
        "    return 'assert y'",
    ])
    assert bare_asserts(source) == 2
