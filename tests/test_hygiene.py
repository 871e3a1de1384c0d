"""Source hygiene: no module imports a name it never uses, the package
defines no private function that nothing calls, no parameter that its
function never reads and no bare assert, the benchmark tracer reads only
names the package defines, each old text of the mutant table occurs once
and pytest collects each test it names, and the residue-cell oracle imports
nothing private from the package."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import mutants
from test_cli import ENV

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


def ignored_parameters(source: str):
    """(function, parameter) for each parameter a function's body never reads;
    self, cls and _-prefixed names are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                      if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            out += [(fn.name, name) for name in params
                    if name not in read and name not in ("self", "cls") and not name.startswith("_")]
    return out


def test_no_package_function_ignores_a_parameter():
    # a parameter nothing reads is a knob that does nothing
    found = {str(path.relative_to(ROOT)): ignored_parameters(path.read_text()) for path in PACKAGE}
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_parameter_scan_sees_an_ignored_parameter_and_exempts_self():
    source = "\n".join([
        "def f(a, b): return a",
        "def g(x, *rest, key=None, **extra): return [x, rest, key, extra]",
        "def h(_unused, y): return lambda: y",
        "class C:",
        "    def m(self, z): return 1",
        "    @classmethod",
        "    def n(cls, w): return w",
    ])
    assert ignored_parameters(source) == [("f", "b"), ("m", "z")]


def bare_asserts(source: str) -> int:
    """The assert statements of a module: python -O deletes every one."""
    return sum(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(source)))


def test_bare_asserts_in_the_package_are_pinned():
    # a check that must survive -O raises AssertionError instead
    assert sum(bare_asserts(path.read_text()) for path in PACKAGE) == 0


def test_package_checks_survive_python_O():
    # a registry at level 0, the root's parent and an edge from a vertex to
    # itself each raise, even with asserts stripped
    script = "\n".join([
        "from btcomplex.orbits import build_registry",
        "from btcomplex.padics import PadicConfig",
        "from btcomplex.tree import OrientedEdge, Vertex",
        "v0 = Vertex.root(3)",
        "for attempt in (lambda: build_registry(PadicConfig(3, 12), 1, 0),",
        "                v0.parent, lambda: OrientedEdge(v0, v0)):",
        "    try:",
        "        attempt()",
        "    except AssertionError as exc:",
        "        print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "need n >= 0 and k >= 1, got n=1, k=0",
        "the root has no parent",
        "endpoints are not adjacent",
    ]


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


def _bench_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _KeyRecorder(dict):
    """A dict that records the key of every .get, in a shared set per role."""

    def __init__(self, seen, role, **items):
        super().__init__(items)
        self.seen, self.role = seen, role

    def get(self, key, default=None):
        self.seen.add((self.role, key))
        return super().get(key, default)


def test_benchmark_tracer_reads_only_names_the_package_defines():
    # a name the package drops reads 0 in the benchmark, silently; every span
    # layer_metrics reads must be one the Tracer installs, every counted
    # method must exist, and every snapshot field it reads must be one
    # Tracer.snapshot writes
    tracer = _bench_tracer()
    spans = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"btcomplex.{layer}")
        names = [name for name, _ in tracer._public_functions(module)]
        names += [name for name in tracer.EXTRA_FUNCTIONS.get(layer, ()) if hasattr(module, name)]
        spans |= {f"{layer}.{name}" for name in names}
    spans |= {span for module, cls, meth, span in tracer.METHODS
              if meth in vars(getattr(importlib.import_module(f"btcomplex.{module}"), cls))}
    for module, cls, meth in tracer.COUNTED_METHODS.values():
        assert meth in vars(getattr(importlib.import_module(f"btcomplex.{module}"), cls)), (cls, meth)

    seen = set()
    snapshot = tracer.Tracer("counts").snapshot()
    fields = {key: _KeyRecorder(seen, key) for key, value in snapshot.items() if isinstance(value, dict)}
    tracer.layer_metrics(_KeyRecorder(seen, "spans", **fields), _KeyRecorder(seen, "counts", **fields))
    read = {role: {key for r, key in seen if r == role} for role, _ in seen}
    assert read["spans"] | read["counts"] <= set(snapshot)
    assert read["counted"] == set(tracer.COUNTED_METHODS)
    assert read["layer_self_s"] <= set(tracer.LAYERS)
    # projline.ball_cells left the package; the benchmark still reads it
    assert (read["calls"] | read["inclusive_s"]) - spans == {"projline.ball_cells"}


def imported_modules(source: str):
    """The top-level name of every module a source imports, at any depth of
    its body; relative imports count by their package-local name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.split(".")[0])
    return out


def test_import_scan_sees_nested_and_relative_imports():
    source = "\n".join([
        "import os.path",
        "from dataclasses import dataclass",
        "def f():",
        "    from .chains import restrict",
        "    import json",
    ])
    assert imported_modules(source) == {"os", "dataclasses", "chains", "json"}


def test_no_package_module_imports_dataclasses():
    # dataclasses, with the inspect, ast and dis it loads, cost a fresh CLI
    # process more than the rest of its imports together
    assert [str(path.relative_to(ROOT)) for path in PACKAGE
            if "dataclasses" in imported_modules(path.read_text())] == []


def test_cli_import_adds_neither_dataclasses_nor_chains():
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import btcomplex.cli",
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ])
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    added = set(r.stdout.split())
    assert "btcomplex.orbits" in added
    assert not added & {"dataclasses", "btcomplex.chains"}


def test_only_the_chain_commands_load_chains():
    # tree, orbits, minimal and counts run without the chain complex; matrix
    # loads it on demand
    script = "\n".join([
        "import contextlib, io, sys",
        "from btcomplex.cli import main",
        "for command in ('tree', 'orbits', 'minimal', 'counts', 'matrix'):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        rc = main([command, '--p', '3', '--n', '1', '--d', '0'])",
        "    print(command, rc, 'btcomplex.chains' in sys.modules)",
    ])
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "tree 0 False", "orbits 0 False", "minimal 0 False", "counts 0 False", "matrix 0 True",
    ]


def test_each_mutant_changes_one_exact_text():
    # the mutant table (tests/mutants.py) stays applicable: each old text
    # occurs exactly once in its file.  Running the mutants is a separate
    # command, python tests/mutants.py
    assert mutants.MUTANTS
    for name, path, old, new, tests in mutants.MUTANTS:
        assert old != new and tests, name
        assert (ROOT / path).read_text().count(old) == 1, name


def uncollected(ids):
    """The node ids among ids that pytest, run from the repository root,
    does not collect."""
    r = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
                       cwd=ROOT, capture_output=True, text=True, env=ENV)
    return sorted(set(ids) - set(r.stdout.splitlines()))


def test_each_mutant_names_only_tests_that_exist():
    # a renamed or deleted killer would leave the mutant unkillable, unseen
    # until the mutants run
    assert uncollected(sorted({t for *_, tests in mutants.MUTANTS for t in tests})) == []


def test_uncollected_names_a_missing_test():
    real = "tests/test_hygiene.py::test_uncollected_names_a_missing_test"
    missing = "tests/test_hygiene.py::test_that_does_not_exist"
    assert uncollected([real]) == []
    assert missing in uncollected([real, missing])


def private_package_imports(source: str):
    """(line, name) of each "_"-prefixed name imported from btcomplex, or
    read as an attribute of a name bound by an import of btcomplex."""
    tree = ast.parse(source)
    out = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "btcomplex":
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append((node.lineno, alias.name))
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name.split(".")[0]
                        for alias in node.names if alias.name.split(".")[0] == "btcomplex"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                out.append((node.lineno, node.attr))
    return sorted(out)


def test_residue_cell_oracle_imports_nothing_private_from_the_package():
    # the oracle keeps its own copy of every formula it checks the package
    # against, so it never calls the code it checks
    assert private_package_imports((ROOT / "tests" / "residue_cells.py").read_text()) == []


def test_private_import_scan_sees_from_imports_and_module_attributes():
    source = "\n".join([
        "from btcomplex.projline import Ball, _inside",
        "from btcomplex import tree as t",
        "import btcomplex.orbits",
        "from random import _inst",
        "x = t._lca_depth, t.path, btcomplex.orbits._orbit_cells",
    ])
    assert private_package_imports(source) == [(1, "_inside"), (5, "_lca_depth"), (5, "_orbit_cells")]
