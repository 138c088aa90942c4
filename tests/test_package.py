"""Package-level properties."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import coxvol


# In a fresh interpreter: the numeric modules loaded after the import,
# after the combinatorial stages on a bundled polyhedron, in the library
# and on the command line, and after the first numeric name resolves.
LOADED_BY_STAGE = """
import contextlib, io, sys

def loaded(stage):
    print(stage, *sorted(m for m in ("numpy", "scipy") if m in sys.modules))

import coxvol
loaded("import")
from coxvol import cli
lp = coxvol.parse_polyhedron(coxvol.serialize_polyhedron(coxvol.load("cube_all2")))
assert coxvol.validate(lp.base).passed
coxvol.check(lp)
coxvol.circuits_up_to(lp.base)
coxvol.classify(lp.base)
loaded("library")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["check", "cube_all2"]) == cli.EXIT_REJECTED
    assert cli.main(["classify", "cube_all2"]) == cli.EXIT_OK
loaded("cli")
coxvol.realize
loaded("realize")
assert [getattr(coxvol, m).__name__ for m in coxvol._LAZY] == [f"coxvol.{m}" for m in coxvol._LAZY]
"""


def test_import_does_not_load_scipy():
    # importing scipy.integrate alone takes most of a second, and numpy
    # most of a CLI call's time, which every CLI call and the benchmark's
    # set-up time would pay; only the numeric stages load numpy
    src = str(Path(coxvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", LOADED_BY_STAGE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["import", "library", "cli", "realize numpy"]


# imported names a module keeps without using them: the benchmark's
# tracer rebinds haken.circuits_up_to and andreev.enumerate_circuits by name
UNUSED_IMPORTS_ALLOWED = {("haken", "circuits_up_to"), ("andreev", "enumerate_circuits")}


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports():
    package = Path(coxvol.__file__).resolve().parent
    unused = {(path.stem, name)
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert unused <= UNUSED_IMPORTS_ALLOWED, sorted(unused - UNUSED_IMPORTS_ALLOWED)


def test_exports_resolve():
    # __all__ lists exactly the public names the package imports or loads
    # on first use, once each
    tree = ast.parse(Path(coxvol.__file__).read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    lazy = set(coxvol._LAZY_MODULE)
    assert all(hasattr(coxvol, name) for name in coxvol.__all__)
    assert len(set(coxvol.__all__)) == len(coxvol.__all__)
    assert not imported & lazy
    assert set(coxvol.__all__) == {name for name in imported if not name.startswith("_")} | lazy


def _private_definitions(tree: ast.Module):
    """The ``_``-prefixed module-level functions and classes of a module,
    and the ``_``-prefixed methods of its module-level classes; dunders,
    which Python calls by protocol, are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, kinds))
        if isinstance(node, kinds):
            yield node


def _references(node: ast.AST) -> Counter:
    """Every name read and attribute looked up under ``node``, counted."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_private_helpers_have_callers():
    # ROADMAP: code that nothing uses is deleted; a private helper that
    # only its own body or the tests refer to is such code
    package = Path(coxvol.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))]
    refs = sum(map(_references, trees), Counter())
    uncalled = sorted(node.name for tree in trees for node in _private_definitions(tree)
                      if node.name.startswith("_") and not node.name.endswith("__")
                      and refs[node.name] <= _references(node)[node.name])
    assert not uncalled, uncalled
