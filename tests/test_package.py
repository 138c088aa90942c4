"""Package-level properties."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import coxvol


def test_import_does_not_load_scipy():
    # importing scipy.integrate alone takes most of a second, which every
    # CLI call and the benchmark's set-up time would pay
    src = str(Path(coxvol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import coxvol, sys; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


# imported names a module keeps without using them: the benchmark's
# tracer rebinds haken.circuits_up_to by name
UNUSED_IMPORTS_ALLOWED = {("haken", "circuits_up_to")}


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
    # __all__ lists exactly the public names the package imports, once each
    tree = ast.parse(Path(coxvol.__file__).read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert all(hasattr(coxvol, name) for name in coxvol.__all__)
    assert len(set(coxvol.__all__)) == len(coxvol.__all__)
    assert set(coxvol.__all__) == {name for name in imported if not name.startswith("_")}
