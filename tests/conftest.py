import ast
from pathlib import Path

import pytest

from coxvol import corpus
from coxvol.corpus import load
from coxvol.poly_model import AbstractPolyhedron


@pytest.fixture(scope="session")
def loebell():
    """``coxvol.corpus.loebell``, the builder of the Loebell polyhedra L(n)."""
    return corpus.loebell


@pytest.fixture(scope="session")
def prism():
    """The builder of the n-prism: the n-gons 0 and n + 1 and the ring of
    quadrilaterals 1..n between them, n-gon 0 on vertices 0..n - 1."""
    def build(n):
        quads = tuple((i, n + i, n + (i + 1) % n, (i + 1) % n) for i in range(n))
        return AbstractPolyhedron(name=f"prism{n}", faces=(tuple(range(n)), *quads,
                                                           tuple(range(2 * n - 1, n - 1, -1))))

    return build


@pytest.fixture(scope="session")
def tetrahedron():
    return load("tetrahedron")


@pytest.fixture(scope="session")
def cube_all2():
    return load("cube_all2")


@pytest.fixture(scope="session")
def lambert_cube():
    return load("lambert_cube")


@pytest.fixture(scope="session")
def triangular_prism():
    return load("triangular_prism")


@pytest.fixture(scope="session")
def pyramid():
    return load("pyramid")


@pytest.fixture(scope="session")
def imported_modules():
    """The modules a coxvol module's source imports, anywhere in it, even
    inside a function: each module, and each name imported from one as
    ``module.name``, relative imports under ``coxvol``."""
    def imported(module):
        found = set()
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                name = ".".join(filter(None, ["coxvol" if node.level else "", node.module]))
                found.update([name, *(f"{name}.{a.name}" for a in node.names)])
            elif isinstance(node, ast.Import):
                found.update(a.name for a in node.names)
        return found

    return imported
