import pytest

from coxvol import corpus
from coxvol.corpus import load


@pytest.fixture(scope="session")
def loebell():
    """``coxvol.corpus.loebell``, the builder of the Loebell polyhedra L(n)."""
    return corpus.loebell


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
