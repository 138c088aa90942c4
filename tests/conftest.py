import pytest

from coxvol.corpus import load
from coxvol.poly_model import AbstractPolyhedron


def _loebell(n):
    """L(n): an n-gon, a ring of 2n pentagons, and a second n-gon."""
    t, u, w, s = (lambda i, k=k: k * n + i % n for k in range(4))
    faces = [tuple(t(i) for i in range(n))]
    faces += [(t(i), t(i + 1), u(i + 1), w(i), u(i)) for i in range(n)]
    faces += [(w(i), u(i + 1), w(i + 1), s(i + 1), s(i)) for i in range(n)]
    faces.append(tuple(s(i) for i in reversed(range(n))))
    return AbstractPolyhedron(name=f"L{n}", faces=tuple(faces))


@pytest.fixture(scope="session")
def loebell():
    """The builder of the Loebell polyhedra L(n), n >= 5."""
    return _loebell


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
