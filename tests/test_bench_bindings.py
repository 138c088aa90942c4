"""The benchmark's tracer rebinds coxvol functions by name from outside
the package; every name it lists must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

pytestmark = pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ in this checkout")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, path):
    owner = importlib.import_module(mod_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def test_every_binding_resolves(tracing):
    for mod_name, path, layer in tracing.BINDINGS:
        assert layer in tracing.LAYERS
        owner, attr = _resolve(mod_name, path)
        assert callable(getattr(owner, attr, None)), f"{mod_name}.{path}"


def test_install_wraps_and_close_restores(tracing):
    originals = [getattr(*_resolve(m, p)) for m, p, _ in tracing.BINDINGS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [getattr(*_resolve(m, p)) for m, p, _ in tracing.BINDINGS]
    finally:
        tracer.close()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert [getattr(*_resolve(m, p)) for m, p, _ in tracing.BINDINGS] == originals
