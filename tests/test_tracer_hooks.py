"""The benchmark's tracer finds every function it wraps, and puts each back.

perfbench/tracer.py looks couplednet's functions up by module and name, so
renaming or deleting one of them breaks the benchmark, not the package.
These tests load the tracer as it is and check its hooks against the package.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import couplednet
import couplednet.cli  # noqa: F401  (binds names the tracer replaces)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooks(tracer):
    return [(modname, attr) for modname, attr, _, _ in tracer.TRACED] + [
        (tracer.RHS_MODULE, tracer.RHS_ATTR)]


def test_every_traced_name_resolves(tracer):
    assert tracer.PACKAGE == couplednet.__name__
    for modname, attr in hooks(tracer):
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        assert callable(getattr(module, attr, None)), f"{modname}.{attr}"


def package_namespaces(tracer):
    """Each couplednet module's attributes, as (module, name) -> object."""
    return {(name, key): val for name, mod in list(sys.modules.items())
            if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")
            for key, val in vars(mod).items()}


def test_install_then_uninstall_restores_every_attribute(tracer):
    before = package_namespaces(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        assert t.rhs_hooked
        for modname, attr in hooks(tracer):
            module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
            assert getattr(module, attr) is not before[(module.__name__, attr)], attr
    finally:
        t.uninstall()
    after = package_namespaces(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
