"""The benchmark's tracer finds every function it wraps, and puts each back;
the benchmark's workloads find every name they read.

perfbench/tracer.py looks couplednet's functions up by module and name, and
perfbench/workloads.py reads module attributes, so renaming or deleting one
of them breaks the benchmark, not the package. These tests load the tracer
as it is and check its hooks against the package, and read the workloads'
source for the names they use.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import couplednet
import couplednet.cli  # noqa: F401  (binds names the tracer replaces)
from couplednet import netopt
from couplednet.netgraph import build_graph, incidence

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


WORKLOADS = TRACER.parent / "workloads.py"


def couplednet_chains(tree):
    """(module, attribute chain) of each couplednet name the workloads read:
    `from couplednet import m` then m.a.b, and `from couplednet.m import a`."""
    modules, chains = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "couplednet":
            modules.update({a.asname or a.name: f"couplednet.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("couplednet."):
            chains += [(node.module, [a.name]) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(getattr(node, "ctx", None),
                                                               ast.Store):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                chains.append((modules[base.id], chain))
    return chains


def test_every_couplednet_name_the_workloads_read_resolves():
    chains = couplednet_chains(ast.parse(WORKLOADS.read_text()))
    assert ("couplednet.netopt", ["SolveOptions"]) in chains
    for module, chain in chains:
        obj = importlib.import_module(module)
        for attr in chain:
            assert hasattr(obj, attr), f"{module}.{'.'.join(chain)}"
            obj = getattr(obj, attr)


def test_what_the_workloads_build_still_builds():
    opts = netopt.SolveOptions(tol=1e-9, max_iter=50)
    assert (opts.tol, opts.max_iter) == (1e-9, 50)
    graph = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    base = np.zeros((4, 5))
    for k, (tail, head) in enumerate(graph.edges):
        base[tail, k], base[head, k] = -1.0, 1.0
    for d in (1, 2, 3):
        assert np.array_equal(incidence(graph, d).lifted, np.kron(base, np.eye(d)))
