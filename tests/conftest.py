import importlib.util
from pathlib import Path

import numpy as np
import pytest

from couplednet.couplers import linear_synthesis, nonlinear_integrator, reconfigured
from couplednet.netgraph import build_graph
from couplednet.plants import linear_agent
from couplednet.relations import quadratic


def rand_orth(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def rand_spd(rng, k, lo=0.5, hi=2.0):
    q = rand_orth(rng, k)
    return q @ np.diag(rng.uniform(lo, hi, k)) @ q.T


def rand_connected_graph(rng, n):
    """Spanning tree plus a few random extra edges."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        a, b = rng.choice(n, size=2, replace=False)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((int(a), int(b)))
    return build_graph(n, edges)


def meicmp_linear_agent(rng, d, anchor=None, T=None):
    """Stable linear agent with symmetric positive-definite dc gain.

    A = -R with R spd and C = B' gives S = B' R^-1 B + T, which is spd
    whenever B is invertible and the feedthrough T is symmetric PSD.
    """
    R = rand_spd(rng, d, 0.6, 1.8)
    while True:
        B = rng.normal(size=(d, d))
        if abs(np.linalg.det(B)) > 0.2:
            break
    w = np.zeros(d) if anchor is None else R @ np.linalg.solve(B.T, anchor)
    # w chosen so that y = anchor at u = 0: y = B'R^-1(Bu + w)
    return linear_agent(-R, B, B.T, T=T, w=w)


def bench_integrate():
    """The benchmarks/bench_integrate.py module (not an importable package)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_integrate.py"
    spec = importlib.util.spec_from_file_location("bench_integrate", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def mixed_network(seed):
    """3 oscillator nodes, d = 2, on a triangle: edge 0 a saturating
    integrator, edges 1 and 2 linear synthesis with random offsets."""
    small = bench_integrate().build_system(3, seed=seed)
    offsets = np.random.default_rng(seed).normal(0.0, 0.5, size=(2, 2))
    ctrls = [small.controllers[0]] + [linear_synthesis(off) for off in offsets]
    return build_graph(3, small.graph.edges[:3]), small.agents, ctrls


def anchored_network(seed, scale, reconfigure=True):
    """2-5 MEICMP linear agents, d = 1-2, anchored at scale * N(0, 1).

    A random half of the edges (the first always, the last never) are
    quadratic integrators, the rest linear synthesis. With reconfigure,
    each integrator is pinned at alpha ~ scale * N(0, 1) instead of 0.
    """
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 6)), int(rng.integers(1, 3))
    graph = rand_connected_graph(rng, n)
    agents = [meicmp_linear_agent(rng, d, anchor=scale * rng.normal(size=d)) for _ in range(n)]
    integ = rng.random(graph.edge_count) < 0.5
    integ[0] = True
    if graph.edge_count > 1:
        integ[-1] = False
    integrator = nonlinear_integrator(quadratic(np.eye(d)))
    ctrls = []
    for i in integ:
        if not i:
            ctrls.append(linear_synthesis(rng.normal(size=d)))
        elif reconfigure:
            ctrls.append(reconfigured(integrator, scale * rng.normal(size=d), np.zeros(d)))
        else:
            ctrls.append(integrator)
    return graph, agents, ctrls


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def two_node_graph():
    return build_graph(2, [(0, 1)])


@pytest.fixture
def diamond_graph():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
