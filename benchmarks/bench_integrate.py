"""Wall time of one closed-loop integration on a ring with chords.

For each --nodes size, builds a ring-with-chords oscillator network with
saturating-integrator edge controllers, integrates it once untimed (a
warm-up) and then REPEAT times, and reports the best and the median wall
time, the number of rhs evaluations and the time per rhs evaluation. It
then times one packed rhs call alone with W dense and with W as its COO
triple, and names the side the size takes (dense when W has at most
DENSE_MAX entries), so the crossover can be measured again on another
host.

Usage:
    python3 benchmarks/bench_integrate.py [--nodes 8 12 16 32] [--horizon 20]
"""

import argparse
import dataclasses
import statistics
import time
import timeit

import numpy as np

from couplednet import _fastpath
from couplednet.couplers import nonlinear_integrator, paper_psi, PSI_RANGE
from couplednet.netgraph import build_graph
from couplednet.plants import damped_oscillator_agent
from couplednet.relations import quadratic, scalar_separable
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 default_initial_state, integrate)

REPEAT = 3  # timed integrations; the best of at least three is reported


def build_system(nodes: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    d = 2
    edges = [(i, (i + 1) % nodes) for i in range(nodes)]
    edges += [(i, (i + nodes // 2) % nodes) for i in range(0, nodes, 4)]
    graph = build_graph(nodes, edges)

    def orth():
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        return q * np.sign(np.diag(r))

    agents = []
    for _ in range(nodes):
        U, V = orth(), orth()
        M = U @ np.diag(rng.uniform(18.0, 22.0, d)) @ V.T
        Q = orth()
        S = Q @ np.diag(rng.uniform(35.0, 45.0, d)) @ Q.T
        R = orth()
        D = R @ np.diag(rng.uniform(170.0, 190.0, d)) @ R.T
        anchor = rng.normal(0.0, 0.5, d)
        agents.append(damped_oscillator_agent(M, M.T @ S, psi=quadratic(D),
                                              anchor=anchor))
    pot = scalar_separable(paper_psi, d, PSI_RANGE)
    ctrls = [nonlinear_integrator(pot) for _ in range(graph.edge_count)]
    return closed_loop(graph, agents, ctrls)


def rhs_us(pk, s):
    """Best time of one _packed_rhs call at s on pk, in microseconds."""
    v, out = _fastpath.rhs_buffer(pk), np.empty(pk.dim)
    v[:pk.dim] = s
    timer = timeit.Timer(lambda: _fastpath._packed_rhs(v, pk, out))
    number, _ = timer.autorange()
    return min(timer.repeat(REPEAT, number)) / number * 1e6


def bench(nodes, horizon):
    system = build_system(nodes)
    opts = IntegrateOptions(tol=1e-8)
    print(f"network: {system.graph.node_count} nodes, "
          f"{system.graph.edge_count} edges, state dim {system.state_dim}, "
          f"horizon {horizon}")

    init = default_initial_state(system)
    integrate(system, init, horizon, opts)
    walls = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        traj = integrate(system, init, horizon, opts)
        walls.append(time.perf_counter() - t0)
    nfev = traj.metadata["nfev"]
    print(f"{nfev} rhs calls per run ({len(traj.times)} samples), "
          f"{REPEAT} runs")
    for label, wall in (("best", min(walls)), ("median", statistics.median(walls))):
        print(f"{label:>6}: wall {wall * 1e3:.2f} ms, "
              f"{wall / nfev * 1e6:.1f} us per rhs call")
    pk = system.packed
    entries = pk.dim * pk.width
    dense = dataclasses.replace(pk, dense=_fastpath._dense_w(pk.row, pk.col, pk.w, pk.dim,
                                                             pk.width))
    coo = dataclasses.replace(pk, dense=None)
    s = traj.states[-1]
    print(f"  W: {entries} entries, takes the {'dense' if pk.dense is not None else 'COO'} "
          f"side (DENSE_MAX {_fastpath.DENSE_MAX}); rhs alone: "
          f"dense {rhs_us(dense, s):.2f} us, COO {rhs_us(coo, s):.2f} us per call")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, nargs="+", default=[24])
    ap.add_argument("--horizon", type=float, default=20.0)
    args = ap.parse_args()
    for nodes in args.nodes:
        bench(nodes, args.horizon)


if __name__ == "__main__":
    main()
