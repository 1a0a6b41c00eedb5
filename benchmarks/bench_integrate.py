"""Wall time of one closed-loop integration on a ring with chords.

Builds a ring-with-chords oscillator network with saturating-integrator
edge controllers, integrates it REPEAT times and reports the best and
the median wall time, the number of rhs evaluations and the time per
rhs evaluation.

Usage:
    python3 benchmarks/bench_integrate.py [--nodes 24] [--horizon 20]
"""

import argparse
import statistics
import time

import numpy as np

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


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=24)
    ap.add_argument("--horizon", type=float, default=20.0)
    args = ap.parse_args()

    system = build_system(args.nodes)
    opts = IntegrateOptions(tol=1e-8)
    print(f"network: {system.graph.node_count} nodes, "
          f"{system.graph.edge_count} edges, state dim {system.state_dim}, "
          f"horizon {args.horizon}")

    init = default_initial_state(system)
    walls = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        traj = integrate(system, init, args.horizon, opts)
        walls.append(time.perf_counter() - t0)
    nfev = traj.metadata["nfev"]
    print(f"{nfev} rhs calls per run ({len(traj.times)} samples), "
          f"{REPEAT} runs")
    for label, wall in (("best", min(walls)), ("median", statistics.median(walls))):
        print(f"{label:>6}: wall {wall * 1e3:.2f} ms, "
              f"{wall / nfev * 1e6:.1f} us per rhs call")


if __name__ == "__main__":
    main()
