"""Wall time and peak memory of the network solves on a ring with chords.

Builds bench_integrate's ring-with-chords network (saturating-integrator
edges, d = 2) for each node count and times `closed_loop` (which forms
every agent and packs the loop), `assemble`, `solve_opp`,
`recover_certificate`, `solve_ofp` and `duality_gap` on it, and
`load_config` of the network written as a config file the way perfbench
writes ring256, each the best of REPEAT calls. BLAS runs on one thread.
The last column is the process's peak resident memory (ru_maxrss) after
the sizes so far, which includes building the closed-loop system that
`build_system` returns.

Usage:
    python3 benchmarks/bench_netopt.py [--nodes 256 1024] [--repeat 3]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from couplednet.config import SCHEMA, agent_to_spec, controller_to_spec, load_config  # noqa: E402
from couplednet.netopt import (assemble, duality_gap, recover_certificate,  # noqa: E402
                               solve_ofp, solve_opp)
from couplednet.simulate import closed_loop  # noqa: E402

import bench_integrate  # noqa: E402

REPEAT = 3  # timed calls per stage; the best is reported
STAGES = ("closed_loop", "assemble", "solve_opp", "recover_certificate", "solve_ofp", "duality_gap",
          "load_config")


def best(fn, repeat):
    """(best wall time in s, last result) over repeat calls of fn."""
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - t0)
    return min(walls), out


def run(nodes: int, repeat: int = REPEAT) -> dict:
    """Best-of-repeat seconds per stage on build_system(nodes), and peak RSS in MB."""
    system = bench_integrate.build_system(nodes)
    args = (system.graph, system.agents, system.controllers)
    times = {}
    times["closed_loop"], _ = best(lambda: closed_loop(*args), repeat)
    times["assemble"], problem = best(lambda: assemble(*args), repeat)
    times["solve_opp"], (y, zeta, _) = best(lambda: solve_opp(problem), repeat)
    times["recover_certificate"], cert = best(
        lambda: recover_certificate(problem, y, zeta), repeat)
    times["solve_ofp"], (u, mu, _) = best(lambda: solve_ofp(problem), repeat)
    times["duality_gap"], gap = best(lambda: duality_gap(problem, u, mu, y, zeta), repeat)
    doc = {"schema": SCHEMA, "seed": 3,
           "graph": {"nodes": nodes, "edges": [list(e) for e in system.graph.edges]},
           "agents": [agent_to_spec(a) for a in system.agents],
           "controllers": [controller_to_spec(c) for c in system.controllers]}
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        json.dump(doc, fh)
        fh.flush()
        times["load_config"], _ = best(lambda: load_config(fh.name), repeat)
    if not cert.valid(1e-6):
        raise RuntimeError("certificate residuals above 1e-6")
    if abs(gap) > 1e-8:
        raise RuntimeError(f"duality gap {gap:.3e} above 1e-8")
    # ru_maxrss is in kB on Linux
    times["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--nodes", type=int, nargs="+", default=[256, 1024])
    ap.add_argument("--repeat", type=int, default=REPEAT)
    args = ap.parse_args(argv)
    print(f"{'nodes':>6} " + " ".join(f"{s:>20}" for s in STAGES) + f" {'peak RSS':>10}")
    for nodes in args.nodes:
        t = run(nodes, args.repeat)
        print(f"{nodes:>6} " + " ".join(f"{t[s] * 1e3:>17.1f} ms" for s in STAGES)
              + f" {t['peak_rss_mb']:>7.1f} MB")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
