"""Which functions of src/couplednet the commands and the benchmark never enter.

Run from anywhere; the script finds the repository from its own path:

    python3 scripts/reach.py

Under sys.setprofile it runs, in-process and in a temporary directory:

1. every command through `cli.main` (synthesize in its absolute, relative
   and --leader 0 modes, verify on the document plus predict's
   certificate) on configs/formation.json, the ring-with-chords at n = 64
   and the 3-node mixed networks of seeds 1 and 3 (as
   perfbench/workloads.py writes them), `every_kind_doc()` of
   tests/test_kernels.py, a certified network the Lyapunov proof cannot
   take (`unstable_doc()`), and one refused document per exit code 1-4;
2. the set-up, every op and every probe of each workload in
   perfbench/workloads.SETUP, at seed 1;
3. the names perfbench/tracer.py wraps that nothing above calls, once
   each on formation.

It then prints each `def` of src/couplednet (methods and nested functions
included) that step 1 never entered, with its line count, under one reason:

- pinned by perfbench/workloads.py: entered by step 2 only;
- pinned by perfbench/tracer.py: a name the tracer wraps, or entered by
  step 3 only;
- awaiting items 4/31: the paper_psi closed forms a predicted paper_psi
  edge will call (AWAITING);
- tests-only: anything else, reached by no command and no benchmark op.
"""
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "couplednet"
for sub in ("src", "perfbench", "benchmarks", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import numpy as np  # noqa: E402

import bench_integrate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from couplednet import cli, config, couplers, netopt, simulate, synthesis  # noqa: E402
from couplednet.errors import NoConvergence  # noqa: E402
from test_kernels import every_kind_doc  # noqa: E402

SEED = 1
RING_NODES = 64
AWAITING = {"relations._psi_integral", "relations._gauss_legendre", "relations.value"}
CATEGORIES = ("pinned by perfbench/workloads.py", "pinned by perfbench/tracer.py",
              "awaiting items 4/31", "tests-only")


def package_defs():
    """{(file, first line): (qualified name, lines)} of every def in the package;
    the first line is the first decorator's, as the code object's co_firstlineno."""
    defs = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[(path, first)] = (name, child.end_lineno - child.lineno + 1)
                visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return defs


def refused_docs():
    """One document per exit code 1-4, each refused by predict with that code."""
    one = {"type": "linear", "A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
    integ = {"type": "integrator", "potential": {"kind": "quadratic", "P": [[1.0]]}}
    eye = np.eye(2).tolist()
    osc = {"type": "oscillator", "M": eye, "B": eye}
    psi = {"type": "convex_gradient", "psi": {"kind": "paper_psi", "dim": 2},
           "J": [[0.0, 0.5], [-0.5, 0.0]]}
    pair = {"schema": config.SCHEMA, "graph": {"nodes": 2, "edges": [[0, 1]]}}
    return {
        1: dict(pair, graph={"nodes": 2, "edges": [[True, 0.7]]}, agents=[one, one],
                controllers=[{"type": "linear_synthesis", "offset": [1.0]}]),
        2: dict(pair, graph={"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, agents=[one] * 3,
                controllers=[{"type": "reconfigured", "inner": integ, "alpha": [1.0],
                              "beta": [0.0]}] * 3),
        3: dict(pair, agents=[osc, dict(osc, M=[[1.0, 2.0], [2.0, 4.0]])],
                controllers=[{"type": "linear_synthesis", "offset": [1.0, 0.0]}]),
        4: dict(pair, agents=[osc, psi],
                controllers=[{"type": "linear_synthesis", "offset": [1.0, 0.0]}]),
    }


def unstable_doc():
    """The 3-node oscillators of bench_integrate coupled by quadratic
    integrators, one objective segment at their natural steady state,
    started at an equilibrium: certified, but the packed Jacobian there is
    not Hurwitz, so no proof is set up and its trailing window is judged at
    its horizon."""
    small = bench_integrate.build_system(3, seed=SEED)
    integ = {"type": "integrator", "potential": {"kind": "quadratic", "P": np.eye(2).tolist()}}
    doc = workloads.network_doc(SEED, 3, small.graph.edges, small.agents,
                                [integ] * small.graph.edge_count)
    cfg = config.parse_config(doc)
    target = netopt.solve_opp(netopt.assemble(cfg.graph, cfg.agents, cfg.controllers))[0]
    W = simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers).packed.dense
    start = np.linalg.lstsq(W[:, :-1], -W[:, -1], rcond=None)[0]  # no paper_psi columns
    return dict(doc, objective={"targets": [target.tolist()], "durations": [30.0]},
                simulation={"initial_state": start.tolist()})


def corpus():
    """(name, document) of every document the commands run on."""
    ring = bench_integrate.build_system(RING_NODES, seed=SEED)
    docs = [("formation", workloads.read_json(ROOT / "configs" / "formation.json")),
            (f"ring{RING_NODES}", workloads.network_doc(
                SEED, RING_NODES, ring.graph.edges, ring.agents,
                [config.controller_to_spec(c) for c in ring.controllers],
                simulation=workloads.RING_SIMULATION)),
            ("mixed1", workloads.mixed_doc(1)), ("mixed3", workloads.mixed_doc(3)),
            ("every_kind", every_kind_doc()), ("unstable", unstable_doc())]
    return docs + [(f"refused{code}", doc) for code, doc in refused_docs().items()]


def run(*args):
    """One command through cli.main; its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main([str(a) for a in args])
        except SystemExit as ex:
            return ex.code
    return 0


def run_commands(workdir):
    """Every command on every document of the corpus; {document: [exit codes]}."""
    codes = {}
    for name, doc in corpus():
        path, out = os.path.join(workdir, f"{name}.json"), os.path.join(workdir, name)
        workloads.write_json(path, doc)
        rows = [run("predict", "--config", path, "--out", out)]
        if rows[0] == 0:
            cert = workloads.read_json(os.path.join(out, "certificate.json"))
            verify = os.path.join(workdir, f"{name}_candidate.json")
            workloads.write_json(verify, dict(doc, candidate={k: cert[k] for k in
                                                              ("u", "y", "zeta", "mu")}))
        else:
            verify = path
        rows += [run("verify", "--config", verify, "--out", out),
                 run("check-cm", "--config", path, "--out", out),
                 run("simulate", "--config", path, "--out", out)]
        rows += [run("synthesize", "--config", path, "--out", out, *extra)
                 for extra in ((), ("--mode", "relative"), ("--leader", 0))]
        codes[name] = rows
    return codes


def run_workloads(workdir):
    """Every workload's set-up, ops and probes; failures are expected of probes."""
    for name, setup in workloads.SETUP.items():
        os.makedirs(os.path.join(workdir, "workloads", name))
        wl = setup(SEED, os.path.join(workdir, "workloads", name))
        for op in wl.ops + wl.probes:
            with contextlib.suppress(Exception):
                if op.prepare is not None:
                    op.prepare()
                op.check(op.run())


def run_traced_names():
    """The tracer's names that no command calls, once each on formation."""
    cfg = config.load_config(str(ROOT / "configs" / "formation.json"))
    couplers.controller_ss_relation(cfg.controllers[0])
    problem = netopt.assemble(cfg.graph, cfg.agents, cfg.controllers)
    cert = netopt.recover_certificate(problem, *netopt.solve_opp(problem)[:2])
    synthesis.check_forcible(problem, cert.y)
    system = simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers)
    traj = simulate.integrate(system, simulate.default_initial_state(system), 1.0)
    with contextlib.suppress(NoConvergence):  # 1 s is too short to settle
        simulate.compare_prediction(traj, cert)


def measure():
    """{category: [(qualified name, file:line, lines)]} of the defs the
    commands never enter, and the commands' exit codes per document."""
    defs = package_defs()
    steps = [set(), set(), set()]

    def profiler(step):
        def hook(frame, event, arg):
            if event == "call":
                step.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return hook

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        os.chdir(ROOT)  # the workloads read configs/formation.json
        try:
            sys.setprofile(profiler(steps[0]))
            codes = run_commands(workdir)
            sys.setprofile(profiler(steps[1]))
            run_workloads(workdir)
            sys.setprofile(profiler(steps[2]))
            run_traced_names()
        finally:
            sys.setprofile(None)
            os.chdir(cwd)
    traced = {f"{mod}.{attr}" for mod, attr, _, _ in tracer.TRACED}
    out = {category: [] for category in CATEGORIES}
    for key, (name, lines) in sorted(defs.items()):
        if key in steps[0]:
            continue
        if key in steps[1]:
            category = CATEGORIES[0]
        elif key in steps[2] or name in traced:
            category = CATEGORIES[1]
        elif name in AWAITING:
            category = CATEGORIES[2]
        else:
            category = CATEGORIES[3]
        out[category].append((name, f"{Path(key[0]).name}:{key[1]}", lines))
    return out, codes


def main():
    unreached, codes = measure()
    print("exit codes (predict, verify, check-cm, simulate, synthesize absolute, "
          "relative, --leader 0):")
    for name, rows in codes.items():
        print(f"  {name}: {' '.join(map(str, rows))}")
    total = sum(len(rows) for rows in unreached.values())
    lines = sum(n for rows in unreached.values() for _, _, n in rows)
    print(f"defs the commands never enter: {total}, {lines} lines")
    for category, rows in unreached.items():
        print(f"{category}: {len(rows)} defs, {sum(n for _, _, n in rows)} lines")
        for name, where, n in rows:
            print(f"  {name} ({where}, {n} lines)")


if __name__ == "__main__":
    main()
