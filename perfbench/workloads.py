"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each `setup_<workload>(seed, workdir)` generates its inputs, builds what a
user builds before the first command, and returns a `Workload`. An `Op`'s
`run` is the timed call, made the way users make it (the click CLI
in-process, or the library); `prepare` and `check` are untimed. A check
raises `CheckFailed`. Ops marked `warm` run once, checked, before the
timed passes, so first-call costs (lazy imports, caches) stay out of the
timings; the long ops whose first call is no slower are not warmed.
Probes are known failures at the time the benchmark was written; they
count in the error rate and are never timed.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from couplednet import cli, config, netopt, plants, relations, simulate
from couplednet.couplers import PSI_RANGE, paper_psi

import bench_integrate

FORMATION_CONFIG = os.path.join("configs", "formation.json")
RING_NODES = 256
# A 1 s horizon sampled every 5 ms (201 records): the record grid still sets
# most step boundaries, but one simulate stays near 6 s on 2 CPUs.
RING_SIMULATION = {"method": "rk45", "tol": 1e-8, "conv_tol": 1e-6,
                   "horizon": 1.0, "record_every": 0.005}
CM_DIM = 2
CM_CYCLES = 10_000
CM_MAX_CYCLE_LEN = 6
# (category, count) of the cm relation set; verdicts: spd and gradient pass,
# indefinite and skew are refuted with a witness.
CM_SET = (("spd", 3), ("indefinite", 2), ("skew", 2), ("gradient", 3))

CERT_RESIDUAL_TOL = 1e-6
GAP_TOL = 1e-8
TARGET_TOL = 1e-6
STATIONARITY_TOL = 1e-8
WITNESS_TOL = -1e-9


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    span: str
    run: Callable[[], object]
    check: Callable[[object], None]
    prepare: Optional[Callable[[], None]] = None
    warm: bool = True  # run once untimed before the timed passes


@dataclass
class Workload:
    ops: list
    probes: list = field(default_factory=list)
    lifted_mb: float = 0.0


def run_cli(*args):
    """One `couplednet` command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli.main(args=[str(a) for a in args], standalone_mode=False)
    return rc, out.getvalue(), err.getvalue()


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def require_exit_ok(result, command):
    rc, _, err = result
    require(rc == 0, f"{command} exited {rc}: {err.strip()[:300]}")


def cli_op(name, command, config_path, outdir, check, *extra, prepare=None, warm=True):
    os.makedirs(outdir, exist_ok=True)
    return Op(name=name, span=f"cli.{name}",
              run=lambda: run_cli(command, "--config", config_path, "--out", outdir, *extra),
              check=check, prepare=prepare, warm=warm)


def check_certificate(outdir):
    def check(result):
        require_exit_ok(result, "predict")
        cert = read_json(os.path.join(outdir, "certificate.json"))
        for key in ("residual_consistency", "residual_relations", "residual_inclusion"):
            require(cert[key] <= CERT_RESIDUAL_TOL, f"certificate {key} = {cert[key]:.3e}")
        require(abs(cert["duality_gap"]) <= GAP_TOL,
                f"duality gap {cert['duality_gap']:.3e}")
    return check


def remove_outputs(outdir, *names):
    def prepare():
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(outdir, name))
    return prepare


def predict_op(config_path, outdir, name="predict"):
    return cli_op(name, "predict", config_path, outdir, check_certificate(outdir),
                  prepare=remove_outputs(outdir, "certificate.json"))


# ---------------------------------------------------------------------------
# formation: the shipped 4-node schedule (inputs do not depend on the seed)
# ---------------------------------------------------------------------------

def setup_formation(seed, workdir):
    doc = read_json(FORMATION_CONFIG)
    cfg = config.load_config(FORMATION_CONFIG)
    system = simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers)
    dirs = {k: os.path.join(workdir, k)
            for k in ("predict", "verify", "synthesize", "check_cm", "simulate")}
    verify_config = os.path.join(workdir, "formation_candidate.json")
    targets = len(cfg.objective.targets)

    def write_candidate():
        cert = read_json(os.path.join(dirs["predict"], "certificate.json"))
        write_json(verify_config, dict(doc, candidate={k: cert[k] for k in ("u", "y", "zeta", "mu")}))
        remove_outputs(dirs["verify"], "verify.json")()

    def check_verify(result):
        require_exit_ok(result, "verify")
        require(read_json(os.path.join(dirs["verify"], "verify.json"))["valid"] is True,
                "verify: candidate not valid")

    def check_synthesize(result):
        require_exit_ok(result, "synthesize")
        with open(os.path.join(dirs["synthesize"], "synthesis_report.txt")) as fh:
            m = re.search(r"stationarity residual = (\S+)", fh.read())
        require(m is not None and float(m.group(1)) <= STATIONARITY_TOL,
                f"synthesize: stationarity residual {m and m.group(1)}")

    def check_cm_report(result):
        require_exit_ok(result, "check-cm")
        report = read_json(os.path.join(dirs["check_cm"], "cm_report.json"))
        verdicts = [row["verdict"] for row in report["agents"] + report["controllers"]]
        require(len(verdicts) == len(cfg.agents) + len(cfg.controllers)
                and all(v in ("yes", "yes-strict") for v in verdicts),
                f"check-cm verdicts {verdicts}")

    def check_schedule(result):
        require_exit_ok(result, "simulate")
        with open(os.path.join(dirs["simulate"], "summary.txt")) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("segment")]
        require(len(lines) == targets, f"simulate: {len(lines)} of {targets} segments")
        for line in lines:
            m = re.search(r"converged = True.*target_err_inf = (\S+), prediction_pass = True",
                          line)
            require(m is not None and float(m.group(1)) <= TARGET_TOL, f"simulate: {line[:200]}")

    ops = [
        predict_op(FORMATION_CONFIG, dirs["predict"]),
        cli_op("verify", "verify", verify_config, dirs["verify"], check_verify,
               prepare=write_candidate),
        cli_op("synthesize", "synthesize", FORMATION_CONFIG, dirs["synthesize"],
               check_synthesize, "--leader", 0,
               prepare=remove_outputs(dirs["synthesize"], "synthesis_report.txt")),
        cli_op("check_cm", "check-cm", FORMATION_CONFIG, dirs["check_cm"], check_cm_report,
               prepare=remove_outputs(dirs["check_cm"], "cm_report.json")),
        cli_op("simulate", "simulate", FORMATION_CONFIG, dirs["simulate"], check_schedule,
               prepare=remove_outputs(dirs["simulate"], "summary.txt"), warm=False),
    ]
    return Workload(ops=ops, lifted_mb=system.op.lifted.nbytes / 1e6)


# ---------------------------------------------------------------------------
# ring256: bench_integrate's ring with chords at n = 256, d = 2
# ---------------------------------------------------------------------------

def network_doc(seed, nodes, edges, agents, controllers, **sections):
    return {"schema": config.SCHEMA, "seed": seed,
            "graph": {"nodes": nodes, "edges": [list(e) for e in edges]},
            "agents": [config.agent_to_spec(a) for a in agents],
            "controllers": controllers, **sections}


def mixed_doc(seed):
    """3 nodes, d = 2: one integrator edge and two linear-synthesis edges."""
    small = bench_integrate.build_system(3, seed=seed)
    offsets = np.random.default_rng(seed).normal(0.0, 0.5, size=(2, 2))
    ctrls = [config.controller_to_spec(small.controllers[0])]
    ctrls += [{"type": "linear_synthesis", "offset": off.tolist()} for off in offsets]
    return network_doc(seed, 3, small.graph.edges[:3], small.agents, ctrls)


def setup_ring256(seed, workdir):
    ring = bench_integrate.build_system(RING_NODES, seed=seed)
    solver = read_json(FORMATION_CONFIG)["solver"]
    ring_config = os.path.join(workdir, "ring256.json")
    write_json(ring_config, network_doc(
        seed, RING_NODES, ring.graph.edges, ring.agents,
        [config.controller_to_spec(c) for c in ring.controllers],
        solver=solver, simulation=RING_SIMULATION))
    cfg = config.load_config(ring_config)
    system = simulate.closed_loop(cfg.graph, cfg.agents, cfg.controllers)
    E = system.op.lifted
    solve_opts = netopt.SolveOptions(tol=float(solver["tol"]), max_iter=int(solver["max_iter"]))
    mixed_config = os.path.join(workdir, "mixed.json")
    write_json(mixed_config, mixed_doc(seed))
    predict_dir = os.path.join(workdir, "predict")
    sim_dir = os.path.join(workdir, "simulate")
    predicted = {}

    def load_prediction():
        cert = read_json(os.path.join(predict_dir, "certificate.json"))
        predicted["y"] = np.asarray(cert["y"])
        predicted["zeta"] = np.asarray(cert["zeta"])

    def flow():
        problem = netopt.assemble(cfg.graph, cfg.agents, cfg.controllers)
        u, mu, _ = netopt.solve_ofp(problem, opts=solve_opts)
        gap = netopt.duality_gap(problem, u, mu, predicted["y"], predicted["zeta"])
        return u, mu, gap

    def check_flow(result):
        u, mu, gap = result
        require(np.allclose(u, -E @ mu, rtol=0.0, atol=1e-12), "flow: u != -E mu")
        require(abs(gap) <= GAP_TOL, f"flow: duality gap {gap:.3e}")

    def check_trajectory(result):
        require_exit_ok(result, "simulate")
        rows = np.loadtxt(os.path.join(sim_dir, "trajectory.csv"), delimiter=",", skiprows=1)
        n, m = E.shape
        y, u = rows[:, 1:1 + n], rows[:, 1 + n:1 + 2 * n]
        zeta, mu = rows[:, 1 + 2 * n:1 + 2 * n + m], rows[:, 1 + 2 * n + m:]
        require(rows.shape[1] == 1 + 2 * n + 2 * m and np.all(np.isfinite(rows)),
                "simulate: trajectory not finite or wrong width")
        scale = 1.0 + np.max(np.abs(rows[:, 1:]))
        require(np.max(np.abs(zeta - y @ E)) <= 1e-9 * scale, "simulate: zeta != E'y")
        require(np.max(np.abs(u + mu @ E.T)) <= 1e-9 * scale, "simulate: u != -E mu")

    ops = [
        predict_op(ring_config, predict_dir),
        Op("flow", "lib.flow", flow, check_flow, prepare=load_prediction, warm=False),
        cli_op("simulate", "simulate", ring_config, sim_dir, check_trajectory,
               prepare=remove_outputs(sim_dir, "trajectory.csv"), warm=False),
    ]
    probes = [predict_op(mixed_config, os.path.join(workdir, "mixed"), name="mixed_predict")]
    return Workload(ops=ops, probes=probes, lifted_mb=E.nbytes / 1e6)


# ---------------------------------------------------------------------------
# cm: library check_cm over a seeded relation set (criterion 3 style)
# ---------------------------------------------------------------------------

def _orth(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def cm_relation(rng, category, d):
    """(relation, expected verdict, S, b); S and b are None for gradients."""
    b = rng.normal(size=d)
    if category == "spd":
        q = _orth(rng, d)
        S = q @ np.diag(rng.uniform(0.3, 2.5, d)) @ q.T
    elif category == "indefinite":
        eigs = rng.uniform(0.3, 2.0, d)
        eigs[int(rng.integers(0, d))] *= -1.0
        q = _orth(rng, d)
        S = q @ np.diag(eigs) @ q.T
    elif category == "skew":
        K = rng.normal(size=(d, d))
        K = K - K.T
        K *= 3.0 / np.linalg.norm(K, 2)
        q = _orth(rng, d)
        S = q @ np.diag(rng.uniform(0.2, 0.6, d)) @ q.T + K
    else:
        # grad of a shifted, tilted separable paper_psi potential: convex, so CM
        chi = relations.shifted(relations.scalar_separable(paper_psi, d, PSI_RANGE),
                                shift=rng.normal(0.0, 0.5, d), linear=b)
        return relations.gradient_relation(chi), True, None, None
    return relations.affine_relation(S, b), category == "spd", S, b


def setup_cm(seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for category, count in CM_SET:
        for i in range(count):
            rel, expect, S, b = cm_relation(rng, category, CM_DIM)
            sampler = relations.Sampler(seed=int(rng.integers(2**31)))
            group = "gradient" if S is None else "affine"
            ops.append(Op(f"check_cm_{category}{i}", f"lib.check_cm_{group}",
                          functools.partial(run_check_cm, rel, sampler),
                          functools.partial(check_verdict, expect, S, b),
                          warm=i == 0))

    psi = relations.scalar_separable(paper_psi, CM_DIM, PSI_RANGE)
    agent_rel = plants.ss_relation(plants.convex_gradient_agent(psi))
    probe_sampler = relations.Sampler(seed=int(rng.integers(2**31)))

    def check_agent(result):
        require(result.passed, "gradient agent relation refuted")

    probe = Op("gradient_agent_cm", "lib.check_cm_agent",
               functools.partial(run_check_cm, agent_rel, probe_sampler), check_agent)
    return Workload(ops=ops, probes=[probe])


def run_check_cm(rel, sampler):
    # looked up at call time, so the traced run sees the tracer's wrapper
    return relations.check_cm(rel, sampler, cycles=CM_CYCLES, max_cycle_len=CM_MAX_CYCLE_LEN)


def check_verdict(expect, S, b, res):
    """Verdict as expected; a pass used the whole budget, a refutation's
    witness lies on the affine relation y = S u + b and has a negative
    cyclic sum."""
    require(res.passed is expect, f"check_cm: verdict {res.passed}, expected {expect}")
    if res.passed:
        require(res.cycles_checked == CM_CYCLES, "check_cm: short budget")
        return
    for u, y in res.witness:
        require(np.allclose(y, S @ u + b, rtol=0.0, atol=1e-10),
                "check_cm: witness pair off the relation")
    s = relations.cyclic_sum(res.witness)
    require(math.isclose(s, res.witness_sum, rel_tol=1e-12) and s < WITNESS_TOL,
            f"check_cm: witness cyclic sum {s:.3e}")


SETUP = {"formation": setup_formation, "ring256": setup_ring256, "cm": setup_cm}
