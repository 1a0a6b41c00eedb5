"""The graph-structured network solves against the dense oracle, and
what the component pins make exact."""
import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as dense
from couplednet.couplers import ControllerKind, linear_synthesis, nonlinear_integrator
from couplednet.errors import (EmptyInverse, EmptySelection, Infeasible, NotForcible,
                               Unbounded)
from couplednet.netgraph import incidence
from couplednet.netopt import (assemble, duality_gap, inclusion_residual, ofp_objective,
                               opp_objective, recover_certificate, solve_ofp, solve_opp,
                               verify_steady_state)
from couplednet.relations import affine_relation, quadratic, shifted
from couplednet.simulate import closed_loop, default_initial_state, integrate
from couplednet.synthesis import (_agreement_shift, check_uniqueness_conditions, g_map,
                                  leader_input, reconfiguration_offsets, synthesize_linear)

from conftest import anchored_network, meicmp_linear_agent, rand_connected_graph, rand_spd
from set_oracle import indicator_zero, stacked

REFUSALS = (Infeasible, Unbounded, EmptySelection, EmptyInverse, NotForcible)


def outcome(fn):
    """('solved', arrays) or (the refusal's class name, None)."""
    try:
        result = fn()
    except REFUSALS as ex:
        return type(ex).__name__, None
    return "solved", tuple(np.atleast_1d(np.asarray(r, dtype=float)) for r in result)


def assert_agree(fn, oracle, what):
    new, old = outcome(fn), outcome(oracle)
    assert new[0] == old[0], f"{what}: {new[0]}, the oracle {old[0]}"
    for a, b in zip(new[1] or (), old[1] or ()):
        assert np.array_equal(np.isinf(a), np.isinf(b)), f"{what}: {a} against {b}"
        a, b = a[np.isfinite(b)], b[np.isfinite(b)]
        scale = 1.0 + np.max(np.abs(b), initial=0.0)
        assert np.allclose(a, b, rtol=0.0, atol=1e-9 * scale), f"{what}: {a} against {b}"
    return new


def random_network(rng, n, d, offsets):
    """Affine nodes, about a fifth of them zero-gain, on a random connected
    graph. Edges are linear synthesis, integrators, integrators with
    reconfiguration offsets and, at d = 2, edges pinned in one coordinate
    and quadratic in the other. offsets: 'none'; 'balanced', alpha = E'y
    for one y, so every cycle of pins sums to zero; 'unbalanced', random."""
    g = rand_connected_graph(rng, n)
    op = incidence(g, d)
    nodes = [affine_relation(np.zeros((d, d)) if rng.random() < 0.2 else rand_spd(rng, d),
                             rng.normal(size=d)) for _ in range(n)]
    zeta_ref = op.lifted.T @ rng.normal(size=n * d)
    edges = []
    for k in range(g.edge_count):
        kind = int(rng.integers(0, 4 if d == 2 else 3))
        alpha = {"none": np.zeros(d), "balanced": zeta_ref[k * d:(k + 1) * d],
                 "unbalanced": rng.normal(size=d)}[offsets]
        beta = np.zeros(d) if offsets == "none" else rng.normal(size=d)
        if kind == 0:
            edges.append(quadratic(np.eye(d), -rng.normal(size=d)))
        elif kind == 1:
            edges.append(indicator_zero(d))
        elif kind == 2:
            edges.append(shifted(indicator_zero(d), shift=alpha, linear=beta))
        else:
            parts = [indicator_zero(1), quadratic(rand_spd(rng, 1))]
            edges.append(shifted(stacked(parts[::int(rng.choice([1, -1]))]),
                                 shift=alpha, linear=beta))
    return dense.problem_from_relations(op, nodes, edges)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=2, max_value=6),
       d=st.integers(min_value=1, max_value=2),
       offsets=st.sampled_from(["none", "balanced", "unbalanced"]))
def test_graph_path_matches_dense_oracle(seed, n, d, offsets):
    rng = np.random.default_rng(seed)
    prob = random_network(rng, n, d, offsets)
    init_mu = rng.normal(size=prob.edge_size)
    opp = assert_agree(lambda: solve_opp(prob)[:2], lambda: dense.solve_opp(prob)[:2], "opp")
    assert_agree(lambda: solve_ofp(prob)[:2], lambda: dense.solve_ofp(prob)[:2], "ofp")
    ofp = assert_agree(lambda: solve_ofp(prob, init_mu=init_mu)[:2],
                       lambda: dense.solve_ofp(prob, init_mu=init_mu)[:2], "ofp from init_mu")
    assert (opp[0] == "solved") == (ofp[0] == "solved")
    for mu in ofp[1][1:] if ofp[1] else ():
        assert dense.flow_residual(prob, mu) <= 1e-9 * (1.0 + np.max(np.abs(mu)))
    # a target that, half the time, holds every zero-gain node at its output
    target = rng.normal(size=prob.node_size)
    if rng.random() < 0.5:
        for i, (S, v) in enumerate(zip(prob.nodes.S, prob.nodes.v)):
            if not S.any():
                target[i * d:(i + 1) * d] = v
    assert_agree(lambda: _agreement_shift(prob, target),
                 lambda: dense.agreement_shift(prob, target, 1e-8), "agreement shift")
    assert_agree(lambda: [g_map(prob, target)], lambda: [dense.g_map(prob, target)],
                 "g_map at a target")
    if opp[0] != "solved":
        return
    y, zeta = opp[1]
    for point in (y, y + rng.normal(size=y.size)):
        zeta = prob.op.lifted.T @ point

        def certificate():
            cert = recover_certificate(prob, point, zeta)
            return cert.u, cert.mu, [cert.residual_inclusion]

        assert_agree(certificate, lambda: dense.certificate(prob, point, zeta), "certificate")
        assert_agree(lambda: [inclusion_residual(prob, point)],
                     lambda: [dense.inclusion_residual(prob, point)], "inclusion_residual")
    assert_agree(lambda: [g_map(prob, y)], lambda: [dense.g_map(prob, y)], "g_map")
    assert_agree(lambda: [leader_input(prob, y, 0)], lambda: [dense.min_flow(prob, y)[1]],
                 "leader_input")
    assert_agree(lambda: _agreement_shift(prob, y),
                 lambda: dense.agreement_shift(prob, y, 1e-8), "agreement shift at y")


def test_integrator_components_certify_at_large_anchors():
    # conftest's anchored_network: the networks of
    # test_random_mixed_controller_networks_agree with the agent anchors
    # scaled up, their integrator edges pinned at 0 or reconfigured to
    # alpha ~ scale N(0, 1). Every node of an integrator component gets
    # the same float, so E'y is exactly 0 on the edges pinned at 0. On a
    # reconfigured edge zeta meets its alpha only to rounding (about 1e-10
    # at anchors of 1e6), which the one pin rule, tol * (1 + |alpha|),
    # accepts. The duality gap is a sum of terms of about anchor^2, so it
    # is held to predict's bound, relative to the two objectives.
    for reconfigure, scale, seed in itertools.product((False, True), (1e4, 1e5, 1e6), range(40)):
        g, agents, ctrls = anchored_network(seed, scale, reconfigure)
        prob = assemble(g, agents, ctrls)
        y, zeta, trace = solve_opp(prob)
        assert np.all(np.isfinite(trace.objectives))
        if not reconfigure:
            integ = [c.kind is ControllerKind.NONLINEAR_INTEGRATOR for c in ctrls]
            assert not np.any(zeta.reshape(len(ctrls), -1)[integ])
        cert = recover_certificate(prob, y, zeta)
        assert cert.valid(1e-6)
        gap = duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)
        assert abs(gap) <= 1e-8 * (1.0 + abs(opp_objective(prob, cert.y))
                                   + abs(ofp_objective(prob, cert.mu)))


def test_network_solves_leave_the_lift_unbuilt():
    rng = np.random.default_rng(5)
    g = rand_connected_graph(rng, 5)
    agents = [meicmp_linear_agent(rng, 2, anchor=rng.normal(size=2)) for _ in range(5)]
    ctrls = [nonlinear_integrator(quadratic(np.eye(2))) if k % 2
             else linear_synthesis(rng.normal(size=2)) for k in range(g.edge_count)]
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    u, mu, _ = solve_ofp(prob, init_mu=rng.normal(size=prob.edge_size))
    assert verify_steady_state(prob, (u, y, zeta, mu)).valid
    synthesize_linear(prob, rng.normal(size=prob.node_size), mode="relative")
    synthesize_linear(prob, rng.normal(size=prob.node_size), leader=0)
    reconfiguration_offsets(prob, y, cert.y)
    check_uniqueness_conditions(prob, y)
    assert "lifted" not in vars(prob.op)
    assert dense.flow_residual(prob, mu) <= 1e-9


def test_simulation_leaves_the_lift_unbuilt():
    rng = np.random.default_rng(6)
    g = rand_connected_graph(rng, 5)
    agents = [meicmp_linear_agent(rng, 2, anchor=rng.normal(size=2)) for _ in range(5)]
    ctrls = [nonlinear_integrator(quadratic(np.eye(2))) if k % 2
             else linear_synthesis(rng.normal(size=2)) for k in range(g.edge_count)]
    system = closed_loop(g, agents, ctrls)
    traj = integrate(system, default_initial_state(system), 1.0)
    assert "lifted" not in vars(system.op)
    E = system.op.lifted
    assert np.array_equal(traj.zeta, traj.y @ E)
    assert np.allclose(traj.u, -traj.mu @ E.T, rtol=0.0, atol=1e-15)


def test_synthesize_leaves_numpy_random_unimported(tmp_path):
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from couplednet import cli\n"
            "rc = cli.cli.main(args=['synthesize', '--config', sys.argv[1], '--out', sys.argv[2],\n"
            "                        '--leader', '0'], standalone_mode=False)\n"
            "assert rc in (0, None), rc\n"
            "assert 'numpy.random' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-c", code, str(root / "configs" / "formation.json"),
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "synthesis_report.txt").exists()


def test_predict_leaves_scipy_unimported(tmp_path):
    # scipy.sparse alone would add about 20 MB to the peak RSS of a run;
    # orjson is for simulate's trajectory.csv only
    root = Path(__file__).resolve().parent.parent
    # nor numpy.polynomial, about 1.5 MB: the Gauss-Legendre nodes of the
    # paper_psi integral are made without it; nor numpy.ma, about 0.7 MB,
    # which the first np.unique call imports
    code = ("import sys\n"
            "from couplednet import cli, relations as R\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "for command in ('predict', 'check-cm'):\n"
            "    args = [command, '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "    rc = cli.cli.main(args=args, standalone_mode=False)\n"
            "    assert rc in (0, None), rc\n"
            "    loaded = [m for m in sys.modules if m.split('.')[0] in ('scipy', 'orjson')]\n"
            "    assert not loaded, (command, loaded)\n"
            "    assert 'numpy.ma' not in sys.modules, command\n"
            "R.value(R.scalar_separable(R.paper_psi, 2), [1.0, -1.0])\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-c", code, str(root / "configs" / "formation.json"),
                          str(tmp_path)], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "certificate.json").exists()
    assert (tmp_path / "cm_report.json").exists()
    # nor does any module of the package import scipy, lazily or not
    for path in sorted((root / "src" / "couplednet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), (path.name, names)


def test_bench_netopt_smoke():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_netopt.py"),
                          "--nodes", "16", "--repeat", "1"],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    header, row = res.stdout.strip().splitlines()
    assert header.split()[:6] == ["nodes", "closed_loop", "assemble", "solve_opp",
                                  "recover_certificate", "solve_ofp"]
    assert row.split()[0] == "16" and row.endswith("MB")
