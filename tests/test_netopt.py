import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet.couplers import (PSI_RANGE, linear_synthesis,
                                 nonlinear_integrator, paper_psi,
                                 reconfigured)
from couplednet.errors import DimensionMismatch, Infeasible, Unbounded
from couplednet.netgraph import build_graph, incidence
from couplednet.netopt import (SolveOptions, assemble, duality_gap,
                               flow_residual, inclusion_residual,
                               ofp_objective, opp_objective,
                               problem_from_relations, recover_certificate,
                               solve_ofp, solve_opp, verify_steady_state)
from couplednet.plants import linear_agent
from couplednet.relations import (affine_relation, function_sum, quadratic,
                                  scalar_separable)
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 compare_prediction, default_initial_state,
                                 detect_convergence, integrate)

from conftest import meicmp_linear_agent, mixed_network, rand_connected_graph


def hand_problem():
    """Two nodes, one edge; closed forms worked out by hand.

    k0(u) = u, k1(u) = u/2 + 3, gamma(zeta) = zeta - 1. The potential
    problem minimizes y0^2/2 + (y1-3)^2 + (y1-y0-1)^2/2 with optimum
    y = (0.8, 2.6), mu = 0.8, u = (0.8, -0.8).
    """
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])]
    return assemble(g, agents, [linear_synthesis([1.0])])


def test_opp_hand_oracle():
    prob = hand_problem()
    y, zeta, _ = solve_opp(prob)
    assert np.allclose(y, [0.8, 2.6], atol=1e-6)
    assert np.allclose(zeta, [1.8], atol=1e-6)


def test_certificate_recovery_and_gap():
    prob = hand_problem()
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    assert np.allclose(cert.u, [0.8, -0.8], atol=1e-6)
    assert np.allclose(cert.mu, [0.8], atol=1e-6)
    assert cert.valid(1e-6)
    gap = duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)
    assert abs(gap) <= 1e-6


def test_opp_and_ofp_objectives_are_dual():
    prob = hand_problem()
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    # optimal values sum to zero across the dual pair
    assert opp_objective(prob, y) + ofp_objective(prob, cert.mu) == pytest.approx(0.0, abs=1e-6)


def test_solve_ofp_matches_certificate():
    prob = hand_problem()
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    u, mu, _ = solve_ofp(prob)
    assert np.allclose(mu, cert.mu, atol=1e-6)
    assert np.allclose(u, -prob.op.lifted @ mu, atol=1e-12)


def test_verify_steady_state_accepts_and_rejects():
    prob = hand_problem()
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    good = verify_steady_state(prob, (cert.u, cert.y, cert.zeta, cert.mu))
    assert good.valid
    bad = verify_steady_state(prob, (cert.u + 0.1, cert.y, cert.zeta, cert.mu))
    assert not bad.valid
    assert bad.residuals["consistency_u"] > 1e-3


def test_consensus_with_integrator_edges():
    # indicator-type Gamma: zeta = 0 enforced exactly, weighted mean output
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])]
    prob = assemble(g, agents, [nonlinear_integrator(quadratic(np.eye(1)))])
    y, zeta, _ = solve_opp(prob)
    assert np.allclose(y, [2.0, 2.0], atol=1e-8)
    assert np.allclose(zeta, 0.0, atol=1e-12)
    cert = recover_certificate(prob, y, zeta)
    assert np.allclose(cert.mu, [2.0], atol=1e-6)


def test_nonquadratic_edges_subgradient_path():
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[1.0])]
    pot = scalar_separable(paper_psi, 1, PSI_RANGE)
    # a non-quadratic potential still gives an integrator edge, whose
    # Gamma is the indicator of zeta = 0
    prob = assemble(g, agents, [nonlinear_integrator(pot)])
    y, zeta, _ = solve_opp(prob)
    assert np.allclose(y, [0.5, 0.5], atol=1e-6)
    assert inclusion_residual(prob, y) <= 1e-6


def test_problem_from_relations():
    g = build_graph(2, [(0, 1)])
    op = incidence(g, 1)
    node_rels = [affine_relation(np.eye(1)), affine_relation(np.eye(1), [2.0])]
    half = quadratic(0.5 * np.eye(1))
    # a sum of quadratics is the same quadratic edge function
    for edge in (quadratic(np.eye(1)), function_sum([half, half])):
        prob = problem_from_relations(op, node_rels, [edge])
        y, zeta, _ = solve_opp(prob)
        # minimize y0^2/2 + (y1-2)^2/2 + (y1-y0)^2/2: y = (2/3, 4/3)
        assert np.allclose(y, [2.0 / 3.0, 4.0 / 3.0], atol=1e-8)
        u, _, _ = solve_ofp(prob)
        assert np.allclose(u, y - [0.0, 2.0], atol=1e-8)  # y = u + offset


def test_solve_opp_bad_init():
    prob = hand_problem()
    with pytest.raises(DimensionMismatch):
        solve_opp(prob, init_y=np.zeros(5))


def test_trace_csv(tmp_path):
    prob = hand_problem()
    _, _, trace = solve_opp(prob)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("iter")
    assert len(lines) >= 2


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000),
       n=st.integers(min_value=2, max_value=4),
       d=st.integers(min_value=1, max_value=2))
def test_random_networks_zero_gap(seed, n, d):
    rng = np.random.default_rng(seed)
    g = rand_connected_graph(rng, n)
    agents = [meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
              for _ in range(n)]
    ctrls = [linear_synthesis(rng.normal(size=d)) for _ in range(g.edge_count)]
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob, opts=SolveOptions(tol=1e-10, max_iter=100000))
    cert = recover_certificate(prob, y, zeta)
    assert cert.valid(1e-6)
    assert abs(duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)) <= 1e-6
    # optimality: random feasible perturbations never beat the optimum
    base = opp_objective(prob, y)
    for _ in range(5):
        assert opp_objective(prob, y + 0.1 * rng.normal(size=y.size)) >= base - 1e-9
    assert flow_residual(prob, cert.mu) <= 1e-6


def test_mixed_controller_network_predicts_and_settles():
    g, agents, ctrls = mixed_network(seed=7)
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    assert cert.valid(1e-6)
    assert abs(duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)) <= 1e-8
    system = closed_loop(g, agents, ctrls)
    traj = integrate(system, default_initial_state(system), 120.0,
                     IntegrateOptions(tol=1e-8))
    assert detect_convergence(traj, tol=1e-6).converged
    assert compare_prediction(traj, cert, tol=1e-3).passed


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000),
       n=st.integers(min_value=2, max_value=5),
       d=st.integers(min_value=1, max_value=2))
def test_random_mixed_controller_networks_agree(seed, n, d):
    rng = np.random.default_rng(seed)
    g = rand_connected_graph(rng, n)
    agents = [meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
              for _ in range(n)]
    # edge 0 an integrator, the last of several linear synthesis
    integ = rng.random(g.edge_count) < 0.5
    integ[0] = True
    if g.edge_count > 1:
        integ[-1] = False
    ctrls = [nonlinear_integrator(quadratic(np.eye(d))) if i
             else linear_synthesis(rng.normal(size=d)) for i in integ]
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    assert cert.valid(1e-6)
    assert abs(duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)) <= 1e-8
    u, _, _ = solve_ofp(prob)
    assert np.allclose(u, cert.u, atol=1e-8)


def integrator_triangle(alpha):
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[float(i)]) for i in range(3)]
    ctrls = [reconfigured(nonlinear_integrator(quadratic(np.eye(1))), [a], [0.0])
             for a in alpha]
    return assemble(g, agents, ctrls)


def test_unbalanced_cycle_offsets_are_refused():
    # E'y = alpha has no solution unless alpha sums to zero around the cycle
    prob = integrator_triangle([1.0, 1.0, 1.0])
    with pytest.raises(Infeasible):
        solve_opp(prob)
    with pytest.raises(Unbounded):
        solve_ofp(prob)


def test_ofp_keeps_cycle_component_of_init_mu():
    prob = integrator_triangle([1.0, 1.0, -2.0])
    init_mu = np.array([0.3, -0.7, 1.1])
    u, mu, trace = solve_ofp(prob, init_mu=init_mu)
    assert "anchored" in trace.notes
    cyc = prob.op.cycle_basis()
    assert np.allclose(cyc.T @ mu, cyc.T @ init_mu, atol=1e-12)
    y, zeta, _ = solve_opp(prob)
    assert np.allclose(u, recover_certificate(prob, y, zeta).u, atol=1e-10)


def test_pinned_output_node():
    g = build_graph(2, [(0, 1)])
    op = incidence(g, 1)
    node_rels = [affine_relation(np.zeros((1, 1)), [1.0]), affine_relation(np.eye(1))]
    prob = problem_from_relations(op, node_rels, [quadratic(np.eye(1))])
    y, zeta, _ = solve_opp(prob)
    # y0 is pinned at 1; y1 minimizes y1^2/2 + (y1 - 1)^2/2
    assert np.allclose(y, [1.0, 0.5], atol=1e-12)
    assert recover_certificate(prob, y, zeta).valid(1e-6)
