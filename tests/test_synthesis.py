import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from couplednet.couplers import ControllerKind, linear_synthesis, nonlinear_integrator
from couplednet import synthesis
from couplednet.errors import IndexOutOfRange, NotForcible, UnsupportedKind
from couplednet.netgraph import build_graph, incidence
from couplednet.netopt import assemble, verify_steady_state
from couplednet.plants import linear_agent, ss_relation
from couplednet.relations import affine_relation, quadratic
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 default_initial_state, detect_convergence,
                                 integrate)
from couplednet.synthesis import (apply_leader, check_forcible,
                                  check_uniqueness_conditions, g_map,
                                  leader_input, reconfiguration_offsets,
                                  synthesize_linear, wrap_reconfigured)

from conftest import meicmp_linear_agent, rand_connected_graph
from dense_oracle import cycle_basis, problem_from_relations
from set_oracle import forward, inverse


def mirrored_pair():
    """k0^-1(y) = y - 1 and k1^-1(y) = y + 1 on a single edge."""
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[1.0]),
              linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[-1.0])]
    prob = assemble(g, agents, [nonlinear_integrator(quadratic(np.eye(1)))])
    return g, agents, prob


def test_forcibility_and_witness():
    _, _, prob = mirrored_pair()
    rep = check_forcible(prob, [0.0, 0.0])
    assert rep.forcible
    assert np.allclose(rep.witness, [-1.0, 1.0])
    assert rep.residual <= 1e-12
    assert not check_forcible(prob, [1.0, 0.0]).forcible


def test_nan_residual_is_not_forcible():
    _, _, prob = mirrored_pair()
    rep = check_forcible(prob, [np.nan, 0.0])
    assert not rep.forcible and rep.witness is None and np.isnan(rep.residual)
    with pytest.raises(NotForcible):
        synthesize_linear(prob, [np.nan, 0.0])


def test_absolute_synthesis_hand_flow():
    # u* = (-1, 1) must be routed by the single edge: xi = +1
    _, _, prob = mirrored_pair()
    res = synthesize_linear(prob, [0.0, 0.0])
    assert res.mode == "absolute"
    assert np.allclose(res.xi, [1.0])
    assert np.allclose(res.zeta_star, [0.0])
    assert res.controllers[0].kind is ControllerKind.LINEAR_SYNTHESIS
    assert np.allclose(res.controllers[0].offset, [1.0])


def test_absolute_synthesis_closes_loop():
    g, agents, prob = mirrored_pair()
    res = synthesize_linear(prob, [0.0, 0.0])
    cand_mu = -res.xi
    # mu = -xi satisfies -E mu = u* here; verify the full 4-tuple
    rep = verify_steady_state(
        prob2 := assemble(g, agents, res.controllers),
        (np.array([-1.0, 1.0]), res.y_target, res.zeta_star, np.array([-1.0])))
    assert rep.valid
    system = closed_loop(g, agents, list(res.controllers))
    traj = integrate(system, default_initial_state(system), 30.0,
                     IntegrateOptions())
    conv = detect_convergence(traj)
    assert conv.converged
    assert np.abs(conv.y_ss - res.y_target).max() <= 1e-3


def test_zero_gain_path_xi_is_minus_g_map():
    # nodes 0 and 1 output their w whatever the input, so k_i^-1 = R there
    # and only the flow into node 2 is fixed: the min-norm flow is (0, -0.5)
    g = build_graph(3, [(0, 1), (1, 2)])
    agents = [linear_agent([[-1.0]], [[0.0]], [[1.0]], w=[1.0]),
              linear_agent([[-1.0]], [[0.0]], [[1.0]], w=[2.0]),
              linear_agent([[-1.0]], [[1.0]], [[1.0]])]
    prob = assemble(g, agents, [nonlinear_integrator(quadratic(np.eye(1)))] * 2)
    y_star = np.array([1.0, 2.0, 0.5])
    res = synthesize_linear(prob, y_star)
    assert np.allclose(g_map(prob, y_star), [0.0, -0.5], atol=1e-12)
    assert np.allclose(res.xi, -g_map(prob, y_star), atol=1e-12)
    mu = -res.xi
    rep = verify_steady_state(
        assemble(g, agents, res.controllers),
        (-prob.op.lifted @ mu, y_star, res.zeta_star, mu))
    assert rep.valid


def test_relative_mode_shifts_to_forcible():
    _, _, prob = mirrored_pair()
    res = synthesize_linear(prob, [1.0, 0.0], mode="relative")
    assert res.mode == "relative"
    # agreement shift keeps edge differences, restores forcibility
    assert np.allclose(res.y_target, [0.5, -0.5])
    assert check_forcible(prob, res.y_target).forcible
    zeta_star = prob.op.lifted.T @ np.array([1.0, 0.0])
    assert np.allclose(res.zeta_star, zeta_star)


def test_leader_mode_makes_target_forcible():
    g, agents, prob = mirrored_pair()
    res = synthesize_linear(prob, [1.0, 0.0], leader=0)
    assert res.leader == 0
    assert np.allclose(res.leader_input, [1.0])
    shifted = apply_leader(agents, 0, res.leader_input)
    prob_z = assemble(g, shifted, [nonlinear_integrator(quadratic(np.eye(1)))])
    assert check_forcible(prob_z, [1.0, 0.0]).forcible


def test_leader_input_hand_value():
    _, _, prob = mirrored_pair()
    # z = sum_i k_i^-1(y*_i) = (1-1) + (0+1)
    assert np.allclose(leader_input(prob, np.array([1.0, 0.0]), 0), [1.0])


def test_leader_index_out_of_range():
    # a forcible target would otherwise never look at the leader index
    _, _, prob = mirrored_pair()
    for bad in (-1, 2):
        with pytest.raises(IndexOutOfRange):
            synthesize_linear(prob, [0.0, 0.0], leader=bad)
        with pytest.raises(IndexOutOfRange):
            leader_input(prob, np.array([1.0, 0.0]), bad)


def test_unknown_mode_raises_before_any_solve(monkeypatch):
    _, _, prob = mirrored_pair()

    def no_solve(*args):
        raise AssertionError("solved before checking the mode")

    monkeypatch.setattr(synthesis, "_min_flow", no_solve)
    with pytest.raises(UnsupportedKind, match="relatve"):
        synthesize_linear(prob, [0.0, 0.0], mode="relatve")


def test_unforcible_without_escape_raises():
    _, _, prob = mirrored_pair()
    with pytest.raises(NotForcible):
        synthesize_linear(prob, [1.0, 0.0])
    with pytest.raises(NotForcible):
        g_map(prob, np.array([1.0, 0.0]))


def test_g_map_hand_values():
    _, _, prob = mirrored_pair()
    assert np.allclose(g_map(prob, np.array([0.0, 0.0])), [-1.0])
    assert np.allclose(g_map(prob, np.array([2.0, -2.0])), [1.0])


def test_g_map_min_norm_on_cycles():
    # triangle: flows have a free cycle component, g picks the min-norm one
    rng = np.random.default_rng(0)
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    agents = [meicmp_linear_agent(rng, 1, anchor=rng.normal(size=1))
              for _ in range(3)]
    prob = assemble(g, agents, [nonlinear_integrator(quadratic(np.eye(1)))] * 3)
    from couplednet.netopt import solve_opp
    y, _, _ = solve_opp(prob)
    mu = g_map(prob, y)
    C = cycle_basis(prob.op)
    assert np.allclose(C.T @ mu, 0.0, atol=1e-8)
    u_star = np.concatenate([inverse(ss_relation(agents[i]), y[i:i+1]).min_norm()
                             for i in range(3)])
    assert np.allclose(-prob.op.lifted @ mu, u_star, atol=1e-6)


def test_reconfiguration_offsets_hand_values():
    _, _, prob = mirrored_pair()
    alpha, beta = reconfiguration_offsets(prob, np.array([0.0, 0.0]),
                                          np.array([2.0, -2.0]))
    assert np.allclose(alpha, [-4.0])
    assert np.allclose(beta, [2.0])


def test_wrap_reconfigured_retargets_loop():
    g, agents, prob = mirrored_pair()
    base = [nonlinear_integrator(quadratic(np.eye(1)))]
    y0 = np.array([0.0, 0.0])
    y_star = np.array([2.0, -2.0])
    alpha, beta = reconfiguration_offsets(prob, y0, y_star)
    ctrls = wrap_reconfigured(base, alpha, beta, 1)
    system = closed_loop(g, agents, ctrls)
    traj = integrate(system, default_initial_state(system), 40.0,
                     IntegrateOptions())
    conv = detect_convergence(traj)
    assert conv.converged
    assert np.abs(conv.y_ss - y_star).max() <= 1e-4


def _pair(node_rels, edge_fn):
    """Two nodes with the given affine relations on one edge function."""
    return problem_from_relations(incidence(build_graph(2, [(0, 1)]), 1),
                                  node_rels, [edge_fn])


def _linear_pair(gain, controller):
    g = build_graph(2, [(0, 1)])
    return assemble(g, [linear_agent([[-1.0]], [[gain]], [[1.0]])] * 2, [controller])


_UNIT = [affine_relation(np.eye(1)), affine_relation(np.eye(1))]

# (build, y*, outer_strict, inner_strict). The indicator of {0} of an
# integrator edge is strictly convex on its domain; an affine edge and
# one flatter than the conjugate's affine cut (1e-8) are not.
UNIQUENESS_CASES = {
    "integrator_edge": (lambda: mirrored_pair()[2], [0.0, 0.0], True, True),
    "linear_synthesis_edge": (lambda: _linear_pair(1.0, linear_synthesis([1.0])),
                              [0.0, 0.0], True, True),
    "gain_101": (lambda: _linear_pair(101.0, linear_synthesis([0.0])), [0.0, 0.0],
                 True, True),
    "anchors_1e7": (lambda: _pair([affine_relation(np.eye(1), [1e7])] * 2,
                                  quadratic(np.eye(1))), [1e7, 1e7], True, True),
    "zero_gain_node": (lambda: _pair([affine_relation(np.zeros((1, 1)), [1.0]),
                                      affine_relation(np.eye(1))], quadratic(np.eye(1))),
                       [1.0, 0.5], True, True),
    "edge_quadratic_1e-3": (lambda: _pair(_UNIT, quadratic([[1e-3]])), [0.0, 0.0],
                            True, True),
    "affine_edge": (lambda: _pair(_UNIT, quadratic([[0.0]], [1.0])), [0.0, 0.0],
                    False, True),
    "edge_quadratic_1e-9": (lambda: _pair(_UNIT, quadratic([[1e-9]])), [0.0, 0.0],
                            False, True),
}


@pytest.mark.parametrize("case", UNIQUENESS_CASES.values(), ids=UNIQUENESS_CASES.keys())
def test_uniqueness_conditions(case):
    build, y_star, outer, inner = case
    rep = check_uniqueness_conditions(build(), np.array(y_star))
    assert rep.outer_strict is outer
    assert rep.inner_strict is inner
    assert rep.stationarity_residual <= 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000),
       n=st.integers(min_value=2, max_value=4))
def test_reconfiguration_shift_law(seed, n):
    # alpha is the edge difference of the retarget displacement and beta
    # the flow correction: -E (g(y0) + beta) realizes u*(y_star)
    rng = np.random.default_rng(seed)
    g = rand_connected_graph(rng, n)
    agents = [meicmp_linear_agent(rng, 1, anchor=rng.normal(size=1))
              for _ in range(n)]
    prob = assemble(g, agents,
                    [nonlinear_integrator(quadratic(np.eye(1)))] * g.edge_count)
    from couplednet.netopt import solve_opp
    y0, _, _ = solve_opp(prob)

    # build a forcible target: adjust the last node to balance the sum
    y_star = y0 + rng.normal(size=n)
    need = -sum(inverse(ss_relation(agents[i]), y_star[i:i+1]).min_norm()
                for i in range(n - 1))
    y_star[n - 1] = forward(ss_relation(agents[n - 1]), need).min_norm()[0]

    alpha, beta = reconfiguration_offsets(prob, y0, y_star)
    assert np.allclose(alpha, prob.op.lifted.T @ (y_star - y0), atol=1e-8)
    mu_new = g_map(prob, y0) + beta
    u_star = -prob.op.lifted @ mu_new
    for i in range(n):
        assert inverse(ss_relation(agents[i]), y_star[i:i+1]).distance(
            u_star[i:i+1]) <= 1e-6


def _sum_min_norm(agents, y_star, d):
    """Min-norm element of S = sum_i k_i^-1(y*_i) from each agent's dc gain.

    k_i(u) = G_i u + v_i, so k_i^-1(y_i) = G_i^+ (y_i - v_i) + null(G_i)
    and S is the sum of those basepoints plus the span of the null spaces.
    """
    base, null = np.zeros(d), []
    for i, a in enumerate(agents):
        G = a.C @ np.linalg.solve(-a.A, a.B) + a.T
        v = a.C @ np.linalg.solve(-a.A, a.w)
        base += np.linalg.pinv(G) @ (y_star[i * d:(i + 1) * d] - v)
        null.append(null_space(G))
    N = np.hstack(null)
    return base - N @ (np.linalg.pinv(N) @ base)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       n=st.integers(min_value=2, max_value=5),
       d=st.integers(min_value=1, max_value=2),
       forcible_target=st.booleans())
def test_flow_solve_matches_pinv_sum(seed, n, d, forcible_target):
    # zero-gain nodes output w whatever the input; the target pins them to w
    rng = np.random.default_rng(seed)
    g = rand_connected_graph(rng, n)
    agents = [linear_agent(-np.eye(d), np.zeros((d, d)), np.eye(d), w=rng.normal(size=d))
              if rng.random() < 0.25 else
              meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
              for _ in range(n)]
    ctrls = [nonlinear_integrator(quadratic(np.eye(d)))] * g.edge_count
    prob = assemble(g, agents, ctrls)
    if forcible_target:
        u = -prob.op.lifted @ rng.normal(size=g.edge_count * d)
        y_star = np.concatenate([forward(ss_relation(agents[i]), u[i * d:(i + 1) * d])
                                 .min_norm() for i in range(n)])
    else:
        y_star = rng.normal(size=n * d)
        for i, a in enumerate(agents):
            if not np.any(a.B):
                y_star[i * d:(i + 1) * d] = a.w

    z_ref = _sum_min_norm(agents, y_star, d)
    scale = 1.0 + np.linalg.norm(z_ref)
    rep = check_forcible(prob, y_star)
    assert abs(rep.residual - np.linalg.norm(z_ref)) <= 1e-9 * scale
    assert np.allclose(leader_input(prob, y_star, 0), z_ref, rtol=0.0, atol=1e-9 * scale)
    stat = check_uniqueness_conditions(prob, y_star).stationarity_residual
    assert abs(stat - np.linalg.norm(z_ref)) <= 1e-9 * scale

    if rep.forcible:
        assert np.array_equal(synthesize_linear(prob, y_star).xi, -g_map(prob, y_star))
    else:
        assert not forcible_target
        res = synthesize_linear(prob, y_star, leader=0)
        shifted = apply_leader(agents, 0, res.leader_input)
        assert check_forcible(assemble(g, shifted, ctrls), y_star).forcible
