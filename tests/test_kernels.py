from pathlib import Path

import numpy as np
import pytest

from couplednet import _fastpath, cli
from couplednet.config import load_config
from couplednet.couplers import (PSI_RANGE, custom_controller,
                                 linear_synthesis, nonlinear_integrator,
                                 paper_psi, reconfigured)
from couplednet.netgraph import build_graph
from couplednet.plants import (convex_gradient_agent, custom_agent,
                               damped_oscillator_agent, linear_agent)
from couplednet.relations import function_sum, quadratic, scalar_separable, shifted
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 default_initial_state, integrate,
                                 integrate_schedule, step_rhs)

import closed_loop_oracle as oracle
from conftest import bench_integrate

FORMATION = Path(__file__).resolve().parents[1] / "configs" / "formation.json"


def mixed_system():
    """One agent and one controller of every packable kind."""
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    M = np.array([[1.5, 0.3], [-0.2, 1.0]])
    agents = [
        damped_oscillator_agent(M, np.eye(2), psi=quadratic(2.0 * np.eye(2)),
                                anchor=[0.5, -0.2]),
        linear_agent(-2.0 * np.eye(2), np.eye(2), np.eye(2), w=[0.3, 0.1]),
        convex_gradient_agent(quadratic(np.eye(2), [0.2, -0.1])),
    ]
    ctrls = [
        nonlinear_integrator(scalar_separable(paper_psi, 2, PSI_RANGE)),
        reconfigured(linear_synthesis([0.1, -0.3]), [0.2, 0.0], [-0.1, 0.05]),
        nonlinear_integrator(quadratic(0.5 * np.eye(2), [0.05, 0.0])),
    ]
    return closed_loop(g, agents, ctrls)


def test_mixed_system_packs():
    assert not mixed_system().packed.sides


def test_packed_rhs_matches_step_rhs():
    system = mixed_system()
    v = _fastpath.rhs_buffer(system.packed)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.normal(scale=2.0, size=system.state_dim)
        ref = oracle.step_rhs(system, s)
        fast = _fastpath._packed_rhs(s, system.packed, v)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(step_rhs(system, s), fast)


def unfolded_rhs(s, pk):
    """The packed rhs as bincount(row, w * [s ; paper_psi(s[psi_idx])]) + c,
    with c read back from the map's constant column."""
    body = pk.col < pk.dim + pk.psi_idx.shape[0]
    c = np.bincount(pk.row[~body], pk.w[~body], minlength=pk.dim)
    v = np.concatenate((s, paper_psi(s[pk.psi_idx])))
    return np.bincount(pk.row[body], pk.w[body] * v[pk.col[body]], minlength=pk.dim) + c


@pytest.mark.parametrize("network", ["formation", "ring16"])
def test_packed_rhs_bits_match_unfolded_formula(network):
    if network == "formation":
        system = cli._plan_segments(load_config(str(FORMATION)))[0][0]
    else:
        system = bench_integrate().build_system(16)
    pk = system.packed
    assert pk.psi_idx.size and (pk.col == pk.dim + pk.psi_idx.size).any()
    rng = np.random.default_rng(17)
    v = _fastpath.rhs_buffer(pk)
    for k in range(20):
        s = rng.normal(scale=3.0, size=pk.dim)
        s[pk.psi_idx] = rng.uniform(-1.0, 1.0, pk.psi_idx.size) * (3.0, 900.0)[k % 2]
        ref = unfolded_rhs(s, pk).view(np.int64)
        assert np.array_equal(_fastpath._packed_rhs(s, pk, v).view(np.int64), ref)


def test_saturated_psi_integrates_under_raising_errstate():
    # exp(-|eta|) underflows in paper_psi at |eta| = 800; the loop must
    # keep that quiet while a caller raises on every floating-point error
    system = mixed_system()
    s0 = default_initial_state(system)
    eta0 = system.agent_dim
    assert list(system.packed.psi_idx) == [eta0, eta0 + 1]
    s0[eta0:eta0 + 2] = [800.0, -800.0]
    opts = IntegrateOptions(tol=1e-8, record_every=0.5)
    with np.errstate(all="raise"):
        traj = integrate(system, s0, 2.0, opts)
    assert np.isfinite(traj.states).all()


def test_nested_offsets_pack_like_summed_offsets():
    base = mixed_system()
    a1, b1 = np.array([0.3, -0.1]), np.array([0.2, 0.05])
    a2, b2 = np.array([-0.05, 0.2]), np.array([-0.4, 0.1])
    nested = closed_loop(base.graph, base.agents, [
        reconfigured(reconfigured(c, a1, b1), a2, b2) for c in base.controllers])
    summed = closed_loop(base.graph, base.agents, [
        reconfigured(c, a1 + a2, b1 + b2) for c in base.controllers])
    v = _fastpath.rhs_buffer(nested.packed)
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = rng.normal(scale=2.0, size=base.state_dim)
        ref = oracle.step_rhs(summed, s)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(oracle.step_rhs(nested, s) - ref)) <= 1e-12 * scale
        fast = _fastpath._packed_rhs(s, nested.packed, v)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * scale


def test_packed_run_reports_step_stats():
    system = mixed_system()
    s0 = default_initial_state(system)
    traj = integrate(system, s0, 5.0, IntegrateOptions(tol=1e-8))
    meta = traj.metadata
    assert meta["nfev"] == 6 * (meta["accepted"] + meta["rejected"]) + 1
    assert 0.0 < meta["h_min"] <= 5.0
    segments = integrate_schedule([(system, 5.0), (system, 5.0)], s0,
                                  IntegrateOptions(tol=1e-8))
    second = integrate(system, traj.states[-1], 5.0, IntegrateOptions(tol=1e-8),
                       t0=5.0)
    assert [seg.metadata for seg in segments] == [meta, second.metadata]


def test_dense_output_keeps_steps_independent_of_records():
    system = mixed_system()
    s0 = default_initial_state(system)
    fine = integrate(system, s0, 10.0, IntegrateOptions(tol=1e-8))
    coarse = integrate(system, s0, 10.0,
                       IntegrateOptions(tol=1e-8, record_every=5.0))
    assert len(fine.times) == 501 and len(coarse.times) == 3
    assert np.max(np.abs(fine.states[-1] - coarse.states[-1])) <= 1e-9
    assert fine.metadata["nfev"] <= 1.05 * coarse.metadata["nfev"]
    assert np.allclose(fine.states[250], coarse.states[1], rtol=0.0, atol=1e-9)


def test_uneven_record_times_match_runs_ending_there():
    system = mixed_system()
    s0 = default_initial_state(system)
    rec = np.array([0.0, 1e-4, 0.013, 0.4, 0.41, 1.7, 1.7001, 3.0])
    v = _fastpath.rhs_buffer(system.packed)

    def rhs(s):
        return _fastpath._packed_rhs(s, system.packed, v)

    states, _ = _fastpath._rk45_loop(rhs, s0, 0.0, rec, 1e-10, 1e-10, 1e-3)
    assert np.array_equal(states[0], s0)
    for k in range(1, len(rec)):
        ref = integrate(system, s0, rec[k], IntegrateOptions(
            tol=1e-10, record_every=rec[k] / 2)).states[-1]
        assert np.allclose(states[k], ref, rtol=0.0, atol=1e-8), rec[k]


def oracle_states(system, s0, T, opts):
    """States _rk45_loop records on integrate's grid with the oracle rhs."""
    rec = np.linspace(0.0, T, int(round(T / opts.record_every)) + 1)

    def rhs(s):
        return oracle.step_rhs(system, s)

    return _fastpath._rk45_loop(rhs, s0, 0.0, rec, opts.tol, opts.tol, min(1e-3, T / 100.0))[0]


def test_packed_matches_oracle_path():
    system = mixed_system()
    s0 = default_initial_state(system)
    opts = IntegrateOptions(tol=1e-10, record_every=0.01)
    fast = integrate(system, s0, 5.0, opts)
    assert np.allclose(fast.states, oracle_states(system, s0, 5.0, opts), rtol=0.0, atol=1e-9)
    for a, b in zip((fast.u, fast.y, fast.zeta, fast.mu), oracle.signals(system, fast.states)):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def psi2():
    return scalar_separable(paper_psi, 2, PSI_RANGE)


def probe_network(kind):
    """Three nodes on a triangle, d = 2, with pieces of the named kind the
    packed maps cannot hold; "one_node" is a single agent with no edges."""
    def lin(w):
        return linear_agent(-1.5 * np.eye(2), np.eye(2), np.eye(2), w=w)

    if kind == "one_node":
        return closed_loop(build_graph(1, []), [lin([0.2, -0.1])], [])
    agents = [lin([0.2, -0.1]), lin([-0.3, 0.1]), lin([0.0, 0.4])]
    ctrls = [linear_synthesis([0.1, -0.2]), nonlinear_integrator(psi2()),
             reconfigured(nonlinear_integrator(quadratic(np.eye(2))), [0.1, 0.0], [0.0, 0.2])]
    if kind == "feedthrough":
        agents[0] = linear_agent(-np.eye(2), np.eye(2), np.eye(2), T=[[0.5, 0.1], [0.1, 0.3]])
        agents[2] = convex_gradient_agent(quadratic(np.eye(2)), rho=0.2 * np.eye(2))
    elif kind == "callable_rho":
        agents[0] = convex_gradient_agent(quadratic(np.eye(2)), rho=lambda u: 0.2 * u)
    elif kind == "psi_agent":
        agents[1] = convex_gradient_agent(psi2(), w=[0.1, 0.2])
    elif kind == "psi_damping":
        agents[2] = damped_oscillator_agent([[1.0, 0.2], [0.0, 1.0]], np.eye(2), psi=psi2(),
                                            anchor=[0.3, 0.1])
    elif kind == "custom_agent":
        agents[1] = custom_agent(3, 2, f=lambda x, u, w: -x + np.r_[u, 0.0] + w,
                                 h=lambda x, u, w: x[:2] + 0.1 * u, w=[0.1, 0.0, 0.2])
    elif kind == "sum_potential":
        ctrls[1] = nonlinear_integrator(function_sum([psi2(), quadratic(0.5 * np.eye(2))]))
    elif kind == "shifted_potential":
        ctrls[2] = nonlinear_integrator(shifted(psi2(), shift=[0.3, -0.2]))
    elif kind == "custom_controller":
        # three states on a two-dimensional edge: the controllers after it shift
        ctrls[0] = custom_controller(2, 3, phi=lambda e, z: -e + np.r_[z, z[0]],
                                     out=lambda e, z: e[:2] + 0.1 * z,
                                     initial_state=[0.1, 0.0, 0.3])
    return closed_loop(build_graph(3, [(0, 1), (1, 2), (0, 2)]), agents, ctrls)


PROBES = ["feedthrough", "callable_rho", "psi_agent", "psi_damping", "custom_agent",
          "sum_potential", "shifted_potential", "custom_controller", "one_node"]


@pytest.mark.parametrize("kind", PROBES)
def test_network_packs_and_matches_the_oracle(kind):
    system = probe_network(kind)
    pk = system.packed
    assert pk.sides or kind == "one_node"
    rng = np.random.default_rng(PROBES.index(kind))
    v = _fastpath.rhs_buffer(pk)
    states = rng.normal(scale=2.0, size=(20, system.state_dim))
    for s in states:
        ref = oracle.step_rhs(system, s)
        fast = _fastpath._packed_rhs(s, pk, v)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
    for a, b in zip(_fastpath.packed_signals(pk, states), oracle.signals(system, states)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(b), initial=0.0))
    s0 = default_initial_state(system) + 0.1
    opts = IntegrateOptions(tol=1e-9, record_every=0.05)
    traj = integrate(system, s0, 3.0, opts)
    assert np.max(np.abs(traj.states[-1] - oracle_states(system, s0, 3.0, opts)[-1])) <= 1e-9


def two_node(agent0, agent1=None, ctrl=None):
    g = build_graph(2, [(0, 1)])
    agent1 = agent1 if agent1 is not None else linear_agent([[-1.0]], [[1.0]],
                                                            [[1.0]])
    ctrl = ctrl if ctrl is not None else linear_synthesis([0.0])
    return closed_loop(g, [agent0, agent1], [ctrl])


def test_pack_takes_zero_rho():
    a = convex_gradient_agent(quadratic(np.eye(1)), rho=[[0.0]])
    assert not two_node(a).packed.sides
