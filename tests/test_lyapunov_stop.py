"""A certified segment stops on a Lyapunov proof.

_fastpath.attraction_region turns a certificate into the packed state
s* the loop reaches from its start, solves J_r'P + P J_r = -I on the
conserved level, and bounds paper_psi's remainder by
relations.paper_psi_curvature_bound, input by input, so V = e'Pe
decreases on {V < c}. These tests check the region on a hand example and
on formation's segments, against the operator-norm bound it replaced,
the member s* and each stop against accurate runs, the stop itself, and
each case with no proof: that segment runs to its horizon and its
trailing window is judged there.
"""
import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest

from couplednet import _fastpath, cli
from couplednet.config import load_config
from couplednet.couplers import nonlinear_integrator
from couplednet.netgraph import DirectedGraph
from couplednet.netopt import assemble, recover_certificate, solve_opp
from couplednet.plants import linear_agent
from couplednet.relations import paper_psi, paper_psi_curvature_bound, quadratic, scalar_separable
from couplednet.simulate import (IntegrateOptions, closed_loop, default_initial_state,
                                 detect_convergence, integrate, integrate_schedule, stop_level)

from conftest import packed_rhs
from test_early_stop import FORMATION


def signals(cert):
    return np.concatenate([cert.y, cert.mu])


def hand_network(potential, w=3.0):
    """Two linear agents x' = -a x + u (+ w), y = x, joined by one integrator
    edge: three states. With w = 3 and paper_psi the loop settles at y = mu = 1."""
    graph = DirectedGraph(2, ((0, 1),))
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[w])]
    ctrls = [nonlinear_integrator(potential)]
    problem = assemble(graph, agents, ctrls)
    cert = recover_certificate(problem, *solve_opp(problem)[:2])
    return closed_loop(graph, agents, ctrls), cert


def operator_norm_c(pk, region):
    """The region's c as an operator-norm bound on paper_psi's remainder
    gives it: V' <= -q V + a M b^2 V^(3/2), with q = 1 / lambda_max(P),
    a = |P^1/2 N'W_psi| and b = |N[psi_idx] P^-1/2|, so c = (q / (a M b^2))^2."""
    w, U = np.linalg.eigh(region.P)
    a = np.linalg.norm((U * np.sqrt(w)) @ U.T @ region.N.T @ pk.dense[:, pk.psi_cols], 2)
    b = np.linalg.norm(region.N[pk.psi_idx] @ (U / np.sqrt(w)) @ U.T, 2)
    return (1.0 / w.max() / (a * paper_psi_curvature_bound() * b * b)) ** 2


def hand_regions():
    """(packed system, region from the origin) of the paper_psi hand network at
    w = 1, 2, 3 and 4: efforts mu = w / 3 inside paper_psi's range."""
    for w in (1.0, 2.0, 3.0, 4.0):
        system, cert = hand_network(scalar_separable(paper_psi, 1), w=w)
        yield system.packed, _fastpath.attraction_region(system.packed, np.zeros(3),
                                                          signals(cert))


@pytest.fixture(scope="module")
def formation_regions():
    """(plan, stopped, regions): the CLI's segment plan, its schedule run
    with the certificates, and each segment's region from its start."""
    cfg = load_config(FORMATION)
    opts, conv_tol, _, _ = cli._integrate_options(cfg)
    plan = cli._plan_segments(cfg)
    stopped = integrate_schedule([(system, T, cert) for system, T, cert, _ in plan],
                                 default_initial_state(plan[0][0]), opts, conv_tol)
    regions = [_fastpath.attraction_region(system.packed, traj.states[0], signals(cert))
               for (system, _, cert, _), traj in zip(plan, stopped)]
    return plan, stopped, regions


def assert_v_decreases(pk, region, count, rng):
    """V' < 0 at count points of {V <= c}, a quarter of them on its boundary:
    radii r sqrt(c) along P^-1/2 u, u on the unit sphere."""
    assert 0.0 < region.c < math.inf
    w, U = np.linalg.eigh(region.P)
    u = rng.normal(size=(count, w.shape[0]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = np.concatenate([rng.uniform(1e-3, 1.0, count - count // 4), np.ones(count // 4)])
    z = (r[:, None] * math.sqrt(region.c) * u) @ (U / np.sqrt(w)) @ U.T
    v = _fastpath.rhs_buffer(pk)
    for zk in z:
        s = region.s_star + region.N @ zk
        assert region.value(s) <= region.c * (1.0 + 1e-12)
        dV = 2.0 * zk @ region.P @ (region.N.T @ packed_rhs(pk, s, v))
        assert dV < 0.0


def test_v_decreases_on_every_sampled_point_of_the_region(formation_regions):
    system, cert = hand_network(scalar_separable(paper_psi, 1))
    assert cert.mu == pytest.approx([1.0], abs=1e-9)
    region = _fastpath.attraction_region(system.packed, np.zeros(3), signals(cert))
    assert region.N.shape == (3, 3)  # no conserved quantity: a tree of stable agents
    rng = np.random.default_rng(33)
    assert_v_decreases(system.packed, region, 4000, rng)
    plan, _, regions = formation_regions
    for (system, _, _, _), region in zip(plan, regions):
        assert_v_decreases(system.packed, region, 2000, rng)


def test_the_sector_bound_is_no_smaller_than_the_operator_norm_bound(formation_regions):
    plan, _, regions = formation_regions
    packs = [system.packed for system, *_ in plan]
    for pk, region in [*zip(packs, regions), *hand_regions()]:
        assert region.c >= operator_norm_c(pk, region)
    # formation's regions grow over a hundredfold
    assert min(r.c / operator_norm_c(pk, r) for pk, r in zip(packs, regions)) >= 100.0


def assert_inside_at_the_stop(system, traj, region):
    """The record that stopped traj is within stop_level's margin, in V's
    norm, of a run at tol 1e-11 from traj's start, so that run is inside
    {V < c} there."""
    meta, t0 = traj.metadata, traj.times[0]
    assert traj.convergence.proof == "lyapunov"
    accurate = integrate(system, traj.states[0], meta["t_stop"] - t0,
                         IntegrateOptions(tol=1e-11, record_every=meta["record_every"]),
                         t0).states[-1]
    z = (accurate - traj.states[-1]) @ region.N
    eps = math.sqrt(region.c) - math.sqrt(stop_level(region, meta["local_error"]))
    assert 0.0 < math.sqrt(z @ region.P @ z) <= eps
    assert region.value(accurate) < region.c


def test_an_accurate_run_is_inside_the_region_at_each_stop(formation_regions):
    plan, stopped, regions = formation_regions
    for (system, _, _, _), traj, region in zip(plan, stopped, regions):
        assert_inside_at_the_stop(system, traj, region)
    for w in (1.0, 2.0, 3.0):  # at w = 4 the run does not reach its small region in 10 s
        system, cert = hand_network(scalar_separable(paper_psi, 1), w=w)
        s0 = np.zeros(3)
        traj = integrate(system, s0, 10.0, certificate=cert)
        assert traj.metadata["t_stop"] < 10.0
        assert_inside_at_the_stop(system, traj, _fastpath.attraction_region(
            system.packed, s0, signals(cert)))


def mp_psi(x):
    ell = mpmath.log((mpmath.exp(x) + 1) / 2)
    return mpmath.asin(mpmath.sign(x) * ell ** 2 / (ell ** 2 + 1))


def test_the_curvature_bound_holds_against_mpmath():
    bound = paper_psi_curvature_bound()
    x = np.concatenate([np.linspace(-12.0, 12.0, 241), np.linspace(0.25, 0.4, 31)])
    with mpmath.workdps(30):
        second = np.array([float(mpmath.diff(mp_psi, mpmath.mpf(xk), 2)) for xk in x])
    assert np.max(np.abs(second)) <= bound <= 1.02 * np.max(np.abs(second))
    # the tails: paper_psi'' is about exp(x) below and 2 sqrt(2) / x^3 above, so
    # each derivative needs the digits beyond paper_psi's own (cf. mp_psi_prime)
    with mpmath.workdps(400):
        tails = [float(mpmath.diff(mp_psi, mpmath.mpf(xk), 2))
                 for xk in (-745.0, -100.0, -40.0, 40.0, 100.0, 1e4, 1e8)]
    assert all(abs(t) <= bound for t in tails)
    assert 0.0 <= tails[0] < 1e-300 and tails[3] < 0.0


@pytest.fixture(scope="module")
def formation_segment():
    cfg = load_config(FORMATION)
    system, T, cert, y_star = cli._plan_segments(cfg)[0]
    return system, T, cert, y_star, default_initial_state(system)


def test_the_member_is_where_a_long_accurate_run_ends(formation_segment):
    system, T, cert, _, s0 = formation_segment
    pk = system.packed
    region = _fastpath.attraction_region(pk, s0, signals(cert))
    assert region is not None
    v = np.concatenate([region.s_star, paper_psi(region.s_star[pk.psi_idx]), [1.0]])
    size = np.max(np.abs(pk.dense) @ np.abs(v))
    assert np.max(np.abs(packed_rhs(pk, region.s_star))) <= 1e-10 * size
    assert region.N.shape == (24, 22)  # one cycle, d = 2: two conserved quantities
    end = integrate(system, s0, 4 * T, IntegrateOptions(tol=1e-11)).states[-1]
    assert np.max(np.abs(region.s_star - end)) <= 1e-9


def test_a_segment_that_starts_in_its_region_stops_at_its_first_record_block():
    system, cert = hand_network(scalar_separable(paper_psi, 1))
    region = _fastpath.attraction_region(system.packed, np.zeros(3), signals(cert))
    start = region.s_star + 1e-3 * region.N[:, 0]
    assert region.value(start) <= 0.25 * region.c
    traj = integrate(system, start, 10.0, certificate=cert)
    assert traj.times.shape[0] == 2 and traj.metadata["t_stop"] == traj.times[1] < 10.0
    conv = traj.convergence
    assert conv.proof == "lyapunov"
    assert conv.variation <= stop_level(region, traj.metadata["local_error"])
    region = _fastpath.attraction_region(system.packed, start, signals(cert))
    y, mu = _fastpath.packed_outputs(system.packed, region.s_star[None])
    assert np.array_equal(conv.y_ss, y[0]) and np.array_equal(conv.mu_ss, mu[0])
    assert traj.prediction.passed


def no_region(system, cert, s0):
    return _fastpath.attraction_region(system.packed, s0, signals(cert)) is None


def test_a_coo_map_runs_to_its_horizon(formation_segment, monkeypatch):
    # no proof on a COO map, so the segment ends at its horizon and is judged
    # there by its trailing window; no record block is screened on the way
    system, T, cert, _, s0 = formation_segment
    coo = dataclasses.replace(system, packed=dataclasses.replace(system.packed, dense=None))
    assert no_region(coo, cert, s0)
    conv_tol = cli._integrate_options(load_config(FORMATION))[1]
    callers = []
    real = _fastpath.packed_outputs

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(_fastpath, "packed_outputs", counted)
    traj = integrate(coo, s0, T, certificate=cert, conv_tol=conv_tol)
    assert traj.metadata["t_stop"] == traj.times[-1] == T
    assert callers == ["packed_signals"]
    want = detect_convergence(traj, tol=conv_tol)
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(traj.convergence, f.name), getattr(want, f.name)), f.name
    assert traj.convergence.converged and traj.convergence.proof is None
    assert traj.prediction.passed


def test_a_singular_integrator_is_proven_only_where_its_effort_is_reached():
    # mu = 0 eta + q reads no eta, so eta' = y1 - y0 has no pull of its own. With
    # q = 2 the optimum's mu = 2 is reached, and eta = x0 - x1 / 2 - (its start)
    # is conserved, which fixes eta on the level: the member is (2, 2, 1)
    system, cert = hand_network(quadratic([[0.0]], [2.0]), w=6.0)
    assert cert.mu == pytest.approx([2.0])
    region = _fastpath.attraction_region(system.packed, np.zeros(3), signals(cert))
    assert region.N.shape == (3, 2) and region.c == math.inf  # linear: the whole level
    assert region.s_star == pytest.approx([2.0, 2.0, 1.0], abs=1e-12)
    # with q = 0.5 the optimum's mu = 2 is no steady state (predict refuses it), and
    # the window verdict at the horizon stays
    system, cert = hand_network(quadratic([[0.0]], [0.5]), w=6.0)
    assert cert.mu == pytest.approx([2.0])
    assert no_region(system, cert, np.zeros(3))


def test_an_effort_outside_psi_s_range_keeps_the_window_test():
    # w = 6 asks the paper_psi edge for mu = 2, above pi / 2
    system, cert = hand_network(scalar_separable(paper_psi, 1), w=6.0)
    assert cert.mu == pytest.approx([2.0])
    assert no_region(system, cert, np.zeros(3))


def test_another_segment_s_certificate_is_no_equilibrium(formation_segment):
    system, _, _, _, s0 = formation_segment
    cert1 = cli._plan_segments(load_config(FORMATION))[1][2]
    assert no_region(system, cert1, s0)
