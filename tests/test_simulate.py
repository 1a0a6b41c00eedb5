import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet.couplers import linear_synthesis, nonlinear_integrator, reconfigured
from couplednet.errors import DimensionMismatch, NoConvergence, NonFiniteState
from couplednet.netgraph import build_graph
from couplednet.netopt import assemble, recover_certificate, solve_opp
from couplednet.plants import linear_agent
from couplednet.relations import quadratic
from couplednet.simulate import (ConvergenceResult, IntegrateOptions, closed_loop,
                                 compare_prediction, default_initial_state,
                                 detect_convergence, export_csv, integrate,
                                 integrate_schedule, prediction_report)

from conftest import meicmp_linear_agent, packed_rhs
from dense_oracle import agreement_basis, cycle_basis


def solo(agent):
    """One agent, no edges."""
    return closed_loop(build_graph(1, []), [agent], [])


def pair_system():
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])]
    ctrls = [linear_synthesis([1.0])]
    return g, agents, ctrls, closed_loop(g, agents, ctrls)


def test_closed_loop_shapes():
    _, _, _, system = pair_system()
    assert system.state_dim == 3
    assert system.agent_dim == 2 and system.ctrl_dim == 1
    assert system.io_dim == 1


def test_closed_loop_broadcasts_single_controller():
    g = build_graph(3, [(0, 1), (1, 2)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]) for _ in range(3)]
    system = closed_loop(g, agents, linear_synthesis([0.0]))
    assert len(system.controllers) == 2


def test_closed_loop_count_mismatch():
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]])]
    with pytest.raises(DimensionMismatch):
        closed_loop(g, agents, [linear_synthesis([0.0])])


def test_exponential_decay_accuracy():
    system = solo(linear_agent([[-1.0]], [[1.0]], [[1.0]]))
    traj = integrate(system, [1.0], 1.0, IntegrateOptions(tol=1e-10))
    assert traj.times[-1] == 1.0
    assert traj.y[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_wiring_identities_exact():
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 5.0,
                     IntegrateOptions())
    E = system.op.lifted
    assert np.array_equal(traj.zeta, traj.y @ E)
    assert np.array_equal(traj.u, -(traj.mu @ E.T))


def test_integrate_rejects_bad_horizon():
    _, _, _, system = pair_system()
    with pytest.raises(DimensionMismatch):
        integrate(system, default_initial_state(system), 0.0)


@pytest.mark.parametrize("T, t0", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                                   (1.0, -math.inf)])
def test_integrate_rejects_nonfinite_horizon_or_start(T, t0):
    _, _, _, system = pair_system()
    with pytest.raises(DimensionMismatch):
        integrate(system, default_initial_state(system), T, t0=t0)


def test_default_initial_state_uses_controller_state():
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]) for _ in range(2)]
    ctrls = [nonlinear_integrator(quadratic(np.eye(1)), initial_state=[0.7])]
    system = closed_loop(g, agents, ctrls)
    assert np.allclose(default_initial_state(system), [0.0, 0.0, 0.7])


def test_detect_convergence_and_steady_values():
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 40.0,
                     IntegrateOptions())
    conv = detect_convergence(traj)
    assert conv.converged and bool(conv)
    assert np.allclose(conv.y_ss, [0.8, 2.6], atol=1e-6)
    assert np.allclose(conv.mu_ss, [0.8], atol=1e-6)


def test_detect_convergence_rejects_transient():
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 0.5,
                     IntegrateOptions())
    conv = detect_convergence(traj, tol=1e-9)
    assert not conv.converged


def test_compare_prediction_matches_optimizer():
    g, agents, ctrls, system = pair_system()
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    traj = integrate(system, default_initial_state(system), 40.0,
                     IntegrateOptions())
    rep = compare_prediction(traj, cert)
    assert rep.passed
    assert rep.y_error_aligned <= 1e-5
    assert rep.mu_error_aligned <= 1e-5


def test_prediction_report_aligns_like_the_dense_bases(diamond_graph):
    # the diamond has one cycle, so mu's aligned gap drops a nonzero cycle part
    rng = np.random.default_rng(4)
    d = 2
    system = closed_loop(diamond_graph, [meicmp_linear_agent(rng, d) for _ in range(4)],
                         linear_synthesis(np.zeros(d)))
    op = system.op
    y_ss, mu_ss = rng.normal(size=op.node_size), rng.normal(size=op.edge_size)
    cert = dataclasses.make_dataclass("Cert", ["y", "mu"])(rng.normal(size=op.node_size),
                                                           rng.normal(size=op.edge_size))
    conv = ConvergenceResult(converged=True, y_ss=y_ss, mu_ss=mu_ss)
    rep = prediction_report(system, conv, cert, tol=1.0)
    A, C = agreement_basis(op), cycle_basis(op)
    dy, dmu = y_ss - cert.y, mu_ss - cert.mu
    assert np.linalg.norm(C.T @ dmu) > 0.1
    assert math.isclose(rep.y_error_aligned, np.linalg.norm(dy - A @ (A.T @ dy)), rel_tol=1e-12)
    assert math.isclose(rep.mu_error_aligned, np.linalg.norm(dmu - C @ (C.T @ dmu)),
                        rel_tol=1e-12)


def test_compare_prediction_needs_convergence():
    _, _, _, system = pair_system()
    g, agents, ctrls, _ = pair_system()
    prob = assemble(g, agents, ctrls)
    y, zeta, _ = solve_opp(prob)
    cert = recover_certificate(prob, y, zeta)
    traj = integrate(system, default_initial_state(system), 0.5,
                     IntegrateOptions())
    with pytest.raises(NoConvergence):
        compare_prediction(traj, cert, conv_tol=1e-10)


def test_integrate_schedule_runs_one_trajectory_per_segment():
    g, agents, ctrls, system = pair_system()
    # reconfigured: beta shifts the controller output, so mu
    system2 = closed_loop(g, agents, [reconfigured(ctrls[0], [0.0], [0.5])])
    opts = IntegrateOptions()
    first, second = integrate_schedule([(system, 5.0), (system2, 5.0)],
                                       default_initial_state(system), opts)
    assert first.system is system and second.system is system2
    assert first.times[0] == 0.0 and first.times[-1] == second.times[0] == 5.0
    assert second.times[-1] == pytest.approx(10.0)
    assert np.array_equal(second.states[0], first.states[-1])
    # the boundary's signals are each segment's own
    assert np.array_equal(second.y[0], first.y[-1])
    assert second.mu[0] - first.mu[-1] == pytest.approx(0.5)
    alone = integrate(system2, first.states[-1], 5.0, opts, t0=5.0)
    for name in ("times", "states", "u", "y", "zeta", "mu"):
        assert np.array_equal(getattr(second, name), getattr(alone, name))
    assert second.metadata == alone.metadata


def test_finite_time_blowup_aborts():
    from couplednet.errors import StepUnderflow
    # x' = 100 x from x = 1 passes the float range near t = 7.1
    system = solo(linear_agent([[100.0]], [[1.0]], [[1.0]]))
    with pytest.raises((NonFiniteState, StepUnderflow)):
        integrate(system, [1.0], 10.0, IntegrateOptions())


def test_nonfinite_rhs_raises():
    system = solo(linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[np.nan]))
    with pytest.raises(NonFiniteState):
        integrate(system, [1.0], 1.0)


def test_step_rhs_vanishes_at_steady_state():
    g, agents, ctrls, system = pair_system()
    traj = integrate(system, default_initial_state(system), 60.0,
                     IntegrateOptions(tol=1e-10))
    assert np.abs(packed_rhs(system.packed, traj.states[-1])).max() <= 1e-7


def test_export_csv_format(tmp_path):
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 1.0,
                     IntegrateOptions())
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,y[0.0],y[1.0],u[0.0],u[1.0],zeta[0.0],mu[0.0]"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), 7)
    assert np.array_equal(data, np.column_stack(
        [traj.times, traj.y, traj.u, traj.zeta, traj.mu]))


def test_export_csv_refuses_an_empty_schedule(tmp_path):
    path = tmp_path / "traj.csv"
    with pytest.raises(DimensionMismatch, match="no trajectory"):
        export_csv([], path)
    assert not path.exists()


def test_export_csv_special_values_parse_back_to_their_bits(tmp_path):
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 1.0,
                     IntegrateOptions())
    rows = len(traj.times)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300,
                        -1e300, 1e-300, -2.5e-300, 5e-324, 1 / 3, -7.0])
    fill = np.resize(special, (rows, 6))
    traj = dataclasses.replace(traj, y=fill[:, 0:2], u=fill[:, 2:4],
                               zeta=fill[:, 4:5], mu=fill[:, 5:6])
    path = tmp_path / "traj.csv"
    export_csv(traj, path)
    raw = path.read_bytes()
    assert raw.startswith(b"t,y[0.0],y[1.0],u[0.0],u[1.0],zeta[0.0],mu[0.0]\r\n")
    assert raw.count(b"\r\n") == rows + 1 and raw.count(b"\n") == rows + 1
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.column_stack([traj.times, traj.y, traj.u, traj.zeta, traj.mu])
    nan = np.isnan(data)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.int64), data[~nan].view(np.int64))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       counts=st.lists(st.integers(min_value=2, max_value=320), min_size=1, max_size=3),
       special=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                        | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                                           -math.nan, 5e-324, -2.2250738585072009e-308]),
                        max_size=40))
def test_export_csv_random_bit_patterns_parse_back_to_their_bits(tmp_path_factory, seed,
                                                                  counts, special):
    # segments of random float64 bit patterns, some values drawn special;
    # a segment of up to 320 records spans up to three blocks of rows
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 1.0, IntegrateOptions())
    rng = np.random.default_rng(seed)
    segs = []
    for k, rows in enumerate(counts):
        fill = rng.integers(0, 2 ** 64, size=(rows, 6), dtype=np.uint64).view(np.float64)
        at = rng.integers(0, fill.size, len(special))
        fill.ravel()[at] = special
        segs.append(dataclasses.replace(traj, times=k + np.linspace(0.0, 1.0, rows),
                                        y=fill[:, 0:2], u=fill[:, 2:4],
                                        zeta=fill[:, 4:5], mu=fill[:, 5:6]))
    path = tmp_path_factory.mktemp("bits") / "traj.csv"
    export_csv(segs, path)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    tables = [np.column_stack([seg.times, seg.y, seg.u, seg.zeta, seg.mu]) for seg in segs]
    data = np.concatenate([table[int(k > 0):] for k, table in enumerate(tables)])
    nan = np.isnan(data)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back[~nan].view(np.int64), data[~nan].view(np.int64))


def test_export_csv_never_forks(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("export_csv forked")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 1.0,
                     IntegrateOptions())
    rng = np.random.default_rng(5)
    for rows in (1, 501, 20_000):
        # a wide table of mixed magnitudes, special values among them
        fill = rng.normal(size=(rows, 6)) * 10.0 ** rng.integers(-300, 300, (rows, 6))
        fill[::97] = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1 / 3]
        wide = dataclasses.replace(traj, times=np.linspace(0.0, 1.0, rows),
                                   y=fill[:, 0:2], u=fill[:, 2:4],
                                   zeta=fill[:, 4:5], mu=fill[:, 5:6])
        export_csv(wide, tmp_path / "traj.csv")
        back = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1, ndmin=2)
        assert back.shape == (rows, 7)


def test_metadata_records_method_and_samples():
    _, _, _, system = pair_system()
    traj = integrate(system, default_initial_state(system), 1.0,
                     IntegrateOptions())
    assert len(traj.times) == 501
