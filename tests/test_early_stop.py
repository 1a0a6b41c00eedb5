"""A segment with a certificate ends on its proof, or else at its horizon.

Where _fastpath.attraction_region proves a region of attraction around
the certificate's member, integrate stops at the first record block
inside it, less a margin for the integration error (simulate.stop_level;
tests/test_lyapunov_stop.py checks the proof and the margin).
Elsewhere the segment runs to its horizon, and its trailing window (a
tenth of the scheduled duration) is judged there, at conv_tol and by
prediction_report against the certificate. These tests check that the
stop keeps the formation schedule's verdicts, that the verdict each
Trajectory carries is the public functions', that a wrong certificate
and a certified but unstable network run their full duration and are
judged once at their end, and how the stop is reported.
"""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import couplednet.simulate as sim
from couplednet import _fastpath, cli
from couplednet.config import load_config
from couplednet.couplers import nonlinear_integrator
from couplednet.errors import DimensionMismatch
from couplednet.netopt import assemble, recover_certificate, solve_opp
from couplednet.relations import quadratic
from couplednet.simulate import (PREDICTION_TOL, WINDOW, IntegrateOptions, closed_loop,
                                 compare_prediction, default_initial_state,
                                 detect_convergence, integrate, integrate_schedule,
                                 prediction_report)

from closed_loop_oracle import agent_forms
from conftest import bench_integrate, packed_jacobian, packed_rhs

FORMATION = Path(__file__).resolve().parents[1] / "configs" / "formation.json"
FULL_RHS_CALLS = 69_767  # formation's schedule with every segment run to its end
# the line perfbench's formation check reads from summary.txt
PERFBENCH_LINE = r"converged = True.*target_err_inf = (\S+), prediction_pass = True"


@pytest.fixture(scope="module")
def formation():
    """(plan, conv_tol, stopped, full): the CLI's segment plan, and its
    schedule run with the certificates and without them (every segment
    to its end)."""
    cfg = load_config(FORMATION)
    opts, conv_tol, _, _ = cli._integrate_options(cfg)
    plan = cli._plan_segments(cfg)
    init = default_initial_state(plan[0][0])
    stopped = integrate_schedule([(system, T, cert) for system, T, cert, _ in plan], init,
                                 opts, conv_tol)
    full = integrate_schedule([(system, T) for system, T, _, _ in plan], init, opts)
    return plan, conv_tol, stopped, full


def same_fields(got, want):
    """Results of one dataclass, equal field for field and array for array."""
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def test_formation_verdicts_survive_the_early_stop(formation):
    # each segment ends by proof, at its first record at or below stop_level
    plan, conv_tol, stopped, full = formation
    for (system, T, cert, y_star), early, whole in zip(plan, stopped, full):
        assert early.metadata["t_stop"] < whole.metadata["t_stop"] == whole.times[-1]
        conv = early.convergence
        assert conv.converged and conv.proof == "lyapunov"
        region = _fastpath.attraction_region(system.packed, early.states[0],
                                             np.concatenate([cert.y, cert.mu]))
        V = np.array([region.value(s) for s in early.states])
        level = sim.stop_level(region, early.metadata["local_error"])
        assert V[-1] <= level and np.all(V[:-1] > level)
        assert conv.variation == V[-1]
        y, mu = _fastpath.packed_outputs(system.packed, region.s_star[None])
        assert np.array_equal(conv.y_ss, y[0]) and np.array_equal(conv.mu_ss, mu[0])
        # the verdict integrate made is the public function's on that limit
        same_fields(early.prediction, prediction_report(system, conv, cert, PREDICTION_TOL))
        assert early.prediction.passed
        assert whole.prediction is None  # run without its certificate
        # the run to the end settles where the proof said, though it started
        # from the previous segment's end rather than its stop: both lie on
        # one conserved level
        window = detect_convergence(whole, tol=conv_tol)
        same_fields(whole.convergence, window)
        assert window and np.max(np.abs(window.y_ss - conv.y_ss)) <= conv_tol
        assert np.max(np.abs(whole.states[-1] - region.s_star)) <= 1e-6
        assert np.max(np.abs(conv.y_ss - y_star)) <= 1e-6
    nfev = sum(traj.metadata["nfev"] for traj in stopped)
    assert nfev <= 24_500 < 0.5 * FULL_RHS_CALLS
    assert nfev <= 0.5 * sum(traj.metadata["nfev"] for traj in full)


def test_stop_is_reported_and_the_schedule_keeps_its_times(formation):
    plan, conv_tol, stopped, _ = formation
    t_k = 0.0
    for k, ((_, T, _, _), traj) in enumerate(zip(plan, stopped)):
        assert traj.times[0] == t_k  # scheduled, not the previous stop
        if k:
            assert np.array_equal(traj.states[0], stopped[k - 1].states[-1])
        assert traj.metadata["horizon"] == T
        assert traj.metadata["t_stop"] == traj.times[-1] < t_k + T
        # the default window is a tenth of the scheduled horizon, not of the run
        default, tenth = (detect_convergence(traj, window=w, tol=conv_tol)
                          for w in (None, 0.1 * T))
        same_fields(default, tenth)
        t_k += T


def test_a_run_too_short_for_its_window_keeps_its_proof_verdict(formation):
    # segment 2 stops 3.0 s into its 30 s, within the default window
    plan, conv_tol, stopped, _ = formation
    traj, cert = stopped[2], plan[2][2]
    span = traj.times[-1] - traj.times[0]
    assert span <= WINDOW * traj.metadata["horizon"]
    for w in (None, 2.0 * span):
        assert detect_convergence(traj, window=w, tol=conv_tol) is traj.convergence
    same_fields(compare_prediction(traj, cert, PREDICTION_TOL, conv_tol=conv_tol),
                traj.prediction)
    # without a proof, the window still has to fit
    bare = dataclasses.replace(traj, convergence=None)
    with pytest.raises(DimensionMismatch, match="shorter than the window"):
        detect_convergence(bare, tol=conv_tol)


def test_wrong_certificate_runs_its_full_duration(formation, monkeypatch):
    # segment 0's loop settles on target 0, not on segment 1's certificate
    plan, conv_tol, stopped, full = formation
    calls = []
    real = sim.prediction_report

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(sim, "prediction_report", counted)
    traj = integrate(plan[0][0], stopped[0].states[0], 30.0, certificate=plan[1][2],
                     conv_tol=conv_tol)
    assert traj.metadata["t_stop"] == 30.0
    assert np.array_equal(traj.states, full[0].states)
    # judged once, at its end, and refused
    assert len(calls) == 1 and not calls[0].passed
    assert traj.prediction is calls[0]


def test_a_record_grid_too_coarse_to_judge_reads_not_converged(formation):
    # a record every 6 s leaves one record in the 3 s window: a run without a
    # certificate reads not converged; the proof needs no window, and ends the
    # certified run at its first record inside the region
    plan, conv_tol, stopped, _ = formation
    system, T, cert, _ = plan[0]
    opts = IntegrateOptions(record_every=6.0)
    traj = integrate(system, stopped[0].states[0], T, opts, conv_tol=conv_tol)
    assert traj.times.shape[0] == 6 and traj.metadata["t_stop"] == T
    assert not traj.convergence and traj.prediction is None
    traj = integrate(system, stopped[0].states[0], T, opts, certificate=cert, conv_tol=conv_tol)
    assert traj.times.tolist() == [0.0, 6.0] and traj.metadata["t_stop"] == 6.0
    assert traj.convergence.proof == "lyapunov" and traj.prediction.passed


def test_certified_but_unstable_network_runs_its_full_duration():
    # the oscillators' output is their position, so quadratic integrators
    # make the loop unstable at its certified steady state
    small = bench_integrate().build_system(3, seed=1)
    ctrls = [nonlinear_integrator(quadratic(np.eye(2)))] * small.graph.edge_count
    system = closed_loop(small.graph, small.agents, ctrls)
    problem = assemble(small.graph, small.agents, ctrls)
    cert = recover_certificate(problem, *solve_opp(problem)[:2])
    # started at the certificate: x* from each agent's form, eta* = mu* (L = I, mu0 = 0)
    d = system.io_dim
    x_star = [np.linalg.solve(A, -(B @ cert.u[i * d:(i + 1) * d] + w))
              for i, (A, B, _, _, w, _, _) in enumerate(agent_forms(system.agents))]
    s_star = np.concatenate(x_star + [cert.mu])
    assert np.max(np.abs(packed_rhs(system.packed, s_star))) <= 1e-12
    eigs = np.linalg.eigvals(packed_jacobian(system.packed, s_star))
    assert eigs.real.max() == pytest.approx(0.137, abs=1e-3)
    traj = integrate(system, s_star, 30.0, certificate=cert)
    assert traj.metadata["t_stop"] == traj.times[-1] == 30.0
    # no proof, so no early stop: its window at the end settles on the certificate
    conv = detect_convergence(traj)
    same_fields(traj.convergence, conv)
    assert conv and conv.proof is None
    assert traj.prediction and prediction_report(system, conv, cert, PREDICTION_TOL)


def test_summary_and_csv_end_each_segment_at_its_stop(tmp_path):
    doc = json.loads(FORMATION.read_text())
    doc["objective"]["targets"] = doc["objective"]["targets"][:2]
    doc["objective"]["durations"] = [30.0, 30.0]
    config = tmp_path / "two.json"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as ex:
        cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)])
    assert ex.value.code == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    stops = []
    for k, line in enumerate(lines):
        assert re.search(PERFBENCH_LINE, line) is not None
        assert line.startswith(f"segment {k}: converged = True, proof = lyapunov, y_ss = (")
        stop = re.fullmatch(r"segment \d: .*, prediction_pass = True, t_stop = (\S+)", line)
        stops.append(float(stop[1]))
        assert 30.0 * k < stops[-1] < 30.0 * (k + 1)
    t = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1, usecols=0)
    # segment 0 ends at its stop, and segment 1's first record, its start
    # state at t = 30, is the row at that stop: the rows go on from 30 + 0.06
    first = np.flatnonzero(t > 30.0)[0]
    assert t[first - 1] == pytest.approx(stops[0]) and t[first] == pytest.approx(30.06)
    assert t[-1] == pytest.approx(stops[1])
