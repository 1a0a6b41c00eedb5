"""Post-processing by record blocks: the same bits and bytes as whole-array
passes, and no whole-trajectory temporaries."""
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from couplednet import _fastpath, cli
from couplednet.config import load_config
from couplednet.couplers import linear_synthesis
from couplednet.errors import DimensionMismatch
from couplednet.netgraph import build_graph
from couplednet.netopt import assemble, recover_certificate, solve_opp
from couplednet.plants import linear_agent
from couplednet.simulate import (IntegrateOptions, Trajectory, closed_loop,
                                 default_initial_state, detect_convergence, export_csv,
                                 integrate, integrate_schedule)

import closed_loop_oracle as loop_oracle
import whole_array_oracle as oracle
from conftest import bench_integrate

FORMATION = Path(__file__).resolve().parents[1] / "configs" / "formation.json"
BLOCK_BYTES = _fastpath.BLOCK_VALUES * 8


@pytest.fixture(scope="module")
def ring64():
    return bench_integrate().build_system(64)


@pytest.fixture(scope="module")
def formation():
    cfg = load_config(FORMATION)
    return closed_loop(cfg.graph, cfg.agents, cfg.controllers)


@pytest.fixture
def block_sizes(monkeypatch):
    """The records per block each block_rows call hands out, in call order."""
    sizes = []
    real = _fastpath.block_rows

    def spy(width):
        sizes.append(real(width))
        return sizes[-1]

    monkeypatch.setattr(_fastpath, "block_rows", spy)
    return sizes


def edge_counts(block):
    return [1, block - 1, block, block + 1, 3 * block + 2]


@pytest.mark.parametrize("network", ["formation", "ring64"])
def test_packed_signals_match_whole_array_formula(request, block_sizes, network):
    packed = request.getfixturevalue(network).packed
    rng = np.random.default_rng(8)
    # spread wide enough that some controller states saturate paper_psi
    states = rng.normal(size=(1, packed.dim)) * 10.0 ** rng.integers(-3, 3, (1, packed.dim))
    _fastpath.packed_signals(packed, states)
    block = block_sizes[-1]
    assert block > 2
    for records in edge_counts(block):
        states = rng.normal(size=(records, packed.dim)) * 10.0 ** rng.integers(
            -3, 3, (records, packed.dim))
        got = _fastpath.packed_signals(packed, states)
        want = oracle.packed_signals(packed, states)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), records


def test_packed_signals_are_the_per_record_oracle_signals(ring64):
    traj = integrate(ring64, default_initial_state(ring64), 0.2,
                     IntegrateOptions(record_every=0.005))
    want = loop_oracle.signals(ring64, traj.states)
    for a, b in zip((traj.u, traj.y, traj.zeta, traj.mu), want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))


def same_convergence(got, want):
    assert got.converged == want.converged
    assert np.array_equal(got.variation, want.variation, equal_nan=True)
    for a, b in ((got.y_ss, want.y_ss), (got.mu_ss, want.mu_ss)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b)


def settling_trajectory(system, records, ny, nmu, plateau, rng):
    """Transients decaying at random rates, constant from record plateau on."""
    times = np.linspace(0.0, 10.0, records)

    def signal(width):
        rates = rng.uniform(0.2, 5.0, width)
        decay = np.exp(-np.outer(times, rates)) * rng.normal(size=width)
        decay[plateau:] = decay[plateau]
        return rng.normal(size=width) + decay

    y, mu = signal(ny), signal(nmu)
    return Trajectory(system=system, times=times, states=np.zeros((records, 1)),
                      u=np.zeros((records, ny)), y=y, zeta=np.zeros((records, nmu)),
                      mu=mu)


@pytest.mark.parametrize("plateau", [0, 1, 148, 149, 299, 316, 570, 598])
@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.5, math.inf, math.nan])
def test_detect_convergence_matches_full_suffix_scan(ring64, plateau, tol):
    rng = np.random.default_rng(plateau)
    # 128 + 160 columns; the window starts at record 540, so the plateau
    # starts before it or inside it
    traj = settling_trajectory(ring64, 600, 128, 160, plateau, rng)
    if math.isnan(tol):
        # both refuse a NaN tol, which no variation would exceed
        for detect in (detect_convergence, oracle.detect_convergence):
            with pytest.raises(DimensionMismatch, match="tol: must be non-negative"):
                detect(traj, tol=tol)
    else:
        same_convergence(detect_convergence(traj, tol=tol),
                         oracle.detect_convergence(traj, tol=tol))


@pytest.mark.parametrize("tol", [math.nan, -1e-6, -math.inf])
def test_detect_convergence_refuses_nan_or_negative_tol(ring64, tol):
    # a NaN tol would pass every comparison against it as not exceeded
    traj = settling_trajectory(ring64, 600, 128, 160, 0, np.random.default_rng(0))
    with pytest.raises(DimensionMismatch, match="tol: must be non-negative"):
        detect_convergence(traj, tol=tol)


def test_detect_convergence_nan_before_window(ring64):
    traj = settling_trajectory(ring64, 600, 128, 160, 100, np.random.default_rng(1))
    traj.mu[200, 7] = math.nan
    got = detect_convergence(traj, tol=1e-6)
    assert got.converged
    same_convergence(got, oracle.detect_convergence(traj, tol=1e-6))


@pytest.mark.parametrize("row", [-1, -30, -60])
def test_detect_convergence_nan_in_window(ring64, row):
    traj = settling_trajectory(ring64, 600, 128, 160, 100, np.random.default_rng(2))
    traj.y[row, 3] = math.nan
    got = detect_convergence(traj, tol=1e-6)
    assert not got.converged and math.isnan(got.variation)
    same_convergence(got, oracle.detect_convergence(traj, tol=1e-6))


def test_detect_convergence_two_sample_window(ring64):
    traj = settling_trajectory(ring64, 101, 128, 160, 40, np.random.default_rng(3))
    window = traj.times[-1] - traj.times[-2]
    for tol in (1e-6, 1e-12):
        same_convergence(detect_convergence(traj, window=window, tol=tol),
                         oracle.detect_convergence(traj, window=window, tol=tol))
    with pytest.raises(DimensionMismatch, match="fewer than two"):
        detect_convergence(traj, window=0.5 * window)


@pytest.mark.parametrize("tol", [1.0, 2.0])
def test_detect_convergence_tol_met_exactly(ring64, tol):
    # a staircase 3, 2, 1, 0 whose suffix variations are whole numbers, tol among them
    traj = settling_trajectory(ring64, 600, 128, 160, 0, np.random.default_rng(6))
    traj.y[:, 5] = np.clip(3 - np.arange(600) // 97, 0, None).astype(float)
    got = detect_convergence(traj, tol=tol)
    assert got.converged
    same_convergence(got, oracle.detect_convergence(traj, tol=tol))


def test_detect_convergence_integrated_runs(ring64):
    runs = [integrate(ring64, default_initial_state(ring64), 2.0,
                      IntegrateOptions(record_every=0.005))]
    g = build_graph(2, [(0, 1)])
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]]),
              linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])]
    pair = closed_loop(g, agents, linear_synthesis([1.0]))
    runs.append(integrate(pair, default_initial_state(pair), 40.0, IntegrateOptions()))
    solo = closed_loop(build_graph(1, []), agents[:1], [])
    runs.append(integrate(solo, [1.0], 20.0, IntegrateOptions()))
    for traj in runs:
        for tol in (1e-6, 1e-3, 10.0):
            same_convergence(detect_convergence(traj, tol=tol),
                             oracle.detect_convergence(traj, tol=tol))


def wide_trajectory(system, records, rng):
    """Trajectory of system's width with mixed magnitudes and special values."""
    n, m = system.op.node_size, system.op.edge_size
    width = 2 * (n + m)
    fill = rng.normal(size=(records, width)) * 10.0 ** rng.integers(-300, 300, (records, width))
    fill[::7, :6] = [0.0, -0.0, math.inf, -math.nan, 5e-324, 1 / 3]
    return Trajectory(system=system, times=np.linspace(0.0, 1.0, records),
                      states=np.zeros((records, 1)), u=fill[:, n:2 * n], y=fill[:, :n],
                      zeta=fill[:, 2 * n:2 * n + m], mu=fill[:, 2 * n + m:])


def test_export_csv_matches_one_shot_writer(formation, tmp_path, block_sizes):
    rng = np.random.default_rng(4)
    export_csv(wide_trajectory(formation, 1, rng), tmp_path / "probe.csv")
    block = block_sizes[-1]
    assert block > 2
    for records in edge_counts(block):
        traj = wide_trajectory(formation, records, rng)
        export_csv(traj, tmp_path / "blocks.csv")
        oracle.export_csv(traj, tmp_path / "one_shot.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()


def test_export_csv_one_record_blocks_match_one_shot_writer(formation, tmp_path, monkeypatch):
    # rows as wide as ring256's make blocks of one record, which are written
    # without the "],[" scan; special values included (every 7th row)
    monkeypatch.setattr(_fastpath, "block_rows", lambda width: 1)
    traj = wide_trajectory(formation, 16, np.random.default_rng(5))
    export_csv(traj, tmp_path / "blocks.csv")
    oracle.export_csv(traj, tmp_path / "one_shot.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()


def segment_trajectories(system, counts, rng):
    """wide_trajectory segments of counts[k] records, each its own values."""
    return tuple(wide_trajectory(system, records, rng) for records in counts)


def test_export_csv_of_segments_matches_one_shot_writer_of_concatenation(
        formation, tmp_path, block_sizes):
    rng = np.random.default_rng(7)
    export_csv(wide_trajectory(formation, 1, rng), tmp_path / "probe.csv")
    block = block_sizes[-1]
    assert block > 2
    # records per segment; a later segment writes one row fewer, from its
    # second record on, so its blocks end one record later. The counts put
    # segment ends on, before and after block edges, and one segment of
    # two records writes a single row
    layouts = [[block + 1], [block + 3, 2 * block], [block, block + 1, 2, 3 * block],
               [block + 5, block + 6], [block + 5, block + 8], [block, 2, block + 1]]
    for counts in layouts:
        segs = segment_trajectories(formation, counts, rng)
        export_csv(segs, tmp_path / "segments.csv")
        oracle.export_csv(oracle.concatenate(segs), tmp_path / "one_shot.csv")
        assert (tmp_path / "segments.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()


def test_export_csv_refuses_segments_of_differing_layouts(tmp_path):
    ta, tb = (integrate(system, default_initial_state(system), 0.05)
              for system in (bench_integrate().build_system(n) for n in (4, 5)))
    path = tmp_path / "mixed.csv"
    with pytest.raises(DimensionMismatch):
        export_csv((ta, tb), path)
    assert not path.exists()


def traced_peak(fn):
    """(fn(), bytes its traced peak rose above the traced memory before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_post_processing_holds_no_whole_trajectory_temporary(ring64, tmp_path):
    init = default_initial_state(ring64)
    opts = IntegrateOptions(record_every=0.005)
    problem = assemble(ring64.graph, ring64.agents, ring64.controllers)
    cert = recover_certificate(problem, *solve_opp(problem)[:2])
    # with its certificate the run screens its trailing window of 20
    # records as it goes, and settles nowhere
    for certificate in (None, cert):
        integrate(ring64, init, 1.0, opts, certificate=certificate)
        traj, peak = traced_peak(
            lambda: integrate(ring64, init, 1.0, opts, certificate=certificate))
        arrays = sum(a.nbytes
                     for a in (traj.times, traj.states, traj.u, traj.y, traj.zeta, traj.mu))
        assert traj.metadata["t_stop"] == 1.0
        assert arrays > 1.5e6  # whole-trajectory temporaries would show
        assert peak - arrays <= 1 << 20
    conv, peak = traced_peak(lambda: detect_convergence(traj, tol=math.inf))
    assert conv.converged
    assert peak <= BLOCK_BYTES + (64 << 10)
    _, peak = traced_peak(lambda: export_csv(traj, tmp_path / "traj.csv"))
    assert peak <= BLOCK_BYTES + (128 << 10)


@pytest.fixture(scope="module")
def formation_schedule():
    """(plan, segment trajectories, traced peak) of formation's schedule."""
    plan = cli._plan_segments(load_config(FORMATION))
    init = default_initial_state(plan[0][0])
    opts = IntegrateOptions(tol=1e-8)
    # each segment records 501 records whatever its duration, so short
    # segments hold formation's whole schedule of arrays
    segments = [(system, 3.0) for system, _, _, _ in plan]
    integrate_schedule(segments[:1], init, opts)
    trajs, peak = traced_peak(lambda: integrate_schedule(segments, init, opts))
    return plan, trajs, peak


def test_integrate_schedule_holds_no_second_copy_of_the_segments(formation_schedule):
    _, trajs, peak = formation_schedule
    arrays = sum(a.nbytes for t in trajs
                 for a in (t.times, t.states, t.u, t.y, t.zeta, t.mu))
    assert len(trajs) == 5 and arrays > 1e6
    # the bound test_post_processing_holds_no_whole_trajectory_temporary
    # allows one integrate call
    assert peak - arrays <= 1 << 20


def test_schedule_segments_start_from_the_last_state_with_their_own_signals(
        formation_schedule):
    plan, trajs, _ = formation_schedule
    for (system, _, _, _), prev, seg in zip(plan[1:], trajs, trajs[1:]):
        assert seg.system is system and seg.times[0] == prev.times[-1]
        assert np.array_equal(seg.states[0], prev.states[-1])
        # the reconfigured controllers' output offsets differ at the boundary
        own = _fastpath.packed_signals(system.packed, seg.states[:1])
        assert np.array_equal(seg.mu[0], own[3][0])
        assert not np.array_equal(seg.mu[0], prev.mu[-1])
