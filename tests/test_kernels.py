import json
import re
import zlib
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from couplednet import _fastpath, cli
from couplednet.config import SCHEMA, load_config, parse_config
from couplednet.errors import UnsupportedKind
from couplednet.couplers import (PSI_RANGE, linear_synthesis,
                                 nonlinear_integrator, paper_psi,
                                 reconfigured)
from couplednet.netgraph import build_graph
from couplednet.plants import (convex_gradient_agent,
                               damped_oscillator_agent, linear_agent)
from couplednet.relations import quadratic, scalar_separable, shifted
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 default_initial_state, integrate,
                                 integrate_schedule)

import closed_loop_oracle as oracle
from conftest import bench_integrate, packed_jacobian, packed_rhs
from set_oracle import stacked

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
    # v holds the state, the paper_psi integrator's two columns and the constant 1
    pk = mixed_system().packed
    assert pk.psi_idx.size == 2 and pk.width == pk.dim + 2 + 1 == pk.psi_cols.stop + 1


def formation_segment():
    return cli._plan_segments(load_config(str(FORMATION)))[0][0]


def test_small_maps_go_dense_and_large_ones_stay_sparse():
    ring = bench_integrate().build_system
    cfg = parse_config(every_kind_doc())
    scattered = closed_loop(cfg.graph, cfg.agents, cfg.controllers)
    for system, dense in ((formation_segment(), True), (mixed_system(), True), (scattered, True),
                          (ring(16), False), (ring(256), False)):
        pk = system.packed
        assert (pk.dim * pk.width <= _fastpath.DENSE_MAX) == dense
        assert (pk.dense is not None) == dense


def test_packed_rhs_matches_step_rhs():
    system = mixed_system()
    v = _fastpath.rhs_buffer(system.packed)
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.normal(scale=2.0, size=system.state_dim)
        ref = oracle.step_rhs(system, s)
        fast = packed_rhs(system.packed, s, v)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


def unfolded_rhs(s, pk):
    """The packed rhs as bincount(row, w * [s ; paper_psi(s[psi_idx])]) + c,
    with c read back from the map's constant column."""
    body = pk.col < pk.dim + pk.psi_idx.shape[0]
    c = np.bincount(pk.row[~body], pk.w[~body], minlength=pk.dim)
    v = np.concatenate((s, paper_psi(s[pk.psi_idx])))
    return np.bincount(pk.row[body], pk.w[body] * v[pk.col[body]], minlength=pk.dim) + c


def assert_matches_unfolded(pk, states):
    """The kernel at each state against unfolded_rhs: bit for bit on the COO
    side. The dense side sums in BLAS order, so a row of k terms t may differ
    by the rounding of two summation orders, each within (k - 1) u sum|t|
    plus u sum|t| for the products (u = eps / 2): k eps sum|t| in all.
    paper_psi leaves the state in v intact."""
    v = _fastpath.rhs_buffer(pk)
    terms = np.bincount(pk.row, minlength=pk.dim)
    for s in states:
        got = packed_rhs(pk, s, v)
        assert np.array_equal(v[:pk.dim], s)
        ref = unfolded_rhs(s, pk)
        if pk.dense is None:
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        else:
            size = np.bincount(pk.row, np.abs(pk.w * v[pk.col]), pk.dim)
            assert np.all(np.abs(got - ref) <= terms * np.finfo(float).eps * size)


@pytest.mark.parametrize("network", ["formation", "ring16", "mixed"])
def test_packed_rhs_matches_unfolded_formula(network):
    system = {"formation": formation_segment, "mixed": mixed_system,
              "ring16": lambda: bench_integrate().build_system(16)}[network]()
    pk = system.packed
    assert pk.psi_idx.size and (pk.col == pk.dim + pk.psi_idx.size).any()
    rng = np.random.default_rng(17)
    states = rng.normal(scale=3.0, size=(20, pk.dim))
    states[:, pk.psi_idx] = (rng.uniform(-1.0, 1.0, (20, pk.psi_idx.size))
                             * np.resize([3.0, 900.0], 20)[:, None])
    assert_matches_unfolded(pk, states)


def test_saturated_psi_integrates_under_raising_errstate():
    # eta = 800 takes paper_psi's capped expm1, and 1 / ell is infinite
    # wherever eta passes 0; the loop must keep paper_psi's flags quiet
    # while a caller raises on every floating-point error
    system = mixed_system()
    s0 = default_initial_state(system)
    eta0 = system.agent_dim
    assert list(system.packed.psi_idx) == [eta0, eta0 + 1]
    s0[eta0:eta0 + 2] = [800.0, -800.0]
    opts = IntegrateOptions(tol=1e-8, record_every=0.5)
    with np.errstate(all="raise"):
        traj = integrate(system, s0, 2.0, opts)
    assert np.isfinite(traj.states).all()


def test_psi_reads_its_input_off_the_rhs_buffer():
    # formation's paper_psi states are one range, which the kernel reads as a
    # view of v; every_kind_doc's are scattered, read through psi_idx
    formation = formation_segment().packed
    lo = int(formation.psi_idx[0])
    assert formation.psi_src == slice(lo, lo + formation.psi_idx.size)
    cfg = parse_config(every_kind_doc())
    scattered = closed_loop(cfg.graph, cfg.agents, cfg.controllers).packed
    assert scattered.psi_src is scattered.psi_idx
    rng = np.random.default_rng(23)
    for pk in (formation, scattered):
        assert_matches_unfolded(pk, rng.normal(scale=3.0, size=(5, pk.dim)))


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
        fast = packed_rhs(nested.packed, s, v)
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
    pk = system.packed
    states, _ = _fastpath._rk45_loop(_fastpath._packed_rhs, _fastpath.rhs_buffer, pk, s0, 0.0,
                                     rec, 1e-10, 1e-3)
    assert np.array_equal(states[0], s0)
    for k in range(1, len(rec)):
        ref = integrate(system, s0, rec[k], IntegrateOptions(
            tol=1e-10, record_every=rec[k] / 2)).states[-1]
        assert np.allclose(states[k], ref, rtol=0.0, atol=1e-8), rec[k]


def test_one_step_is_the_textbook_dormand_prince_step():
    # Hairer, Norsett & Wanner, Solving ODEs I, II.5 (Table 5.2) and the
    # dense output of their DOPRI5 (II.6), written out apart from _DP and
    # _DP_P: one accepted step of x' = Mx from x0, recorded inside it. M is
    # fast enough that the error estimate, near tol, is not a sum that
    # cancels to a few digits, so the stages' last bits move it well below
    # rtol 1e-12 (at M / 5, an estimate of 1e-7, they move it by 8e-12)
    M = np.array([[-5.0, 10.0, 0.0], [-10.0, -5.0, 2.5], [1.5, 0.0, -15.0]])
    x0, h = np.array([1.0, -0.5, 2.0]), 0.05
    c = [0, F(1, 5), F(3, 10), F(4, 5), F(8, 9), 1, 1]
    a = [[], [F(1, 5)], [F(3, 40), F(9, 40)], [F(44, 45), F(-56, 15), F(32, 9)],
         [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
         [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)],
         [F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)]]
    b5 = a[6] + [0]
    b4 = [F(5179, 57600), 0, F(7571, 16695), F(393, 640), F(-92097, 339200),
          F(187, 2100), F(1, 40)]
    error = np.array([float(p - q) for p, q in zip(b5, b4)])  # b5 - b4, exact
    d = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
    k = []
    for i in range(7):
        assert sum(a[i]) == c[i]  # the tableau's row sums
        k.append(M @ (x0 + h * sum(float(aij) * kj for aij, kj in zip(a[i], k))))
    k = np.array(k)
    x1 = x0 + h * np.array(b5, dtype=float) @ k

    def dense(theta):
        diff = x1 - x0
        bspl = h * k[0] - diff
        return x0 + theta * (diff + (1 - theta) * (
            bspl + theta * (diff - h * k[6] - bspl + (1 - theta) * h * d @ k)))

    def rhs(v, pk, out):
        out[:] = M @ v[:3]

    rec = np.array([0.0, 0.3 * h, 0.7 * h, h])
    states, stats = _fastpath._rk45_loop(rhs, lambda pk: np.empty(3), None, x0, 0.0, rec,
                                         1e-3, h)
    assert (stats.nfev, stats.accepted, stats.rejected, stats.h_min) == (7, 1, 0, h)
    assert np.array_equal(states[0], x0)
    for got, want in zip(states[1:], (dense(0.3), dense(0.7), x1)):
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.isclose(stats.local_error, np.linalg.norm(h * error @ k),
                      rtol=1e-12, atol=0.0)


def oracle_states(system, s0, T, opts):
    """States _rk45_loop records on integrate's grid with the oracle rhs."""
    rec = np.linspace(0.0, T, int(round(T / opts.record_every)) + 1)

    def rhs(s, system, out):
        out[:] = oracle.step_rhs(system, s)

    return _fastpath._rk45_loop(rhs, lambda system: np.empty(s0.size), system, s0, 0.0, rec,
                                opts.tol, min(1e-3, T / 100.0))[0]


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


def sum_potential():
    """A block-separable sum of a paper_psi part and a quadratic part."""
    return stacked([scalar_separable(paper_psi, 1, PSI_RANGE), quadratic(0.5 * np.eye(1))])


def probe_network(kind):
    """Three nodes on a triangle, d = 2, with pieces of the named kind;
    "one_node" is a single agent with no edges."""
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
    elif kind == "psi_agent":
        agents[1] = convex_gradient_agent(psi2(), w=[0.1, 0.2])
    elif kind == "psi_damping":
        agents[2] = damped_oscillator_agent([[1.0, 0.2], [0.0, 1.0]], np.eye(2), psi=psi2(),
                                            anchor=[0.3, 0.1])
    elif kind == "sum_potential":
        ctrls[1] = nonlinear_integrator(sum_potential())
    elif kind == "shifted_potential":
        ctrls[2] = nonlinear_integrator(shifted(psi2(), shift=[0.3, -0.2]))
    elif kind == "both_sides":
        agents[0] = convex_gradient_agent(psi2(), w=[0.1, 0.2])
        agents[1] = linear_agent(-np.eye(2), np.eye(2), np.eye(2), T=[[0.5, 0.1], [0.1, 0.3]])
        ctrls[1] = nonlinear_integrator(sum_potential())
    elif kind == "shifted_psi_agent":
        agents[1] = convex_gradient_agent(shifted(psi2(), shift=[0.3, -0.2]))
    return closed_loop(build_graph(3, [(0, 1), (1, 2), (0, 2)]), agents, ctrls)


def assert_matches_the_oracle(system, seed):
    """The packed rhs and signals at 20 random states, and a 3 s run, against the oracle's."""
    pk = system.packed
    rng = np.random.default_rng(seed)
    v = _fastpath.rhs_buffer(pk)
    states = rng.normal(scale=2.0, size=(20, system.state_dim))
    for s in states:
        ref = oracle.step_rhs(system, s)
        fast = packed_rhs(pk, s, v)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))
    for a, b in zip(_fastpath.packed_signals(pk, states), oracle.signals(system, states)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * (1.0 + np.max(np.abs(b), initial=0.0))
    s0 = default_initial_state(system) + 0.1
    opts = IntegrateOptions(tol=1e-9, record_every=0.05)
    traj = integrate(system, s0, 3.0, opts)
    assert np.max(np.abs(traj.states[-1] - oracle_states(system, s0, 3.0, opts)[-1])) <= 1e-9


def formation_base():
    cfg = load_config(FORMATION)
    return closed_loop(cfg.graph, cfg.agents, cfg.controllers)


@pytest.mark.parametrize("network", [formation_base, lambda: probe_network("psi_agent")],
                         ids=["formation", "psi_agent"])
def test_packed_jacobian_matches_central_differences(network):
    # both have paper_psi columns: formation's integrators, the probe's agent and integrator
    system = network()
    assert system.packed.psi_idx.size > 0
    rng = np.random.default_rng(23)
    h = 1e-5  # rounding and truncation errors both stay near 1e-8 at formation's scale
    for s in rng.normal(size=(3, system.state_dim)):
        pk = system.packed
        fd = np.column_stack([(packed_rhs(pk, s + e) - packed_rhs(pk, s - e)) / (2 * h)
                              for e in h * np.eye(s.size)])
        assert np.max(np.abs(packed_jacobian(system.packed, s) - fd)) <= 1e-7


@pytest.mark.parametrize("kind", ["feedthrough", "psi_agent", "psi_damping", "one_node"])
def test_network_packs_and_matches_the_oracle(kind):
    # seeded by name, so adding or removing a probe leaves the others' draws alone
    assert_matches_the_oracle(probe_network(kind), zlib.crc32(kind.encode()))


# probes built of library pieces no config can say, each with the member it names
REFUSED = {"sum_potential": "controllers[1].potential",
           "shifted_potential": "controllers[2].potential",
           "both_sides": "controllers[1].potential", "shifted_psi_agent": "agents[1].psi"}


@pytest.mark.parametrize("kind", REFUSED)
def test_pack_refuses_what_no_config_builds(kind):
    with pytest.raises(UnsupportedKind, match=re.escape(REFUSED[kind] + ":")):
        probe_network(kind)


def every_kind_doc():
    """A config document holding one agent and one controller of every kind
    the config can say; the linear agent at node 0 has feedthrough and a
    leader offset, and its edges carry all three controller maps."""
    eye = np.eye(2).tolist()
    psi = {"kind": "paper_psi", "dim": 2}
    quad = {"kind": "quadratic", "P": [[1.0, 0.2], [0.2, 0.8]], "q": [0.1, -0.2]}
    M, B = [[1.0, 0.2], [-0.1, 1.2]], [[1.0, 0.1], [0.0, 0.9]]
    agents = [
        {"type": "linear", "A": [[-1.5, 0.2], [0.1, -1.0]], "B": eye, "C": eye,
         "T": [[0.5, 0.1], [0.1, 0.3]], "w": [0.1, 0.0], "leader_offset": [0.2, -0.1]},
        {"type": "oscillator", "M": M, "B": B, "anchor": [0.3, -0.1]},
        {"type": "oscillator", "M": M, "B": B, "damping": quad},
        {"type": "oscillator", "M": M, "B": B, "damping": psi, "w": [0.1, 0.2]},
        {"type": "convex_gradient", "psi": quad},
        {"type": "convex_gradient", "psi": psi, "J": [[0.0, 0.5], [-0.5, 0.0]],
         "w": [0.05, -0.1]},
    ]
    controllers = [
        {"type": "integrator", "potential": quad},
        {"type": "integrator", "potential": psi},
        {"type": "linear_synthesis", "offset": [0.1, -0.2]},
        {"type": "reconfigured", "inner": {"type": "integrator", "potential": psi},
         "alpha": [0.1, 0.0], "beta": [0.0, 0.05]},
        {"type": "reconfigured", "inner": {"type": "linear_synthesis", "offset": [0.0, 0.1]},
         "alpha": [-0.1, 0.2], "beta": [0.1, 0.0]},
        {"type": "integrator", "potential": quad},
        {"type": "integrator", "potential": psi},
    ]
    edges = [[0, 1], [2, 0], [0, 3], [1, 4], [2, 5], [3, 4], [4, 5]]
    return {"schema": SCHEMA, "graph": {"nodes": 6, "edges": edges},
            "agents": agents, "controllers": controllers}


def both_ends_doc():
    """every_kind_doc with feedthrough at node 1 too, so edge 0's zeta reads
    its own state through the outputs at both of its ends."""
    doc = every_kind_doc()
    doc["agents"][1] = dict(doc["agents"][0], T=[[0.3, -0.2], [0.15, 0.4]],
                            leader_offset=[0.1, 0.3])
    return doc


@pytest.mark.parametrize("command", ["predict", "check-cm"])
def test_every_kind_doc_is_outside_the_theory(tmp_path, capsys, command):
    # a valid document: its convex-gradient agents have no closed steady-state
    # relation, so predict and check-cm refuse it with the code of that case
    path = tmp_path / "every_kind.json"
    path.write_text(json.dumps(every_kind_doc()))
    with pytest.raises(SystemExit) as ex:
        cli.main([command, "--config", str(path), "--out", str(tmp_path)])
    assert ex.value.code == cli.EXIT_UNSUPPORTED == 4
    assert "outside the theory: UnsupportedKind" in capsys.readouterr().err


def test_every_config_kind_packs_whole():
    for name, doc in (("every_kind", every_kind_doc()), ("both_ends", both_ends_doc())):
        cfg = parse_config(doc)
        system = closed_loop(cfg.graph, cfg.agents, cfg.controllers)
        pk = system.packed
        # no component columns: v is [s ; paper_psi(s[psi_idx]) ; 1], here three paper_psi
        # integrators and two paper_psi agents
        assert pk.width == pk.psi_cols.stop + 1 and pk.psi_idx.size == 3 * 2 + 2 + 2
        assert_matches_the_oracle(system, zlib.crc32(name.encode()))


def test_each_packed_map_holds_an_entry_once():
    # every_kind_doc's node 0 has feedthrough, so its output reads edge 2's state,
    # which edge 2's leak reads too: one entry sums both
    docs = [parse_config(doc) for doc in (every_kind_doc(), both_ends_doc())]
    for system in [closed_loop(c.graph, c.agents, c.controllers) for c in docs] + [
            mixed_system(), formation_segment()]:
        pk = system.packed
        for row, col in ((pk.row, pk.col), (pk.sig_row, pk.sig_col)):
            key = row * pk.width + col
            assert np.unique(key).size == key.size


@pytest.mark.parametrize("seed", range(4))
def test_compose_matches_dense_products(seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.integers(1, 7, size=3)

    def coo(rows, cols):  # 20 entries on at most 36 places: rows, columns and places repeat
        return rng.integers(rows, size=20), rng.integers(cols, size=20), rng.normal(size=20)

    def dense(m, rows, cols):
        D = np.zeros((rows, cols))
        np.add.at(D, (m[0], m[1]), m[2])
        return D

    P, Q = coo(a, b), coo(b, c)
    PQ = _fastpath._compose(P, Q)
    row, col, val = _fastpath._coalesce(PQ)
    assert np.all(np.diff(row * c + col) > 0) and np.all(val != 0.0)  # once each, in order
    for product in (PQ, (row, col, val)):
        assert np.allclose(dense(product, a, c), dense(P, a, b) @ dense(Q, b, c),
                           rtol=1e-12, atol=1e-12)
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    for X, Y in ((empty, Q), (P, empty), (empty, empty)):
        assert all(part.size == 0 for part in _fastpath._compose(X, Y))


def two_node(agent0, agent1=None, ctrl=None):
    g = build_graph(2, [(0, 1)])
    agent1 = agent1 if agent1 is not None else linear_agent([[-1.0]], [[1.0]],
                                                            [[1.0]])
    ctrl = ctrl if ctrl is not None else linear_synthesis([0.0])
    return closed_loop(g, [agent0, agent1], [ctrl])


def test_pack_takes_zero_rho():
    # a zero rho adds no entries: the maps are those of the agent without one
    zero = two_node(convex_gradient_agent(quadratic(np.eye(1)), rho=[[0.0]])).packed
    none = two_node(convex_gradient_agent(quadratic(np.eye(1)))).packed
    assert zero.width == none.width == zero.psi_cols.stop + 1
    for name in ("row", "col", "w", "sig_row", "sig_col", "sig_w"):
        assert np.array_equal(getattr(zero, name), getattr(none, name))
