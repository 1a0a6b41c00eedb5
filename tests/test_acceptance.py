"""Acceptance gate: one test per shipped claim, at the stated tolerance.

Each test prints a single summary line (visible with -s or on failure);
the pytest -v report gives the one pass/fail line per criterion.
"""
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from closed_loop_oracle import solve_equilibrium
from conftest import meicmp_linear_agent, rand_connected_graph, rand_spd
from couplednet.cli import main
from couplednet.config import load_config
from couplednet.couplers import linear_synthesis, paper_psi
from couplednet.netgraph import build_graph, incidence
from couplednet.netopt import (assemble, duality_gap, problem_from_relations,
                               recover_certificate, solve_opp,
                               verify_steady_state)
from couplednet.plants import convex_gradient_agent, ss_relation
from couplednet.relations import (Sampler, affine_relation, check_cm,
                                  conjugate_value, cyclic_sum, forward,
                                  function_sum, quadratic, scalar_separable,
                                  subgradient, value)
from couplednet.simulate import (IntegrateOptions, closed_loop,
                                 compare_prediction, default_initial_state,
                                 detect_convergence, integrate)
from couplednet.synthesis import (apply_leader, check_forcible,
                                  synthesize_linear)

ROOT = Path(__file__).resolve().parent.parent
FORMATION = ROOT / "configs" / "formation.json"

FORMATION_TARGETS = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 2, 2, 3, 3, 4, 4],
    [1, 2, 3, 4, 5, 6, 7, 8],
    [-1, 0, 0, 0, 1, 0, 2, 2],
    [2, 2, 2, 2, 2, 2, -10, -10],
]


def settle(system, T=120.0):
    traj = integrate(system, default_initial_state(system), T,
                     IntegrateOptions(tol=1e-8))
    conv = detect_convergence(traj, tol=1e-6)
    assert conv.converged
    return traj, conv


def test_criterion_1_formation_schedule(tmp_path):
    t0 = time.monotonic()
    cfg = load_config(FORMATION)
    assert cfg.graph.edges == ((0, 1), (1, 2), (2, 3), (0, 2))
    assert cfg.objective.leader == 0
    for tgt, frozen in zip(cfg.objective.targets, FORMATION_TARGETS):
        assert np.array_equal(tgt, np.asarray(frozen, dtype=float))
    for a in cfg.agents:
        assert a.io_dim == 2
        assert np.linalg.cond(a.M) <= 10.0
        damp = 0.5 * (a.psi.P + a.psi.P.T)
        assert np.linalg.eigvalsh(damp).min() > 0.0

    with pytest.raises(SystemExit) as ex:
        main(["simulate", "--config", str(FORMATION), "--out", str(tmp_path)])
    assert ex.value.code == 0
    summary = (tmp_path / "summary.txt").read_text()
    lines = [ln for ln in summary.splitlines() if ln.startswith("segment")]
    assert len(lines) == 5
    errs = []
    for ln in lines:
        assert "converged = True" in ln and "prediction_pass = True" in ln
        errs.append(float(re.search(r"target_err_inf = ([\d.e+-]+)", ln)[1]))
    assert max(errs) <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(f"criterion 1: PASS - 5/5 segments, max |y_ss - y*|_inf = "
          f"{max(errs):.2e}, {elapsed:.1f} s")


def test_criterion_2_steady_state_matches_optimizer():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_err = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        g = rand_connected_graph(rng, n)
        agents = [meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
                  for _ in range(n)]
        ctrls = [linear_synthesis(0.5 * rng.normal(size=d))
                 for _ in range(g.edge_count)]
        problem = assemble(g, agents, ctrls)
        y, zeta, _ = solve_opp(problem)
        cert = recover_certificate(problem, y, zeta)
        gap = duality_gap(problem, cert.u, cert.mu, cert.y, cert.zeta)
        assert abs(gap) <= 1e-6
        system = closed_loop(g, agents, ctrls)
        traj, _ = settle(system)
        rep = compare_prediction(traj, cert, tol=1e-3)
        assert rep.passed
        worst_gap = max(worst_gap, abs(gap))
        worst_err = max(worst_err, rep.y_error_aligned)
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(f"criterion 2: PASS - 50/50 networks, worst aligned y error "
          f"{worst_err:.2e}, worst gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_3_cm_classification_soundness():
    rng = np.random.default_rng(777)
    agree = 0
    refuted = 0
    for i in range(100):
        d = 1 + i % 3
        category = i % 4
        if category in (0, 1):
            S = rand_spd(rng, d, 0.3, 2.5)
            expect_cm = True
        elif category == 2 or d == 1:
            eigs = rng.uniform(0.3, 2.0, d)
            eigs[int(rng.integers(0, d))] *= -1.0
            q, r = np.linalg.qr(rng.normal(size=(d, d)))
            q = q * np.sign(np.diag(r))
            S = q @ np.diag(eigs) @ q.T
            expect_cm = False
        else:
            K = rng.normal(size=(d, d))
            K = K - K.T
            K *= 3.0 / np.linalg.norm(K, 2)
            S = rand_spd(rng, d, 0.2, 0.6) + K
            expect_cm = False
        b = rng.normal(size=d)
        rel = affine_relation(S, b)
        res = check_cm(rel, Sampler(seed=1000 + i), cycles=10_000,
                       max_cycle_len=6)
        assert res.passed is expect_cm
        agree += 1
        if not res.passed:
            for u, y in res.witness:
                assert np.allclose(y, S @ u + b, atol=1e-10)
            s = cyclic_sum(res.witness)
            assert s == pytest.approx(res.witness_sum, rel=1e-12)
            assert s < -1e-9
            refuted += 1
    print(f"criterion 3: PASS - 100/100 verdicts agree with the eigenvalue "
          f"test, {refuted} refutations all carry verified negative cycles")


def test_criterion_4_conjugate_subgradient_numerics():
    rng = np.random.default_rng(4242)
    fy_pairs = 0
    worst_fy = 0.0
    worst_grad = 0.0
    for k in range(10):
        d = 1 + k % 3
        if k % 2 == 0:
            f = quadratic(rand_spd(rng, d, 0.4, 2.0), rng.normal(size=d))
        else:
            a = float(rng.uniform(0.2, 1.0))
            b = float(rng.uniform(0.2, 1.0))
            f = scalar_separable(lambda t, a=a, b=b: a * t ** 3 + b * t, d)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, d)
            gdesc = subgradient(f, x)
            gvec = gdesc.min_norm()
            fy = value(f, x) + conjugate_value(f, gvec) - gvec @ x
            assert abs(fy) <= 1e-6
            worst_fy = max(worst_fy, abs(fy))
            fy_pairs += 1
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                num = (value(f, x + e) - value(f, x - e)) / (2 * h)
                rel_err = abs(num - gvec[j]) / max(1.0, abs(gvec[j]))
                assert rel_err <= 1e-5
                worst_grad = max(worst_grad, rel_err)
    assert fy_pairs == 1000

    worst_conj = 0.0
    for _ in range(50):
        a = float(rng.uniform(0.3, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        d = int(rng.integers(1, 4))
        f = scalar_separable(lambda t, a=a, b=b: a * t + b, d)
        yv = rng.uniform(-3.0, 3.0, d)
        opts = {}
        num = conjugate_value(f, yv, opts)
        assert opts["path"] == "numeric"
        closed = float(np.sum((yv - b) ** 2) / (2 * a))
        rel_err = abs(num - closed) / max(1.0, abs(closed))
        assert rel_err <= 1e-5
        worst_conj = max(worst_conj, rel_err)
    print(f"criterion 4: PASS - 1000 Fenchel-Young pairs (worst "
          f"{worst_fy:.2e}), conjugate rel err {worst_conj:.2e}, "
          f"subgradient rel err {worst_grad:.2e}")


def test_criterion_5_equilibrium_solver_surrogate():
    rng = np.random.default_rng(555)
    worst_res = 0.0
    for i in range(20):
        d = 2 + i % 2
        P = rand_spd(rng, d, 0.5, 2.0)
        q = 0.5 * rng.normal(size=d)
        a = float(rng.uniform(0.1, 0.5))
        psi = function_sum([quadratic(P, q),
                            scalar_separable(lambda t, a=a: 4 * a * t ** 3, d)])
        K = rng.normal(size=(d, d))
        agent = convex_gradient_agent(psi, J=K - K.T,
                                      w=0.3 * rng.normal(size=d))
        eq = solve_equilibrium(agent, np.zeros(d))
        assert eq.residual <= 1e-8
        worst_res = max(worst_res, eq.residual)
        system = closed_loop(build_graph(1, []), [agent], [])
        x_init = eq.x0 + rng.normal(size=d)
        traj = integrate(system, x_init, 6.0, IntegrateOptions(tol=1e-8))
        vals = 0.5 * np.sum((traj.states - eq.x0) ** 2, axis=1)
        assert (np.diff(vals) <= 1e-6).all()
    print(f"criterion 5: PASS - 20/20 systems, worst equilibrium residual "
          f"{worst_res:.2e}, surrogate non-increasing")


def test_criterion_6_synthesis_soundness():
    rng = np.random.default_rng(66)
    for i in range(20):
        n = 2 + i % 3
        d = 1 + i % 2
        g = rand_connected_graph(rng, n)
        agents = [meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
                  for _ in range(n)]
        base = [linear_synthesis(np.zeros(d))] * g.edge_count
        problem = assemble(g, agents, base)
        E = problem.op.lifted
        xi = 0.7 * rng.normal(size=g.edge_count * d)
        u_star = E @ xi
        y_star = np.concatenate([
            forward(ss_relation(a), u_star[k * d:(k + 1) * d]).min_norm()
            for k, a in enumerate(agents)])
        res = synthesize_linear(problem, y_star)
        problem2 = assemble(g, agents, res.controllers)
        cand = (u_star, y_star, E.T @ y_star, -res.xi)
        assert verify_steady_state(problem2, cand, tol=1e-6).valid
        system = closed_loop(g, agents, res.controllers)
        _, conv = settle(system)
        assert np.max(np.abs(conv.y_ss - y_star)) <= 1e-3

    done = 0
    attempts = 0
    while done < 10:
        attempts += 1
        assert attempts < 100
        n = 2 + done % 3
        d = 1 + done % 2
        g = rand_connected_graph(rng, n)
        agents = [meicmp_linear_agent(rng, d, anchor=rng.normal(size=d))
                  for _ in range(n)]
        problem = assemble(g, agents,
                           [linear_synthesis(np.zeros(d))] * g.edge_count)
        y_star = 1.2 * rng.normal(size=n * d)
        if check_forcible(problem, y_star).forcible:
            continue
        E = problem.op.lifted
        rel = synthesize_linear(problem, y_star, mode="relative")
        system = closed_loop(g, agents, rel.controllers)
        _, conv = settle(system)
        assert np.linalg.norm(E.T @ conv.y_ss - E.T @ y_star) <= 1e-3
        led = synthesize_linear(problem, y_star, leader=0)
        agents2 = apply_leader(agents, 0, led.leader_input)
        system2 = closed_loop(g, agents2, led.controllers)
        _, conv2 = settle(system2)
        assert np.max(np.abs(conv2.y_ss - y_star)) <= 1e-3
        done += 1
    print("criterion 6: PASS - 20/20 forcible targets verified and reached, "
          "10/10 non-forcible targets handled by relative and leader modes")


def grid_min_2(s, b, p, q):
    """Exhaustive 1e-3 grid argmin for the 2-node chain objective."""
    axis = np.arange(-3.0, 3.0 + 1e-9, 1e-3)
    best = (np.inf, 0.0, 0.0)
    f1 = (axis - b[1]) ** 2 / (2 * s[1])
    for y0 in axis:
        zeta = axis - y0
        tot = (y0 - b[0]) ** 2 / (2 * s[0]) + f1 \
            + p[0] * zeta ** 2 / 2 + q[0] * zeta
        j = int(np.argmin(tot))
        if tot[j] < best[0]:
            best = (tot[j], y0, axis[j])
    return np.array(best[1:])


def grid_min_3(s, b, p, q, edges):
    """Coarse grid localizes the convex basin; 1e-3 grid refines it."""

    def objective(y0, y1, y2):
        tot = ((y0 - b[0]) ** 2 / (2 * s[0])
               + (y1 - b[1]) ** 2 / (2 * s[1])
               + (y2 - b[2]) ** 2 / (2 * s[2]))
        ys = (y0, y1, y2)
        for e, (t, h) in enumerate(edges):
            zeta = ys[h] - ys[t]
            tot = tot + p[e] * zeta ** 2 / 2 + q[e] * zeta
        return tot

    def argmin_over(ax0, ax1, ax2):
        best = (np.inf, 0.0, 0.0, 0.0)
        mesh1, mesh2 = np.meshgrid(ax1, ax2, indexing="ij")
        for y0 in ax0:
            tot = objective(y0, mesh1, mesh2)
            j = np.unravel_index(np.argmin(tot), tot.shape)
            if tot[j] < best[0]:
                best = (tot[j], y0, mesh1[j], mesh2[j])
        return np.array(best[1:])

    coarse_axis = np.arange(-3.0, 3.0 + 1e-9, 0.02)
    c = argmin_over(coarse_axis, coarse_axis, coarse_axis)
    fine = [np.arange(ci - 0.025, ci + 0.025 + 1e-9, 1e-3) for ci in c]
    return argmin_over(*fine)


def test_criterion_7_brute_force_grid_oracle():
    rng = np.random.default_rng(700)
    worst = 0.0
    cases = [(2, [(0, 1)]), (3, [(0, 1), (1, 2)]),
             (3, [(0, 1), (1, 2), (0, 2)])]
    for n, edges in cases:
        s = rng.uniform(0.5, 2.0, n)
        b = rng.uniform(-1.5, 1.5, n)
        m = len(edges)
        p = rng.uniform(0.3, 1.5, m)
        q = rng.uniform(-0.3, 0.3, m)
        op = incidence(build_graph(n, edges), 1)
        node_rels = [affine_relation([[s[i]]], [b[i]]) for i in range(n)]
        edge_fns = [quadratic([[p[e]]], [q[e]]) for e in range(m)]
        problem = problem_from_relations(op, node_rels, edge_fns)
        y_opt, _, _ = solve_opp(problem)
        if n == 2:
            y_grid = grid_min_2(s, b, p, q)
        else:
            y_grid = grid_min_3(s, b, p, q, edges)
        assert np.abs(y_grid).max() < 2.9
        err = np.max(np.abs(y_opt - y_grid))
        assert err <= 2e-3
        worst = max(worst, err)
    print(f"criterion 7: PASS - 3 instances, worst |y_opt - y_grid|_inf = "
          f"{worst:.2e}")


def test_criterion_8_psi_sanity():
    assert paper_psi(0.0) == 0.0
    grid = np.linspace(-10.0, 10.0, 10_000)
    vals = paper_psi(grid)
    assert (np.diff(vals) > 0.0).all()
    print("criterion 8: PASS - psi(0) = 0 exactly, 10^4-point grid strictly "
          "ascending on [-10, 10]")
