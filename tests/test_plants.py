import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplednet
from couplednet import plants as P
from couplednet import relations as R
from couplednet.errors import (DimensionMismatch, NoConvergence,
                               SingularMatrix, UnsupportedKind)

from conftest import meicmp_linear_agent, rand_spd


def test_linear_agent_steady_state_relation():
    # x' = -2x + u + 6, y = x: steady y = (u + 6) / 2
    a = P.linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])
    rel = P.ss_relation(a)
    assert np.allclose(R.forward(rel, [1.0]).min_norm(), [3.5])
    assert np.allclose(R.inverse(rel, [3.5]).min_norm(), [1.0])


def test_linear_agent_rhs_and_output():
    a = P.linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0])
    assert np.allclose(P.rhs(a, [3.5], [1.0]), [0.0])
    assert np.allclose(P.output(a, [3.5], [1.0]), [3.5])


def test_linear_agent_feedthrough():
    a = P.linear_agent([[-1.0]], [[1.0]], [[1.0]], T=[[0.5]])
    assert P.has_feedthrough(a)
    assert np.allclose(P.output(a, [2.0], [4.0]), [4.0])
    b = P.linear_agent([[-1.0]], [[1.0]], [[1.0]])
    assert not P.has_feedthrough(b)


def test_oscillator_steady_state_gain():
    # S = (M')^-1 B, anchored at u = 0
    osc = P.damped_oscillator_agent([[2.0, 0.0], [0.0, 1.0]], np.eye(2),
                                    anchor=[1.0, -1.0])
    rel = P.ss_relation(osc)
    assert np.allclose(R.forward(rel, [0.0, 0.0]).min_norm(), [1.0, -1.0])
    assert np.allclose(R.forward(rel, [2.0, 2.0]).min_norm(), [2.0, 1.0])


def test_oscillator_rhs_vanishes_at_equilibrium():
    M = np.array([[2.0, 0.0], [0.0, 1.0]])
    osc = P.damped_oscillator_agent(M, np.eye(2), psi=R.quadratic(np.eye(2)),
                                    anchor=[1.0, -1.0])
    u = np.array([2.0, 2.0])
    q = np.linalg.solve(M.T, np.eye(2) @ u + osc.w)
    x = np.concatenate([q, np.zeros(2)])
    assert np.allclose(P.rhs(osc, x, u), 0.0, atol=1e-12)
    assert np.allclose(P.output(osc, x, u), q)


def test_meicmp_oscillator_classification():
    assert P.is_meicmp_oscillator([[2.0, 0.0], [0.0, 1.0]], np.eye(2)).verdict == "yes-strict"
    # (M')^-1 B skew: not a subgradient relation
    res = P.is_meicmp_oscillator([[0.0, 1.0], [-1.0, 0.0]], np.eye(2))
    assert res.verdict == "no"
    assert res.reason


def test_meicmp_linear_classification():
    assert P.is_meicmp_linear([[-1.0]], [[1.0]], [[1.0]]).verdict == "yes"
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert P.is_meicmp_linear(-np.eye(2), np.eye(2), rot).verdict == "no"


def test_meicmp_linear_random_construction(rng):
    for _ in range(5):
        a = meicmp_linear_agent(rng, 2)
        assert P.is_meicmp_linear(a.A, a.B, a.C).verdict == "yes"


def _quartic_agent():
    psi = R.function_sum([R.quadratic(np.diag([2.0, 1.0])),
                          R.scalar_separable(lambda t: t ** 3, 2)])
    return P.convex_gradient_agent(psi, J=np.array([[0.0, 0.5], [-0.5, 0.0]]))


def test_solve_equilibrium_convex_gradient():
    agent = _quartic_agent()
    u = np.array([1.0, -0.5])
    res = P.solve_equilibrium(agent, u)
    assert res.residual <= 1e-10
    assert np.allclose(P.rhs(agent, res.x0, u), 0.0, atol=1e-9)


def test_solve_equilibrium_rejects_linear_agent():
    agent = P.linear_agent([[-1.0]], [[1.0]], [[1.0]])
    with pytest.raises(UnsupportedKind):
        P.solve_equilibrium(agent, [0.0])


def test_solve_equilibrium_unreachable_tol_raises():
    # hybr stops near 1e-16; no residual meets 1e-300
    with pytest.raises(NoConvergence):
        P.solve_equilibrium(_quartic_agent(), [1.0, -0.5], tol=1e-300)


def test_solve_equilibrium_leaves_scipy_stats_unimported():
    code = ("import sys\n"
            "import numpy as np\n"
            "from couplednet import plants as P, relations as R\n"
            "psi = R.function_sum([R.quadratic(np.diag([2.0, 1.0])),\n"
            "                      R.scalar_separable(lambda t: t ** 3, 2)])\n"
            "J = np.array([[0.0, 0.5], [-0.5, 0.0]])\n"
            "P.solve_equilibrium(P.convex_gradient_agent(psi, J=J), [1.0, -0.5])\n"
            "assert 'scipy.stats' not in sys.modules\n")
    src = Path(couplednet.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_solve_equilibrium_random_quartic(seed):
    rng = np.random.default_rng(seed)
    quart = rng.uniform(0.1, 1.0)
    psi = R.function_sum([
        R.quadratic(rand_spd(rng, 2, 0.3, 2.0), rng.normal(size=2)),
        R.scalar_separable(lambda t, a=quart: a * t ** 3, 2),
    ])
    s = rng.normal()
    J = np.array([[0.0, s], [-s, 0.0]])
    agent = P.convex_gradient_agent(psi, J=J)
    u = rng.normal(size=2)
    res = P.solve_equilibrium(agent, u)
    assert res.residual <= 1e-8


def test_leader_offset_shifts_relation():
    a = P.linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0], leader_offset=[2.0])
    assert np.allclose(R.forward(P.ss_relation(a), [1.0]).min_norm(), [4.5])


def test_custom_agent_relation_passthrough():
    rel = R.affine_relation(np.eye(1), [1.0])
    a = P.custom_agent(1, 1, f=lambda x, u, w: -x + u + w, h=lambda x, u, w: x,
                       relation=rel)
    assert P.ss_relation(a) is rel
    assert np.allclose(P.rhs(a, [2.0], [1.0]), [-1.0])


def test_linear_agent_dimension_checks():
    with pytest.raises(DimensionMismatch):
        P.linear_agent([[-1.0]], [[1.0], [1.0]], [[1.0]])
    with pytest.raises(DimensionMismatch):
        P.linear_agent([[-1.0, 0.0]], [[1.0]], [[1.0]])


def test_singular_steady_state_matrix():
    # A singular: no well-defined dc map
    with pytest.raises(SingularMatrix):
        rel = P.ss_relation(P.linear_agent([[0.0]], [[1.0]], [[1.0]]))
        R.forward(rel, [1.0])
