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
from couplednet.couplers import PSI_RANGE, paper_psi
from couplednet.errors import (DimensionMismatch, NoConvergence,
                               SingularMatrix, UnsupportedKind)

from closed_loop_oracle import solve_equilibrium
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


# M of a damped oscillator that has no well-defined steady state
BAD_OSCILLATOR_M = {
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "inf": [[np.inf, 0.0], [0.0, 1.0]],
    "singular": [[1.0, 2.0], [2.0, 4.0]],
    "ill_conditioned": [[1.0, 0.0], [0.0, 1e-14]],
}


@pytest.mark.parametrize("case", sorted(BAD_OSCILLATOR_M))
def test_oscillator_refuses_non_invertible_M(case):
    with pytest.raises(SingularMatrix):
        P.damped_oscillator_agent(BAD_OSCILLATOR_M[case], np.eye(2))


def test_oscillator_accepts_M_at_the_condition_bound():
    osc = P.damped_oscillator_agent([[1.0, 0.0], [0.0, 1e-13]], np.eye(2))
    assert osc.M[1, 1] == 1e-13


def _affine_kinds():
    """One agent of each kind with an affine steady-state relation, each led."""
    z = np.array([0.3, -0.7])
    M = np.array([[2.0, 0.5], [0.0, 1.0]])
    B = np.array([[1.0, 0.2], [-0.3, 1.5]])
    J = np.array([[0.0, 0.5], [-0.5, 0.0]])
    # paper_psi damping, shifted and tilted so that grad psi(0) != 0
    psi_damping = R.shifted(R.scalar_separable(paper_psi, 2, PSI_RANGE),
                            shift=[0.4, -0.2], linear=[0.1, 0.3])

    def oscillator(psi):
        return P.damped_oscillator_agent(M, B, psi=psi, w=[0.5, -0.25],
                                         anchor=[1.0, -1.0], leader_offset=z)

    return {
        "linear_T_w": P.linear_agent(
            [[-2.0, 0.5], [0.0, -1.0]], [[1.0, 0.0], [0.5, 1.0]],
            [[1.0, 0.0], [0.0, 2.0]], T=[[0.5, 0.1], [0.1, 0.3]],
            w=[6.0, -1.0], leader_offset=z),
        "oscillator_undamped": oscillator(None),
        "oscillator_quadratic": oscillator(R.quadratic([[2.0, 0.3], [0.3, 1.0]], [0.2, -0.1])),
        "oscillator_paper_psi": oscillator(psi_damping),
        "gradient_quadratic_J_rho": P.convex_gradient_agent(
            R.quadratic([[3.0, 0.5], [0.5, 2.0]], [0.4, -0.6]), J=J, B=B,
            C=[[1.0, 0.5], [0.0, 1.0]], rho=[[0.2, 0.0], [0.05, 0.1]],
            w=[1.0, 2.0], leader_offset=z),
    }


@pytest.mark.parametrize("case", sorted(_affine_kinds()))
def test_rhs_vanishes_at_steady_state(case):
    # the rest point comes from rhs alone; its output must lie on ss_relation
    from scipy import optimize

    agent = _affine_kinds()[case]
    u = np.array([1.0, -0.5])
    sol = optimize.root(lambda x: P.rhs(agent, x, u), np.zeros(agent.state_dim),
                        method="hybr", tol=1e-13)
    assert np.linalg.norm(P.rhs(agent, sol.x, u)) <= 1e-12
    rel = P.ss_relation(agent)
    y_ss = rel.S @ u + rel.v
    y = P.output(agent, sol.x, u)
    assert np.linalg.norm(y - y_ss) <= 1e-10 * np.linalg.norm(y_ss)


def test_agent_form_folds_quadratic_psi():
    # psi = x'Px/2 + q'x leaves x' = (J - P) x + B u + w - q
    Pm = np.array([[3.0, 0.5], [0.5, 2.0]])
    J = np.array([[0.0, 0.5], [-0.5, 0.0]])
    agent = P.convex_gradient_agent(R.quadratic(Pm, [0.4, -0.6]), J=J, w=[1.0, 2.0])
    A, B, C, T, w, psi, idx = P.agent_form(agent)
    assert psi is None and idx == slice(None)
    assert np.array_equal(A, J - Pm) and np.array_equal(w, [0.6, 2.6])
    assert np.array_equal(T, np.zeros((2, 2)))


def test_agent_forms_match_one_at_a_time():
    # grouping by kind and shape must hand each agent its own form and relation
    kinds = _affine_kinds()
    quartic = P.convex_gradient_agent(
        R.function_sum([R.quadratic(np.eye(2)), R.scalar_separable(lambda t: t ** 3, 2)]))
    models = [kinds["oscillator_quadratic"], P.linear_agent([[-3.0]], [[1.0]], [[2.0]]),
              kinds["linear_T_w"], kinds["gradient_quadratic_J_rho"],
              kinds["oscillator_paper_psi"], quartic, kinds["oscillator_undamped"]]
    for model, form in zip(models, P.agent_forms(models)):
        one = P.agent_form(model)
        assert all(np.array_equal(a, b) for a, b in zip(form[:5], one[:5]))
        assert form[5] is one[5] and form[6] == one[6]
    affine = [m for m in models if m is not quartic]
    for model, rel in zip(affine, P.ss_relations(affine)):
        one = P.ss_relation(model)
        assert np.array_equal(rel.S, one.S) and np.array_equal(rel.v, one.v)


def test_zero_rho_is_not_feedthrough():
    psi = R.quadratic(np.eye(2))
    assert not P.has_feedthrough(P.convex_gradient_agent(psi, rho=np.zeros((2, 2))))
    assert P.has_feedthrough(P.convex_gradient_agent(psi, rho=0.1 * np.eye(2)))


def test_strongly_damped_oscillator_keeps_its_gain():
    # at rest p = 0, so damping far above M leaves S = (M')^-1 B well posed
    osc = P.damped_oscillator_agent(np.eye(2), 2.0 * np.eye(2),
                                    psi=R.quadratic(1e7 * np.eye(2)))
    assert np.allclose(P.ss_relation(osc).S, 2.0 * np.eye(2), rtol=0.0, atol=1e-12)


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
    res = solve_equilibrium(agent, u)
    assert res.residual <= 1e-10
    assert np.allclose(P.rhs(agent, res.x0, u), 0.0, atol=1e-9)


def test_solve_equilibrium_rejects_linear_agent():
    agent = P.linear_agent([[-1.0]], [[1.0]], [[1.0]])
    with pytest.raises(UnsupportedKind):
        solve_equilibrium(agent, [0.0])


def test_solve_equilibrium_unreachable_tol_raises():
    # hybr stops near 1e-16; no residual meets 1e-300
    with pytest.raises(NoConvergence):
        solve_equilibrium(_quartic_agent(), [1.0, -0.5], tol=1e-300)


def test_solve_equilibrium_leaves_scipy_stats_unimported():
    code = ("import sys\n"
            "import numpy as np\n"
            "from closed_loop_oracle import solve_equilibrium\n"
            "from couplednet import plants as P, relations as R\n"
            "psi = R.function_sum([R.quadratic(np.diag([2.0, 1.0])),\n"
            "                      R.scalar_separable(lambda t: t ** 3, 2)])\n"
            "J = np.array([[0.0, 0.5], [-0.5, 0.0]])\n"
            "solve_equilibrium(P.convex_gradient_agent(psi, J=J), [1.0, -0.5])\n"
            "assert 'scipy.stats' not in sys.modules\n")
    src = Path(couplednet.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
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
    res = solve_equilibrium(agent, u)
    assert res.residual <= 1e-8


def test_leader_offset_shifts_relation():
    a = P.linear_agent([[-2.0]], [[1.0]], [[1.0]], w=[6.0], leader_offset=[2.0])
    assert np.allclose(R.forward(P.ss_relation(a), [1.0]).min_norm(), [4.5])


def test_linear_agent_dimension_checks():
    with pytest.raises(DimensionMismatch):
        P.linear_agent([[-1.0]], [[1.0], [1.0]], [[1.0]])
    with pytest.raises(DimensionMismatch):
        P.linear_agent([[-1.0, 0.0]], [[1.0]], [[1.0]])
    with pytest.raises(DimensionMismatch, match="rho"):
        P.convex_gradient_agent(R.quadratic(np.eye(2)), rho=np.eye(3))


def test_singular_steady_state_matrix():
    # A singular: no well-defined dc map
    with pytest.raises(SingularMatrix):
        rel = P.ss_relation(P.linear_agent([[0.0]], [[1.0]], [[1.0]]))
        R.forward(rel, [1.0])
