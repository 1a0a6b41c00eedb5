import math

import numpy as np
import pytest

from couplednet import couplers as C
from couplednet import relations as R
from couplednet.errors import DimensionMismatch


def psi_pot(d=2):
    return R.scalar_separable(C.paper_psi, d, C.PSI_RANGE)


def test_integrator_dynamics_and_output():
    ic = C.nonlinear_integrator(psi_pot())
    assert np.allclose(C.controller_rhs(ic, [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])
    out = C.controller_output(ic, [1.0, -1.0], [9.0, 9.0])
    assert np.allclose(out, [0.28144022639456756, -0.1264499241801406])


def test_integrator_steady_state_relation():
    ic = C.nonlinear_integrator(psi_pot())
    rel = C.controller_ss_relation(ic)
    assert rel.kind is R.RelationKind.INTEGRATOR
    assert R.forward(rel, [0.1, 0.0]).is_empty
    gamma = C.controller_integral_fn(ic)
    assert R.value(gamma, [0.0, 0.0]) == 0.0
    assert R.value(gamma, [1.0, 0.0]) == math.inf


def test_integrator_initial_state():
    ic = C.nonlinear_integrator(psi_pot(), initial_state=[0.5, -0.5])
    assert np.allclose(ic.initial_state, [0.5, -0.5])
    default = C.nonlinear_integrator(psi_pot())
    assert np.allclose(default.initial_state, 0.0)


def test_linear_synthesis_dynamics():
    ls = C.linear_synthesis([1.0, 2.0])
    # eta' = -eta + zeta - offset, mu = eta
    assert np.allclose(C.controller_rhs(ls, [0.5, 0.5], [3.0, 3.0]), [1.5, 0.5])
    assert np.allclose(C.controller_output(ls, [0.5, 0.5], [3.0, 3.0]), [0.5, 0.5])


def test_linear_synthesis_steady_state():
    ls = C.linear_synthesis([1.0, 2.0])
    rel = C.controller_ss_relation(ls)
    assert np.allclose(R.forward(rel, [3.0, 3.0]).min_norm(), [2.0, 1.0])
    gamma = C.controller_integral_fn(ls)
    # integral of (zeta - offset): 0.5 |zeta|^2 - offset . zeta
    assert R.value(gamma, [3.0, 3.0]) == pytest.approx(0.0)
    assert R.value(gamma, [1.0, 1.0]) == pytest.approx(-2.0)


def test_reconfigured_shifts_input_and_output():
    ic = C.nonlinear_integrator(psi_pot())
    rc = C.reconfigured(ic, [0.5, 0.5], [0.1, 0.1])
    assert np.allclose(C.controller_rhs(rc, [0.0, 0.0], [1.0, 2.0]), [0.5, 1.5])
    expect = np.array([0.28144022639456756, -0.1264499241801406]) + 0.1
    assert np.allclose(C.controller_output(rc, [1.0, -1.0], [0.0, 0.0]), expect)


def test_reconfigured_steady_state_relation():
    ls = C.linear_synthesis([0.0, 0.0])
    rc = C.reconfigured(ls, [1.0, 1.0], [2.0, 2.0])
    rel = C.controller_ss_relation(rc)
    # gamma_rc(zeta) = gamma(zeta - alpha) + beta
    assert np.allclose(R.forward(rel, [3.0, 3.0]).min_norm(), [4.0, 4.0])


def test_nested_reconfigured_sums_offsets():
    a1, b1 = np.array([0.5, -0.2]), np.array([0.1, 0.3])
    a2, b2 = np.array([-0.1, 0.4]), np.array([0.2, -0.6])
    eta, zeta = np.array([1.0, -1.0]), np.array([0.7, 0.2])
    for base in (C.nonlinear_integrator(psi_pot()), C.linear_synthesis([0.3, -0.2])):
        nested = C.reconfigured(C.reconfigured(base, a1, b1), a2, b2)
        summed = C.reconfigured(base, a1 + a2, b1 + b2)
        assert nested.kind is base.kind
        assert np.allclose(C.controller_rhs(nested, eta, zeta),
                           C.controller_rhs(summed, eta, zeta), atol=1e-15)
        assert np.allclose(C.controller_output(nested, eta, zeta),
                           C.controller_output(summed, eta, zeta), atol=1e-15)
        rel_n, rel_s = C.controller_ss_relation(nested), C.controller_ss_relation(summed)
        for x in (zeta, a1 + a2, np.array([0.05, -0.1])):
            for op in (R.forward, R.inverse):
                got, want = op(rel_n, x), op(rel_s, x)
                assert got.kind is want.kind
                if not want.is_empty:
                    assert np.allclose(got.min_norm(), want.min_norm(), atol=1e-15)


def test_plain_controllers_have_zero_offsets():
    ic = C.nonlinear_integrator(psi_pot())
    assert np.array_equal(ic.alpha, [0.0, 0.0]) and np.array_equal(ic.beta, [0.0, 0.0])
    assert not ic.has_offsets
    assert C.controller_ss_relation(ic).kind is R.RelationKind.INTEGRATOR
    assert C.controller_integral_fn(ic).kind is R.FunctionKind.INDICATOR_ZERO


def test_paper_psi_vector_and_scalar_agree():
    xs = np.array([-800.0, -40.0, -3.0, -1.0, 0.0, 0.4, 2.0, 40.0, 800.0])
    vec = C.paper_psi(xs)
    sc = np.array([C.paper_psi(float(t)) for t in xs])
    assert np.array_equal(vec, sc)


def test_paper_psi_monotone_dense_grid():
    xs = np.linspace(-10.0, 10.0, 10_001)
    ps = C.paper_psi(xs)
    assert (np.diff(ps) >= 0.0).all()


def test_paper_psi_zero_increasing_and_quiet_at_800():
    assert C.paper_psi(0.0) == 0.0
    assert (np.diff(C.paper_psi(np.linspace(-25.0, 25.0, 5_001))) > 0.0).all()
    with np.errstate(all="raise"):
        tails = C.paper_psi(np.array([-800.0, 800.0]))
        assert math.isfinite(C.paper_psi(-800.0))
        assert math.isfinite(C.paper_psi(800.0))
    assert np.isfinite(tails).all()


def test_controller_dimension_checks():
    ic = C.nonlinear_integrator(psi_pot())
    with pytest.raises(DimensionMismatch):
        C.controller_rhs(ic, [0.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        C.reconfigured(ic, [1.0], [0.0, 0.0])
