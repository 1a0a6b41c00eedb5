import math
import re

import numpy as np
import pytest

from couplednet import couplers as C
from couplednet import relations as R
from couplednet.errors import DimensionMismatch, UnsupportedKind
from couplednet.netgraph import build_graph
from couplednet.netopt import assemble
from couplednet.plants import linear_agent
from couplednet.simulate import closed_loop

from closed_loop_oracle import controller_output, controller_rhs
from set_oracle import forward, inverse


def psi_pot(d=2):
    return R.scalar_separable(C.paper_psi, d, C.PSI_RANGE)


def edge_side(c):
    """The edge record of two unit-gain nodes joined by controller c."""
    d = c.io_dim
    node = linear_agent(-np.eye(d), np.eye(d), np.eye(d))
    return assemble(build_graph(2, [(0, 1)]), [node, node], [c]).edges


def test_integrator_dynamics_and_output():
    ic = C.nonlinear_integrator(psi_pot())
    assert np.allclose(controller_rhs(ic, [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])
    out = controller_output(ic, [1.0, -1.0], [9.0, 9.0])
    assert np.allclose(out, [0.28144022639456756, -0.1264499241801406])


def test_integrator_steady_state_relation():
    ic = C.nonlinear_integrator(psi_pot())
    rel = C.controller_ss_relation(ic)
    assert rel.kind is R.RelationKind.INTEGRATOR
    assert forward(rel, [0.1, 0.0]).is_empty
    gamma = edge_side(ic).Gamma
    assert gamma.value([0.0, 0.0]) == 0.0
    assert gamma.value([1.0, 0.0]) == math.inf


def test_integrator_initial_state():
    ic = C.nonlinear_integrator(psi_pot(), initial_state=[0.5, -0.5])
    assert np.allclose(ic.initial_state, [0.5, -0.5])
    default = C.nonlinear_integrator(psi_pot())
    assert np.allclose(default.initial_state, 0.0)


def test_linear_synthesis_dynamics():
    ls = C.linear_synthesis([1.0, 2.0])
    # eta' = -eta + zeta - offset, mu = eta
    assert np.allclose(controller_rhs(ls, [0.5, 0.5], [3.0, 3.0]), [1.5, 0.5])
    assert np.allclose(controller_output(ls, [0.5, 0.5], [3.0, 3.0]), [0.5, 0.5])


def test_linear_synthesis_steady_state():
    ls = C.linear_synthesis([1.0, 2.0])
    rel = C.controller_ss_relation(ls)
    assert np.allclose(forward(rel, [3.0, 3.0]).min_norm(), [2.0, 1.0])
    gamma = edge_side(ls).Gamma
    # integral of (zeta - offset): 0.5 |zeta|^2 - offset . zeta
    assert gamma.value([3.0, 3.0]) == pytest.approx(0.0)
    assert gamma.value([1.0, 1.0]) == pytest.approx(-2.0)


def test_reconfigured_shifts_input_and_output():
    ic = C.nonlinear_integrator(psi_pot())
    rc = C.reconfigured(ic, [0.5, 0.5], [0.1, 0.1])
    assert np.allclose(controller_rhs(rc, [0.0, 0.0], [1.0, 2.0]), [0.5, 1.5])
    expect = np.array([0.28144022639456756, -0.1264499241801406]) + 0.1
    assert np.allclose(controller_output(rc, [1.0, -1.0], [0.0, 0.0]), expect)


def test_reconfigured_steady_state_relation():
    ls = C.linear_synthesis([0.0, 0.0])
    rc = C.reconfigured(ls, [1.0, 1.0], [2.0, 2.0])
    rel = C.controller_ss_relation(rc)
    # gamma_rc(zeta) = gamma(zeta - alpha) + beta
    assert np.allclose(forward(rel, [3.0, 3.0]).min_norm(), [4.0, 4.0])


def test_nested_reconfigured_sums_offsets():
    a1, b1 = np.array([0.5, -0.2]), np.array([0.1, 0.3])
    a2, b2 = np.array([-0.1, 0.4]), np.array([0.2, -0.6])
    eta, zeta = np.array([1.0, -1.0]), np.array([0.7, 0.2])
    for base in (C.nonlinear_integrator(psi_pot()), C.linear_synthesis([0.3, -0.2])):
        nested = C.reconfigured(C.reconfigured(base, a1, b1), a2, b2)
        summed = C.reconfigured(base, a1 + a2, b1 + b2)
        assert nested.kind is base.kind
        assert np.allclose(controller_rhs(nested, eta, zeta),
                           controller_rhs(summed, eta, zeta), atol=1e-15)
        assert np.allclose(controller_output(nested, eta, zeta),
                           controller_output(summed, eta, zeta), atol=1e-15)
        rel_n, rel_s = C.controller_ss_relation(nested), C.controller_ss_relation(summed)
        for x in (zeta, a1 + a2, np.array([0.05, -0.1])):
            for op in (forward, inverse):
                got, want = op(rel_n, x), op(rel_s, x)
                assert got.kind is want.kind
                if not want.is_empty:
                    assert np.allclose(got.min_norm(), want.min_norm(), atol=1e-15)


def test_plain_controllers_have_zero_offsets():
    ic = C.nonlinear_integrator(psi_pot())
    assert np.array_equal(ic.alpha, [0.0, 0.0]) and np.array_equal(ic.beta, [0.0, 0.0])
    assert not ic.has_offsets
    assert C.controller_ss_relation(ic).kind is R.RelationKind.INTEGRATOR
    assert edge_side(ic).Gamma.pinned.all()


def test_controller_groups_reads_each_model():
    # every kind, bare and reconfigured, interleaved so that each group's rows
    # land at their own edges: (controller, leak, psi, L, q, offset)
    P, q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1])
    kinds = [(C.linear_synthesis([1.0, -2.0]), True, False, np.eye(2), [0.0, 0.0], [1.0, -2.0]),
             (C.nonlinear_integrator(R.quadratic(P, q)), False, False, P, q, [0.0, 0.0]),
             (C.nonlinear_integrator(psi_pot()), False, True, np.eye(2), [0.0, 0.0], [0.0, 0.0])]
    rows = kinds + [(C.reconfigured(c, [0.5, -0.25], [0.1, 0.2]), *form) for c, *form in kinds]
    rows = rows[::2] + rows[1::2]
    form = C.controller_groups([row[0] for row in rows], 2)
    rng = np.random.default_rng(8)
    for e, (c, *want) in enumerate(rows):
        leak, psi, L, q_e, offset, alpha, beta = (part[e] for part in form)
        assert (leak, psi) == tuple(want[:2])
        for got, expect in zip((L, q_e, offset, alpha, beta), (*want[2:], c.alpha, c.beta)):
            assert np.array_equal(got, expect)
        # the form's dynamics are the controller's
        eta, zeta = rng.normal(size=(2, 2))
        assert np.allclose(zeta - alpha - offset - leak * eta, controller_rhs(c, eta, zeta),
                           rtol=0.0, atol=1e-15)
        mu = (C.paper_psi(eta) if psi else L @ eta) + q_e + beta
        assert np.allclose(mu, controller_output(c, eta, zeta), rtol=0.0, atol=1e-15)


def test_a_shifted_paper_psi_potential_is_refused_by_both():
    # the network problem and the packed loop read one form, so they refuse
    # the same potentials with the same message
    c = C.nonlinear_integrator(R.shifted(psi_pot(), shift=[0.3, -0.2]))
    node = linear_agent(-np.eye(2), np.eye(2), np.eye(2))
    messages = []
    for build in (assemble, closed_loop):
        with pytest.raises(UnsupportedKind, match=re.escape("controllers[0].potential:")) as ex:
            build(build_graph(2, [(0, 1)]), [node, node], [c])
        messages.append(str(ex.value))
    assert messages[0] == messages[1]


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
        C.nonlinear_integrator(psi_pot(), initial_state=[0.0])
    with pytest.raises(DimensionMismatch):
        C.reconfigured(ic, [1.0], [0.0, 0.0])
