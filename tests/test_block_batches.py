"""The flat network record against the per-item ladders of set_oracle.

assemble holds a network's node relations as stacked gains and its edge
terms as arrays, and netopt reads the node inverse sets k^-1(y) and the
node and edge pair residuals off them in closed form. These properties
draw networks (conftest.anchored_network, with anchors and integrator
offsets up to 1e6, some zero-gain nodes and some paper_psi integrators)
and compare those readings with set_oracle evaluating each agent's and
controller's relation on its own; the record itself with the one
dense_oracle lowers from the relation trees; and the duality gap at the
certificate with predict's bound.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplednet import netopt
from couplednet.couplers import (PSI_RANGE, ControllerKind, controller_ss_relation,
                                 linear_synthesis, nonlinear_integrator, paper_psi)
from couplednet.errors import EmptySelection, Infeasible, Unbounded, UnsupportedKind
from couplednet.netgraph import build_graph
from couplednet.plants import linear_agent, ss_relation
from couplednet.relations import (RelationKind, affine_relation, as_quadratic,
                                  gradient_relation, quadratic, scalar_separable)

import dense_oracle
import set_oracle
from conftest import anchored_network, rand_orth

REL = 1e-12
NETWORKS = dict(seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([1.0, 1e3, 1e6]),
                reconfigure=st.booleans())


def network(seed, scale, reconfigure):
    """anchored_network with about a fifth of its agents zero-gain (output
    w, input free) and half its integrators on the paper_psi potential,
    whose output range bounds mu; the problem, its parts and an rng."""
    graph, agents, ctrls = anchored_network(seed, scale, reconfigure)
    rng = np.random.default_rng([seed, 1])  # a stream of its own, not anchored_network's
    d = agents[0].io_dim
    agents = [linear_agent(-np.eye(d), np.zeros((d, d)), np.eye(d), w=scale * rng.normal(size=d))
              if rng.random() < 0.2 else a for a in agents]
    psi = scalar_separable(paper_psi, d, PSI_RANGE)
    ctrls = [replace(c, potential=psi)
             if c.kind is ControllerKind.NONLINEAR_INTEGRATOR and rng.random() < 0.5 else c
             for c in ctrls]
    return netopt.assemble(graph, agents, ctrls), agents, ctrls, rng


def outcome(fn):
    """(value, None) or (None, the class of the error fn raised)."""
    try:
        return fn(), None
    except (EmptySelection, UnsupportedKind) as exc:
        return None, type(exc)


def first_error(fns):
    """Per-item outcomes, and the error of the first item that raised."""
    outs = [outcome(fn) for fn in fns]
    return outs, next((err for _, err in outs if err is not None), None)


def off_graph(rng, points, scale, share=0.3):
    """points with about share of their rows redrawn at random."""
    points = points.copy()
    redraw = rng.random(len(points)) < share
    points[redraw] = scale * rng.normal(size=points[redraw].shape)
    return points


def node_points(rng, prob, scale):
    """(U, Y), rows (u_i, y_i) on node i's relation but for a redrawn few."""
    nodes = prob.nodes
    U = scale * rng.normal(size=nodes.v.shape)
    Y = np.einsum("kij,kj->ki", nodes.S, U) + nodes.v
    return off_graph(rng, U, scale), off_graph(rng, Y, scale)


def edge_points(rng, prob, scale):
    """(Z, M), rows (zeta_e, mu_e) on edge e's relation but for a redrawn few:
    zeta at the pin and mu inside [lo, hi] on an integrator, mu = grad
    Gamma_e(zeta) elsewhere."""
    edges = prob.edges
    gamma = edges.Gamma
    zeta = np.where(gamma.pinned, gamma.a, scale * rng.normal(size=gamma.q.size))
    mu = np.where(gamma.pinned, np.clip(rng.normal(size=zeta.size), edges.lo, edges.hi),
                  np.einsum("kij,kj->ki", gamma.P, zeta.reshape(len(gamma.P), -1)).ravel()
                  + gamma.q)
    rows = (len(gamma.P), -1)
    return off_graph(rng, zeta.reshape(rows), scale), off_graph(rng, mu.reshape(rows), scale)


@settings(max_examples=40, deadline=None)
@given(**NETWORKS)
def test_node_sets_and_residuals_match_the_ladders(seed, scale, reconfigure):
    prob, agents, _, rng = network(seed, scale, reconfigure)
    rels = [ss_relation(a) for a in agents]
    U, Y = node_points(rng, prob, scale)
    outs, err = first_error([lambda r=r, y=y: set_oracle.block_set(set_oracle.inverse, r, y)
                             for r, y in zip(rels, Y)])
    got, got_err = outcome(lambda: netopt.node_inverse(prob, Y))
    assert got_err is err
    if err is None:
        base = np.concatenate([b for (b, _), _ in outs])
        assert np.array_equal(got[1], np.concatenate([f for (_, f), _ in outs]))
        assert np.all(np.abs(got[0] - base) <= REL * (1.0 + scale))
    want = max(set_oracle.pair_residual(r, u, y) for r, u, y in zip(rels, U, Y))
    assert abs(netopt.node_residual(prob, U, Y) - want) <= REL * (1.0 + scale)


@settings(max_examples=40, deadline=None)
@given(**NETWORKS)
def test_edge_residuals_match_the_ladders(seed, scale, reconfigure):
    prob, _, ctrls, rng = network(seed, scale, reconfigure)
    Z, M = edge_points(rng, prob, scale)
    want = max(set_oracle.pair_residual(controller_ss_relation(c), z, m)
               for c, z, m in zip(ctrls, Z, M))
    assert abs(netopt.edge_residual(prob, Z, M) - want) <= REL * (1.0 + scale)


@settings(max_examples=40, deadline=None)
@given(**NETWORKS)
def test_record_is_the_record_of_the_relation_trees(seed, scale, reconfigure):
    prob, agents, ctrls, _ = network(seed, scale, reconfigure)
    tree = dense_oracle.controller_problem(prob.op, [ss_relation(a) for a in agents], ctrls)
    assert np.array_equal(prob.nodes.S, tree.nodes.S)
    assert np.array_equal(prob.nodes.v, tree.nodes.v)
    for side, name in [("nodes", "K"), ("nodes", "Kstar"), ("edges", "Gamma"),
                       ("edges", "Gammastar")]:
        got, want = getattr(getattr(prob, side), name), getattr(getattr(tree, side), name)
        assert np.array_equal(got.pinned, want.pinned), name
        pins = got.pinned
        for part in (got.P, got.q, got.c, got.a[pins]):
            assert np.all(np.isfinite(part)), name
        for a, b in [(got.P, want.P), (got.q, want.q), (got.c, want.c),
                     (got.a[pins], want.a[pins])]:
            assert np.allclose(a, b, rtol=1e-12, atol=REL * (1.0 + scale) ** 2), name
    assert np.array_equal(prob.edges.lo, tree.edges.lo)
    assert np.array_equal(prob.edges.hi, tree.edges.hi)


@settings(max_examples=40, deadline=None)
@given(**NETWORKS)
def test_duality_gap_at_the_certificate(seed, scale, reconfigure):
    prob, _, _, _ = network(seed, scale, reconfigure)
    try:
        y, zeta, _ = netopt.solve_opp(prob)
        cert = netopt.recover_certificate(prob, y, zeta)
    except (Infeasible, Unbounded):  # zero-gain nodes whose pins no y meets
        return
    gap = netopt.duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)
    assert abs(gap) <= 1e-8 * (1.0 + abs(netopt.opp_objective(prob, cert.y))
                               + abs(netopt.ofp_objective(prob, cert.mu)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the gap sums expanded quadratics of about anchor^2 each, so it "
                   "keeps their rounding when the objectives cancel to 0")
def test_duality_gap_at_a_common_large_anchor():
    # two nodes settle at their shared anchor: OPP and OFP are about 0 and
    # the certificate holds, but K*'s terms are about 1e12 and cancel to 1e-3
    w = 1.234567e6
    agents = [linear_agent([[-1.0]], [[1.0]], [[1.0]], w=[w]),
              linear_agent([[-2.2]], [[1.0]], [[1.0]], w=[2.2 * w])]
    prob = netopt.assemble(build_graph(2, [(0, 1)]), agents,
                           nonlinear_integrator(quadratic(np.eye(1))))
    y, zeta, _ = netopt.solve_opp(prob)
    cert = netopt.recover_certificate(prob, y, zeta)
    if not (np.allclose(cert.y, w, rtol=1e-15, atol=0.0) and cert.valid(1e-9)):
        pytest.fail("the certificate itself is off")  # not the defect this test pins
    gap = netopt.duality_gap(prob, cert.u, cert.mu, cert.y, cert.zeta)
    assert abs(gap) <= 1e-8 * (1.0 + abs(netopt.opp_objective(prob, cert.y))
                               + abs(netopt.ofp_objective(prob, cert.mu)))


def _lowered(rel):
    """(S, v) of an affine relation, or of the gradient of a quadratic as
    src lowers it: grad(1/2 x'Px + q'x + c) = P x + q."""
    if rel.kind is RelationKind.AFFINE:
        return rel.S, rel.v
    P, q, _ = as_quadratic(rel.chi)
    return P, q


@pytest.mark.parametrize("make", [lambda P, q: affine_relation(P, q),
                                  lambda P, q: gradient_relation(quadratic(P, q))],
                         ids=["affine", "gradient"])
def test_rotated_singular_inverse_is_refused_by_both(make):
    # the ladder and netopt's closed-form solution sets both refuse a
    # rotated singular gain, whose inverse set is a line off the axes
    rng = np.random.default_rng(4)
    q = rand_orth(rng, 2)
    P, off = q @ np.diag([1.3, 0.0]) @ q.T, rng.normal(size=2)
    rel, y = make(P, off), P @ rng.normal(size=2) + off
    with pytest.raises(UnsupportedKind):
        set_oracle.block_set(set_oracle.inverse, rel, y)
    S, v = _lowered(rel)
    with pytest.raises(UnsupportedKind):
        netopt._affine_solutions(S[None], (y - v)[None])


@pytest.mark.parametrize("rotated", [True, False], ids=["rotated", "aligned"])
def test_singular_gains_are_refused(rotated):
    # a rotated singular gain's inverse sets are lines off the coordinate
    # axes, which the ladder and the record's node sets both refuse; the
    # record refuses every singular nonzero gain, as K* has no closed form
    rng = np.random.default_rng(4)
    q = rand_orth(rng, 2) if rotated else np.eye(2)
    S = q @ np.diag([1.3, 0.0]) @ q.T
    agent = linear_agent(-np.eye(2), np.eye(2), S, w=rng.normal(size=2))
    rel = ss_relation(agent)
    y = S @ rng.normal(size=2) + rel.v
    if rotated:
        with pytest.raises(UnsupportedKind):
            set_oracle.block_set(set_oracle.inverse, rel, y)
        with pytest.raises(UnsupportedKind):
            netopt._affine_solutions(S[None], (y - rel.v)[None])
    with pytest.raises(UnsupportedKind):
        netopt.assemble(build_graph(2, [(0, 1)]), [agent, agent], linear_synthesis(np.zeros(2)))
