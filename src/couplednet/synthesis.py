"""Controller synthesis: forcibility, linear controllers, reconfiguration.

Decides whether a desired output y* can be forced as the network
steady state, builds edge controllers that force it, computes the
offsets that retarget running controllers to a new formation, and
computes the constant input a single leader node needs to force
outputs that are not forcible by coupling alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .couplers import linear_synthesis, reconfigured
from .errors import EmptyInverse, EmptySelection, IndexOutOfRange, NotForcible, UnsupportedKind
from .netopt import (NetworkProblem, PinnedQuadratic, min_norm_flow, node_inverse,
                     solve_network_qp)

# A flow routes when its residual is at most FORCIBLE_TOL * (1 + |rhs|), and y*
# is forcible when 0 lies within FORCIBLE_TOL of sum_i k_i^-1(y*_i); relative
# mode's shifted target must come within SHIFT_TOL.
FORCIBLE_TOL = 1e-8
SHIFT_TOL = 1e-6


def _node_set(problem: NetworkProblem, y):
    """k^-1(y), the product of the node inverse sets k_i^-1(y_i).

    Returned as (a, free): the set a + span(e_J) for the free
    coordinates J (those of zero-gain nodes).
    """
    try:
        return node_inverse(problem, y)
    except EmptySelection:
        raise EmptyInverse("a node relation has no input mapping to y*") from None


def _min_flow(problem: NetworkProblem, cat):
    """(mu, z): min-norm flow with -E mu in cat, min-norm z in S = sum_i cat_i.

    For cat = a + span(e_J), mu routes -a into every node coordinate
    off J over all edges, with the coordinates in J grounded: one
    min_norm_flow. The graph is connected, so per coordinate its
    residual r = E mu + a is the mean of a when no node is free there
    and 0 otherwise, and z = sum_i r_i is the min-norm element of S;
    ||z|| is the distance of 0 to S. mu is None unless ||r|| is at most
    FORCIBLE_TOL * (1 + ||rhs||), so a NaN residual routes nothing.
    """
    a, free = cat
    rhs = np.where(free, 0.0, -a)
    flow = min_norm_flow(problem.op, np.ones(problem.edge_size, dtype=bool), rhs,
                         grounded=free)
    r = flow.residual
    z = r.reshape(problem.op.node_count, problem.op.dim).sum(axis=0)
    mu = flow.mu
    if not np.linalg.norm(r) <= FORCIBLE_TOL * (1.0 + np.linalg.norm(rhs)):
        mu = None
    return mu, z


def _routed(mu):
    if mu is None:
        raise NotForcible("y is not forcible, no consistent flow exists")
    return mu


@dataclass(frozen=True)
class ForcibilityReport:
    """Outcome of the forcibility test 0 in sum_i k_i^-1(y*_i).

    residual is the distance of 0 to the set sum; witness is the
    per-node selection -E mu, for the minimum-norm flow mu, when forcible.
    """

    forcible: bool
    witness: Optional[np.ndarray]
    residual: float

    def __bool__(self) -> bool:
        return self.forcible


def _report(problem: NetworkProblem, mu, z) -> ForcibilityReport:
    residual = float(np.linalg.norm(z))
    if not residual <= FORCIBLE_TOL or mu is None:
        return ForcibilityReport(False, None, residual)
    return ForcibilityReport(True, -problem.op.matvec(mu), residual)


def check_forcible(problem: NetworkProblem, y_star) -> ForcibilityReport:
    """Test whether y* is forcible as a steady state by pure coupling."""
    return _report(problem, *_min_flow(problem, _node_set(problem, y_star)))


@dataclass(frozen=True)
class SynthesisResult:
    """Controllers forcing a target, with the data that produced them."""

    controllers: tuple
    xi: np.ndarray
    zeta_star: np.ndarray
    mode: str
    forcibility: ForcibilityReport
    y_target: np.ndarray
    leader_input: Optional[np.ndarray] = None
    leader: Optional[int] = None


def _agreement_shift(problem: NetworkProblem, y_star: np.ndarray) -> np.ndarray:
    """beta minimizing A(beta) = sum_i K*_i(y*_i + beta), by one exact solve.

    That is the potential problem with every edge pinned to E'y*, whose
    solutions are y* + 1 (x) beta on the connected graph.
    """
    op, d, m = problem.op, problem.op.dim, problem.op.edge_count
    Kstar = problem.nodes.Kstar
    pins = PinnedQuadratic(np.zeros((m, d, d)), np.zeros(op.edge_size), np.zeros(m),
                           np.ones(op.edge_size, dtype=bool), op.rmatvec(y_star) + 0.0)
    y, _ = solve_network_qp(op, Kstar, pins, y_star, FORCIBLE_TOL, Kstar.value)
    return (y - y_star).reshape(op.node_count, d).mean(axis=0)


def synthesize_linear(
    problem: NetworkProblem,
    y_star,
    mode: str = "absolute",
    leader: Optional[int] = None,
) -> SynthesisResult:
    """Build LinearSynthesis edge controllers for the target y*.

    Absolute mode requires y* forcible (or a leader node); relative
    mode retargets to the nearest agreement shift y* + beta (x) 1 that
    is forcible, guaranteeing the relative output E'y* either way.
    The controllers integrate eta' = -eta + zeta - (xi + zeta*) with
    mu = eta, where xi = -g(y*) for the minimum-norm flow g (see g_map);
    with a leader, the leader's inverse set is first moved by -z.

    Raises
    ------
    UnsupportedKind
        mode is neither 'absolute' nor 'relative'.
    IndexOutOfRange
        leader is not a node index.
    """
    if mode not in ("absolute", "relative"):
        raise UnsupportedKind(f"unknown synthesis mode {mode!r}")
    y_star = np.asarray(y_star, dtype=float).ravel()
    n, d = problem.op.node_count, problem.op.dim
    if leader is not None and not (0 <= leader < n):
        raise IndexOutOfRange(f"node index {leader} out of range")
    zeta_star = problem.op.rmatvec(y_star)
    leader_z = None
    y_target = y_star

    cat = _node_set(problem, y_star)
    mu, z = _min_flow(problem, cat)
    fr = _report(problem, mu, z)
    if not fr.forcible:
        if leader is not None:
            leader_z = z
            shift = np.kron(np.eye(n)[leader], -z)
            mu, _ = _min_flow(problem, (cat[0] + shift, cat[1]))
        elif mode == "relative":
            beta = _agreement_shift(problem, y_star)
            y_target = y_star + np.tile(beta, n)
            mu, z = _min_flow(problem, _node_set(problem, y_target))
            residual = np.linalg.norm(z)
            if not residual <= SHIFT_TOL:
                raise NotForcible(
                    f"no agreement shift of y* is forcible (residual {residual:.3e})"
                )
        else:
            raise NotForcible(f"y* is not forcible (residual {fr.residual:.3e})")

    xi = -_routed(mu)
    m = problem.op.edge_count
    offsets = [xi[e * d : (e + 1) * d] + zeta_star[e * d : (e + 1) * d] for e in range(m)]
    controllers = tuple(linear_synthesis(o) for o in offsets)
    return SynthesisResult(
        controllers=controllers,
        xi=xi,
        zeta_star=zeta_star,
        mode=mode,
        forcibility=fr,
        y_target=y_target,
        leader_input=leader_z,
        leader=leader,
    )


@dataclass(frozen=True)
class UniquenessReport:
    """The conditions behind the uniqueness guarantee.

    A closed convex f is strictly convex on its domain exactly when f*
    is smooth (Rockafellar, Convex Analysis, Thm 26.3). A NetworkProblem
    holds quadratics, which are smooth, and indicators of a point, which
    are not: its records hold them as pins, and the conjugate of every
    affine f is one. So outer_strict (every Gamma_e strictly
    convex) holds when Gamma* has no pins, and inner_strict (A(beta) =
    sum_i K*_i(y*_i + beta) strictly convex on its domain) when one node
    block of K has none: one strictly convex K*_i suffices.
    stationarity_residual re-checks that 0 lies in sum_i k_i^-1(y*_i).
    """

    outer_strict: bool
    inner_strict: bool
    stationarity_residual: float


def check_uniqueness_conditions(problem: NetworkProblem, y_star) -> UniquenessReport:
    """Decide the conditions that make y* the unique optimum."""
    y_star = np.asarray(y_star, dtype=float).ravel()
    n, d = problem.op.node_count, problem.op.dim
    outer = not problem.edges.Gammastar.pinned.any()
    inner = not problem.nodes.K.pinned.reshape(n, d).any(axis=1).all()
    z = _min_flow(problem, _node_set(problem, y_star))[1]
    return UniquenessReport(outer, inner, float(np.linalg.norm(z)))


def g_map(problem: NetworkProblem, y) -> np.ndarray:
    """Minimum-norm mu with -E mu in k^-1(y); the reconfiguration selection."""
    return _routed(_min_flow(problem, _node_set(problem, y))[0])


def reconfiguration_offsets(problem: NetworkProblem, y0, y_star):
    """(alpha, beta) retargeting controllers from steady output y0 to y*."""
    y0 = np.asarray(y0, dtype=float).ravel()
    y_star = np.asarray(y_star, dtype=float).ravel()
    alpha = problem.op.rmatvec(y_star) - problem.op.rmatvec(y0)
    beta = g_map(problem, y_star) - g_map(problem, y0)
    return alpha, beta


def wrap_reconfigured(controllers, alpha, beta, d: int):
    """Wrap per-edge controllers with blockwise reconfiguration offsets."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    out = []
    for e, c in enumerate(controllers):
        out.append(reconfigured(c, alpha[e * d : (e + 1) * d], beta[e * d : (e + 1) * d]))
    return tuple(out)


def leader_input(problem: NetworkProblem, y_star, i0: int) -> np.ndarray:
    """Constant input z at node i0 making y* forcible: z in sum_i k_i^-1(y*_i)."""
    if not (0 <= i0 < problem.op.node_count):
        raise IndexOutOfRange(f"node index {i0} out of range")
    return _min_flow(problem, _node_set(problem, y_star))[1]


def apply_leader(agents, i0: int, z) -> list:
    """Return a copy of the agent list with z added to node i0's input."""
    agents = list(agents)
    target = agents[i0]
    agents[i0] = replace(target, leader_offset=np.asarray(z, dtype=float).ravel())
    return agents
