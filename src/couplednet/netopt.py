"""The dual network optimization pair and steady-state certificates.

A NetworkProblem bundles the incidence operator, the stacked node and
edge relations, and the four integral functions K, K*, Gamma, Gamma*.
Steady states of the closed loop are exactly the points where the
potential problem

    minimize K*(y) + Gamma(E' y)

and the flow problem

    minimize K(-E mu) + Gamma*(mu)

are simultaneously optimal; the solvers here return such points along
with verifiable certificates.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .couplers import ControllerModel, controller_integral_fn, controller_ss_relation
from .errors import (
    DimensionMismatch,
    EmptySelection,
    Infeasible,
    InfiniteValue,
    Unbounded,
    UnsupportedKind,
)
from .netgraph import DirectedGraph, IncidenceOperator, incidence
from .plants import AgentModel, ss_relation
from .relations import (
    FunctionKind,
    IntegralFunction,
    RelationKind,
    VectorRelation,
    as_quadratic,
    block_diag,
    conjugate_function,
    forward,
    inverse,
    pair_residual,
    quadratic,
    solve_affine,
    stacked,
    stacked_relation,
    value,
)

# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkProblem:
    """Assembled network optimization data.

    Attributes
    ----------
    op : IncidenceOperator
        Lifted incidence E = E_base (x) I_d.
    node_relations, edge_relations : tuple of VectorRelation
        Per-node steady-state relations k_i and per-edge relations
        gamma_e.
    node_relation, edge_relation : VectorRelation
        The same, stacked block-wise.
    K, Kstar, Gamma, Gammastar : IntegralFunction
        Node and edge integral functions and their conjugates, summed
        (stacked block-separably) over nodes and edges.
    """

    op: IncidenceOperator
    node_relations: tuple
    edge_relations: tuple
    node_relation: VectorRelation
    edge_relation: VectorRelation
    K: IntegralFunction
    Kstar: IntegralFunction
    Gamma: IntegralFunction
    Gammastar: IntegralFunction

    @property
    def node_size(self) -> int:
        return self.op.node_size

    @property
    def edge_size(self) -> int:
        return self.op.edge_size


def _node_integral_fn(rel: VectorRelation) -> IntegralFunction:
    """K_i with grad K_i = k_i, for affine k_i with symmetric PSD gain."""
    if rel.kind is not RelationKind.AFFINE:
        raise UnsupportedKind(
            "node integral functions need an affine steady-state relation"
        )
    S, v = rel.S, rel.v
    if np.linalg.norm(S - S.T) > 1e-8 * (1.0 + np.linalg.norm(S)):
        raise UnsupportedKind("steady-state gain must be symmetric to integrate")
    return quadratic(0.5 * (S + S.T), v)


def assemble(graph: DirectedGraph, agents, controllers) -> NetworkProblem:
    """Build the NetworkProblem for given agents and edge controllers.

    controllers may be a list with one entry per edge or a single
    ControllerModel broadcast to every edge.
    """
    agents = list(agents)
    if len(agents) != graph.node_count:
        raise DimensionMismatch("one agent per node required")
    d = agents[0].io_dim
    if any(a.io_dim != d for a in agents):
        raise DimensionMismatch("all agents must share io_dim")
    if isinstance(controllers, ControllerModel):
        controllers = [controllers] * graph.edge_count
    controllers = list(controllers)
    if len(controllers) != graph.edge_count:
        raise DimensionMismatch("one controller per edge required")
    if any(c.io_dim != d for c in controllers):
        raise DimensionMismatch("controllers must share the agents' io_dim")

    op = incidence(graph, d)
    node_rels = tuple(ss_relation(a) for a in agents)
    edge_rels = tuple(controller_ss_relation(c) for c in controllers)
    K = stacked([_node_integral_fn(r) for r in node_rels])
    Kstar = conjugate_function(K)
    Gamma = stacked([controller_integral_fn(c) for c in controllers])
    Gammastar = conjugate_function(Gamma)
    return NetworkProblem(
        op=op,
        node_relations=node_rels,
        edge_relations=edge_rels,
        node_relation=stacked_relation(node_rels),
        edge_relation=stacked_relation(edge_rels),
        K=K,
        Kstar=Kstar,
        Gamma=Gamma,
        Gammastar=Gammastar,
    )


def problem_from_relations(op: IncidenceOperator, node_rels, edge_fns) -> NetworkProblem:
    """Assemble directly from node relations and edge integral functions."""
    node_rels = tuple(node_rels)
    edge_fns = list(edge_fns)
    K = stacked([_node_integral_fn(r) for r in node_rels])
    Gamma = stacked(edge_fns)
    from .relations import gradient_relation

    edge_rels = tuple(gradient_relation(f) for f in edge_fns)
    return NetworkProblem(
        op=op,
        node_relations=node_rels,
        edge_relations=edge_rels,
        node_relation=stacked_relation(node_rels),
        edge_relation=stacked_relation(edge_rels),
        K=K,
        Kstar=conjugate_function(K),
        Gamma=Gamma,
        Gammastar=conjugate_function(Gamma),
    )


# ---------------------------------------------------------------------------
# objectives and residuals
# ---------------------------------------------------------------------------


def opp_objective(problem: NetworkProblem, y) -> float:
    y = np.asarray(y, dtype=float).ravel()
    return value(problem.Kstar, y) + value(problem.Gamma, problem.op.lifted.T @ y)


def ofp_objective(problem: NetworkProblem, mu) -> float:
    mu = np.asarray(mu, dtype=float).ravel()
    return value(problem.K, -problem.op.lifted @ mu) + value(problem.Gammastar, mu)


def _zero_distance(first, second, M) -> float:
    """Distance of 0 to the set first + M second (inf if either is empty).

    That is the least-squares residual of [A, M B] x = -(a + M b) for
    first = a + span(A) and second = b + span(B).
    """
    if first.is_empty or second.is_empty:
        return math.inf
    C = np.hstack([first.directions, M @ second.directions])
    r = first.basepoint + M @ second.basepoint
    return float(np.linalg.norm(C @ solve_affine(C, -r, math.inf).basepoint + r))


def inclusion_residual(problem: NetworkProblem, y) -> float:
    """Distance of 0 to the set k^-1(y) + E gamma(E' y)."""
    y = np.asarray(y, dtype=float).ravel()
    E = problem.op.lifted
    return _zero_distance(inverse(problem.node_relation, y),
                          forward(problem.edge_relation, E.T @ y), E)


def flow_residual(problem: NetworkProblem, mu) -> float:
    """Distance of 0 to the set gamma^-1(mu) - E' k(-E mu)."""
    mu = np.asarray(mu, dtype=float).ravel()
    E = problem.op.lifted
    return _zero_distance(inverse(problem.edge_relation, mu),
                          forward(problem.node_relation, -E @ mu), -E.T)


def duality_gap(problem: NetworkProblem, u, mu, y, zeta) -> float:
    """K(u) + Gamma*(mu) + K*(y) + Gamma(zeta); zero at dual optimal pairs."""
    terms = (
        value(problem.K, u),
        value(problem.Gammastar, mu),
        value(problem.Kstar, y),
        value(problem.Gamma, zeta),
    )
    if not all(map(math.isfinite, terms)):
        raise InfiniteValue("a point lies outside an effective domain")
    return float(sum(terms))


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


@dataclass
class SolveOptions:
    """Solver settings.

    tol decides feasibility of the pinned coordinates and whether a
    flat direction carries a slope (both relative). max_iter is unused:
    the solve is exact; the field is still accepted so existing callers
    that pass it keep working.
    """

    max_iter: int = 50_000
    tol: float = 1e-9


@dataclass
class SolveTrace:
    """Iteration log of a solver run."""

    method: str = ""
    iterations: list = field(default_factory=list)
    objectives: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def record(self, it: int, obj: float, res: float) -> None:
        self.iterations.append(it)
        self.objectives.append(obj)
        self.residuals.append(res)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective", "residual"])
            for row in zip(self.iterations, self.objectives, self.residuals):
                writer.writerow(row)


def _qp_parts(f: IntegralFunction):
    """Split f into x'Px/2 + q'x (up to a constant) plus pins x[J] = a[J].

    Returns (P, q, pinned, a) with pinned a boolean mask over the
    coordinates; a is meaningful only where pinned is set. Pin-free
    parts go through as_quadratic; pins come from indicator-of-zero
    kinds, possibly shifted or stacked.
    """
    quad = as_quadratic(f)
    if quad is not None:
        return quad[0], quad[1], np.zeros(f.dim, dtype=bool), np.zeros(f.dim)
    if f.kind is FunctionKind.INDICATOR_ZERO:
        return np.zeros((f.dim, f.dim)), np.zeros(f.dim), np.ones(f.dim, dtype=bool), np.zeros(f.dim)
    if f.kind is FunctionKind.SHIFTED:
        # inner(x - shift) + linear'x
        P, q, pinned, a = _qp_parts(f.inner)
        return P, q - P @ f.shift + f.linear, pinned, a + f.shift
    if f.kind is FunctionKind.STACKED:
        P, q, pinned, a = zip(*(_qp_parts(ch) for ch in f.children))
        return block_diag(P), np.concatenate(q), np.concatenate(pinned), np.concatenate(a)
    raise UnsupportedKind(f"no quadratic form with pins for kind {f.kind}")


def solve_composite(f, g, L, x0, tol: float, objective):
    """Minimize f(x) + g(L x) exactly, f and g quadratic with pins.

    This is x'Hx/2 + lin'x subject to A x = b, with H = P_f + L'P_g L and
    the pins of f and of g (as rows of L) stacked into A x = b.
    solve_affine gives the min-norm particular solution and an
    orthonormal null-space basis Z; one eigh of Z'HZ solves the reduced
    problem. Pins that no x meets raise Infeasible. Flat reduced
    directions keep the start value's component (noted "anchored"); a
    slope along one raises Unbounded.
    Returns (x, trace) with one trace row: the objective and the norm of
    the reduced gradient at x.
    """
    trace = SolveTrace(method="equality-qp")
    Pf, qf, pf, af = _qp_parts(f)
    Pg, qg, pg, ag = _qp_parts(g)
    H = Pf + L.T @ Pg @ L
    H = 0.5 * (H + H.T)
    lin = qf + L.T @ qg
    A = np.vstack([np.eye(x0.size)[pf], L[pg]])
    b = np.concatenate([af[pf], ag[pg]])
    pins = solve_affine(A, b, tol)
    if pins.is_empty:
        raise Infeasible("no point meets the pinned coordinates")
    x_p, Z = pins.basepoint, pins.directions
    vals, V = np.linalg.eigh(Z.T @ H @ Z)
    W = Z @ V
    slope = W.T @ (H @ x_p + lin)
    flat = vals <= 1e-12 * max(vals.max(initial=0.0), 1.0)
    if flat.any():
        if np.linalg.norm(slope[flat]) > tol * (1.0 + np.linalg.norm(slope)):
            raise Unbounded("flat direction with nonzero slope")
        trace.notes.append("anchored")
    c = W.T @ (x0 - x_p)
    c[~flat] = -slope[~flat] / vals[~flat]
    x = x_p + W @ c
    trace.record(1, objective(x), float(np.linalg.norm(W.T @ (H @ x + lin))))
    return x, trace


def solve_opp(problem: NetworkProblem, init_y=None, opts: Optional[SolveOptions] = None):
    """Solve the potential problem: minimize K*(y) + Gamma(E' y).

    Returns (y, zeta, trace) with zeta = E' y. K* and Gamma are
    quadratic with pinned blocks (affine nodes, integrator edges), so
    the problem is an equality-constrained QP solved exactly. When the
    minimizers form a translate family, init_y fixes the free component
    and the trace notes "anchored".
    """
    opts = opts or SolveOptions()
    E = problem.op.lifted
    y0 = np.zeros(problem.node_size) if init_y is None else np.asarray(init_y, dtype=float).ravel()
    if y0.size != problem.node_size:
        raise DimensionMismatch("init_y has wrong length")
    y, trace = solve_composite(problem.Kstar, problem.Gamma, E.T, y0, opts.tol,
                               lambda yv: opp_objective(problem, yv))
    return y, E.T @ y, trace


def solve_ofp(problem: NetworkProblem, init_mu=None, opts: Optional[SolveOptions] = None):
    """Solve the flow problem: minimize K(-E mu) + Gamma*(mu).

    Returns (u, mu, trace) with u = -E mu, by the same exact solve as
    solve_opp. The cycle-space component of mu stays at its start value
    whenever the objective is flat along it (noted as "anchored").
    """
    opts = opts or SolveOptions()
    E = problem.op.lifted
    mu0 = np.zeros(problem.edge_size) if init_mu is None else np.asarray(init_mu, dtype=float).ravel()
    if mu0.size != problem.edge_size:
        raise DimensionMismatch("init_mu has wrong length")
    mu, trace = solve_composite(problem.Gammastar, problem.K, -E, mu0, opts.tol,
                                lambda m: ofp_objective(problem, m))
    return -E @ mu, mu, trace


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyStateCertificate:
    """A closed-loop steady-state candidate with its residuals.

    residual_consistency covers zeta = E' y and u = -E mu;
    residual_relations covers (u, y) against the node relation and
    (zeta, mu) against the edge relation; residual_inclusion is the
    distance of 0 to k^-1(y) + E gamma(zeta).
    """

    u: np.ndarray
    y: np.ndarray
    zeta: np.ndarray
    mu: np.ndarray
    residual_consistency: float
    residual_relations: float
    residual_inclusion: float

    def valid(self, tol: float) -> bool:
        return (
            self.residual_consistency <= tol
            and self.residual_relations <= tol
            and self.residual_inclusion <= tol
        )


def recover_certificate(problem: NetworkProblem, y, zeta, tol: float = 1e-6) -> SteadyStateCertificate:
    """Recover (u, mu) from an OPP solution (y, zeta).

    Selects u from k^-1(y) and mu from gamma(zeta) subject to
    u = -E mu, minimizing ||u||^2 + ||mu||^2 over the consistent
    choices. With u = a + A s and mu = b + B r (A, B orthonormal), the
    consistent (s, r) are x0 + span(Z) from one solve_affine, and the
    minimizer is x0 - Z Z'[A'a; B'b]. The least-squares residual at x0
    is residual_inclusion. Raises EmptySelection when no consistent pair
    exists at tol.
    """
    y = np.asarray(y, dtype=float).ravel()
    zeta = np.asarray(zeta, dtype=float).ravel()
    E = problem.op.lifted
    du = inverse(problem.node_relation, y)
    dmu = forward(problem.edge_relation, zeta)
    if du.is_empty or dmu.is_empty:
        raise EmptySelection("a relation has no element at the requested point")
    a, A = du.basepoint, du.directions
    b, B = dmu.basepoint, dmu.directions
    # consistency: a + A s = -E (b + B r)
    M, rhs = np.hstack([A, E @ B]), -E @ b - a
    family = solve_affine(M, rhs, tol)
    if family.is_empty:
        raise EmptySelection("no consistent (u, mu) pair at tolerance")
    Z = family.directions
    sr = family.basepoint - Z @ (Z.T @ np.concatenate([A.T @ a, B.T @ b]))
    u = a + A @ sr[: A.shape[1]]
    mu = b + B @ sr[A.shape[1] :]
    res_cons = max(
        float(np.linalg.norm(zeta - E.T @ y)), float(np.linalg.norm(u + E @ mu))
    )
    res_rel = max(
        pair_residual(problem.node_relation, u, y),
        pair_residual(problem.edge_relation, zeta, mu),
    )
    return SteadyStateCertificate(
        u=u,
        y=y,
        zeta=zeta,
        mu=mu,
        residual_consistency=res_cons,
        residual_relations=res_rel,
        residual_inclusion=float(np.linalg.norm(M @ family.basepoint - rhs)),
    )


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    residuals: dict

    def __bool__(self) -> bool:
        return self.valid


def verify_steady_state(problem: NetworkProblem, candidate, tol: float = 1e-6) -> VerifyReport:
    """Check a 4-tuple (u, y, zeta, mu) against all steady-state conditions."""
    u, y, zeta, mu = (np.asarray(v, dtype=float).ravel() for v in candidate)
    E = problem.op.lifted
    residuals = {
        "consistency_zeta": float(np.linalg.norm(zeta - E.T @ y)),
        "consistency_u": float(np.linalg.norm(u + E @ mu)),
        "relation_nodes": pair_residual(problem.node_relation, u, y),
        "relation_edges": pair_residual(problem.edge_relation, zeta, mu),
        "inclusion": inclusion_residual(problem, y),
    }
    return VerifyReport(valid=all(v <= tol for v in residuals.values()), residuals=residuals)
