"""Dense reference solves on the lifted incidence, for tests only.

These are the network solves that factor kron(E, I_d) directly: one SVD
affine solve for the pins and one eigh of the reduced Hessian for the
potential and flow problems, and SVD least-squares solves for the
certificate selection and the synthesis flow, all on the relation sets
of a problem's flat records as set descriptors. couplednet solves the
same problems on the graph; the tests compare the two.

problem_from_relations builds those records from relation trees instead
of agents and controllers, and controller_function gives the tree of a
controller's edge term.
"""
import math

import numpy as np

from couplednet.couplers import ControllerKind
from couplednet.errors import EmptyInverse, EmptySelection, Infeasible, NotForcible, Unbounded
from couplednet.netopt import (EdgeSide, NetworkProblem, PinnedQuadratic, SolveTrace, node_side,
                               ofp_objective, opp_objective)
from couplednet.relations import (PSI_RANGE, FunctionKind, RelationKind, as_quadratic, quadratic,
                                  shifted)
from set_oracle import (ZERO_ATOL, OracleKind, SetDescriptor, block_diag, conjugate,
                        indicator_zero, solve_affine)


def agreement_basis(op):
    """Orthonormal basis of Ker(lifted^T), shape (n*d, d).

    Column c is (1 kron e_c) / sqrt(n): all nodes share the same d-vector.
    """
    n, d = op.node_count, op.dim
    return np.kron(np.ones((n, 1)), np.eye(d)) / np.sqrt(n)


def incidence_matrix(graph):
    """The (n, m) incidence matrix of graph: -1 at each edge's tail, +1 at its head."""
    E = np.zeros((graph.node_count, graph.edge_count))
    for k, (tail, head) in enumerate(graph.edges):
        E[tail, k], E[head, k] = -1.0, 1.0
    return E


def cycle_basis(op):
    """Orthonormal basis of Ker(lifted), shape (m*d, r).

    Equal to kron(C, I_d) for an orthonormal basis C of Ker(E), E the
    graph's incidence matrix.
    """
    cycles = solve_affine(incidence_matrix(op.graph), np.zeros(op.node_count)).directions
    return np.kron(cycles, np.eye(op.dim))


# -- records from relation trees ---------------------------------------------

def controller_function(c):
    """The tree of controller c's edge term: |x|^2/2 - offset'x for linear
    synthesis, the indicator of {0} for an integrator, shifted by alpha
    and tilted by beta."""
    d = c.io_dim
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        fn = indicator_zero(d)
    else:
        fn = quadratic(np.eye(d), -c.offset)
    return shifted(fn, shift=c.alpha, linear=c.beta) if c.has_offsets else fn


def qp_parts(f):
    """(P, q, c, pinned, a) of f with P one dense matrix."""
    quad = as_quadratic(f)
    if quad is not None:
        return quad[0], quad[1], quad[2], np.zeros(f.dim, dtype=bool), np.zeros(f.dim)
    if f.kind is OracleKind.INDICATOR_ZERO:
        return (np.zeros((f.dim, f.dim)), np.zeros(f.dim), 0.0, np.ones(f.dim, dtype=bool),
                np.zeros(f.dim))
    if f.kind is FunctionKind.SHIFTED:
        P, q, c, pinned, a = qp_parts(f.inner)
        s = f.shift
        return (P, q - P @ s + f.linear, c + 0.5 * s @ P @ s - q @ s + f.constant, pinned,
                a + s)
    if f.kind is OracleKind.STACKED:
        P, q, c, pinned, a = zip(*(qp_parts(ch) for ch in f.children))
        return block_diag(P), np.concatenate(q), sum(c), np.concatenate(pinned), np.concatenate(a)
    raise AssertionError(f"no quadratic form with pins for kind {f.kind}")


def record(fns):
    """The PinnedQuadratic of a sum of functions on consecutive blocks."""
    P, q, c, pinned, a = zip(*(qp_parts(f) for f in fns))
    return PinnedQuadratic(np.array(P), np.concatenate(q), np.array(c, dtype=float),
                           np.concatenate(pinned), np.concatenate(a))


def problem_from_relations(op, node_rels, edge_fns, lo=None, hi=None):
    """The NetworkProblem of affine node relations and edge functions.

    The edge relations are the gradients of edge_fns; lo and hi bound mu
    on their pins, coordinate by coordinate (unbounded if None).
    """
    assert all(rel.kind is RelationKind.AFFINE for rel in node_rels)
    S = np.array([rel.S for rel in node_rels])
    v = np.array([rel.v for rel in node_rels])
    Gamma, Gammastar = record(edge_fns), record([conjugate(f) for f in edge_fns])
    lo = np.where(Gamma.pinned, -math.inf if lo is None else lo, -math.inf)
    hi = np.where(Gamma.pinned, math.inf if hi is None else hi, math.inf)
    return NetworkProblem(op, node_side(S, v), EdgeSide(Gamma, Gammastar, lo, hi))


def controller_problem(op, node_rels, controllers):
    """problem_from_relations of node relations and the controllers' edge
    terms, mu on an integrator's pin bounded by its potential's range
    moved by its beta: PSI_RANGE for an unshifted paper_psi potential,
    else unbounded."""
    ranges = [PSI_RANGE if c.kind is ControllerKind.NONLINEAR_INTEGRATOR
              and c.potential.kind is FunctionKind.SCALAR_SEPARABLE else (-math.inf, math.inf)
              for c in controllers]
    lo = np.concatenate([r[0] + c.beta for r, c in zip(ranges, controllers)])
    hi = np.concatenate([r[1] + c.beta for r, c in zip(ranges, controllers)])
    return problem_from_relations(op, node_rels, [controller_function(c) for c in controllers],
                                  lo, hi)


# -- relation sets of a problem's records ------------------------------------

def dense(f):
    """(P, q, pinned, a) of a PinnedQuadratic with P one dense matrix."""
    return block_diag(list(f.P)), f.q, f.pinned, f.a


def node_forward(problem, u):
    nodes = problem.nodes
    return SetDescriptor.point(block_diag(list(nodes.S)) @ u + nodes.v.ravel())


def node_inverse(problem, y):
    nodes = problem.nodes
    return solve_affine(block_diag(list(nodes.S)), y - nodes.v.ravel())


def edge_forward(problem, zeta):
    """grad Gamma(zeta) off the pins, everything on them, empty off a pin."""
    P, q, pinned, a = dense(problem.edges.Gamma)
    if np.max(np.abs(zeta - a)[pinned], initial=0.0) > ZERO_ATOL:
        return SetDescriptor.empty(zeta.size)
    base = np.where(pinned, 0.0, P @ zeta + q)
    return SetDescriptor._spanned(base, np.eye(zeta.size)[:, pinned])


def edge_inverse(problem, mu):
    """The zeta on the pins with grad Gamma(zeta) = mu off them; empty if
    mu leaves [lo, hi] on a pin."""
    edges = problem.edges
    P, q, pinned, a = dense(edges.Gamma)
    if np.any(mu < edges.lo - 1e-9) or np.any(mu > edges.hi + 1e-9):
        return SetDescriptor.empty(mu.size)
    mat = np.vstack([np.eye(mu.size)[pinned], P[~pinned]])
    return solve_affine(mat, np.concatenate([a[pinned], (mu - q)[~pinned]]))


# -- solves ---------------------------------------------------------------------

def solve_composite(f, g, L, x0, tol, objective):
    """Minimize f(x) + g(L x), f and g given by dense parts: pins by one
    SVD, the reduced problem by one eigh."""
    trace = SolveTrace(method="equality-qp")
    Pf, qf, pf, af = f
    Pg, qg, pg, ag = g
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


def solve_opp(problem, init_y=None, tol=1e-9):
    E = problem.op.lifted
    y0 = np.zeros(problem.node_size) if init_y is None else np.asarray(init_y, dtype=float)
    y, trace = solve_composite(dense(problem.nodes.Kstar), dense(problem.edges.Gamma), E.T, y0,
                               tol, lambda yv: opp_objective(problem, yv))
    return y, E.T @ y, trace


def solve_ofp(problem, init_mu=None, tol=1e-9):
    E = problem.op.lifted
    mu0 = np.zeros(problem.edge_size) if init_mu is None else np.asarray(init_mu, dtype=float)
    mu, trace = solve_composite(dense(problem.edges.Gammastar), dense(problem.nodes.K), -E, mu0,
                                tol, lambda m: ofp_objective(problem, m))
    return -E @ mu, mu, trace


def _zero_distance(first, second, M):
    if first.is_empty or second.is_empty:
        return math.inf
    C = np.hstack([first.directions, M @ second.directions])
    r = first.basepoint + M @ second.basepoint
    return float(np.linalg.norm(C @ solve_affine(C, -r, math.inf).basepoint + r))


def inclusion_residual(problem, y):
    E = problem.op.lifted
    return _zero_distance(node_inverse(problem, y), edge_forward(problem, E.T @ y), E)


def flow_residual(problem, mu):
    """Distance of 0 to the set gamma^-1(mu) - E' k(-E mu)."""
    E = problem.op.lifted
    mu = np.asarray(mu, dtype=float)
    return _zero_distance(edge_inverse(problem, mu), node_forward(problem, -E @ mu), -E.T)


def certificate(problem, y, zeta, tol=1e-6):
    """(u, mu, residual_inclusion) of the min-norm consistent selection."""
    E = problem.op.lifted
    du = node_inverse(problem, y)
    dmu = edge_forward(problem, zeta)
    if du.is_empty or dmu.is_empty:
        raise EmptySelection("a relation has no element at the requested point")
    a, A = du.basepoint, du.directions
    b, B = dmu.basepoint, dmu.directions
    M, rhs = np.hstack([A, E @ B]), -E @ b - a
    family = solve_affine(M, rhs, tol)
    if family.is_empty:
        raise EmptySelection("no consistent (u, mu) pair at tolerance")
    Z = family.directions
    sr = family.basepoint - Z @ (Z.T @ np.concatenate([A.T @ a, B.T @ b]))
    u = a + A @ sr[: A.shape[1]]
    mu = b + B @ sr[A.shape[1]:]
    return u, mu, float(np.linalg.norm(M @ family.basepoint - rhs))


def min_flow(problem, y, tol=1e-8):
    """(mu or None, z) of the synthesis flow for the node sets k^-1(y)."""
    cat = node_inverse(problem, y)
    if cat.is_empty:
        raise EmptyInverse("a node relation has no input mapping to y*")
    E = problem.op.lifted
    Q, a = cat.directions, cat.basepoint
    mat, rhs = E - Q @ (Q.T @ E), Q @ (Q.T @ a) - a
    mu = solve_affine(mat, rhs, np.inf).basepoint
    r = mat @ mu - rhs
    z = r.reshape(problem.op.node_count, problem.op.dim).sum(axis=0)
    if np.linalg.norm(r) > max(tol, 1e-8) * (1.0 + np.linalg.norm(rhs)):
        mu = None
    return mu, z


def g_map(problem, y, tol=1e-8):
    mu = min_flow(problem, y, tol)[0]
    if mu is None:
        raise NotForcible("y is not forcible, no consistent flow exists")
    return mu


def agreement_shift(problem, y_star, tol):
    """beta minimizing K*(y* + 1 (x) beta), by one dense solve."""
    d = problem.op.dim
    lift = np.kron(np.ones((problem.op.node_count, 1)), np.eye(d))
    P, q, pinned, a = dense(problem.nodes.Kstar)
    beta, _ = solve_composite((np.zeros((d, d)), np.zeros(d), np.zeros(d, dtype=bool),
                               np.zeros(d)), (P, q + P @ y_star, pinned, a - y_star),
                              lift, np.zeros(d), tol,
                              lambda b: problem.nodes.Kstar.value(y_star + lift @ b))
    return beta
