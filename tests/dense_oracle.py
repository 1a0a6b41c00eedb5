"""Dense reference solves on the lifted incidence, for tests only.

These are the network solves that factor kron(E, I_d) directly: one SVD
affine solve for the pins and one eigh of the reduced Hessian for the
potential and flow problems, and SVD least-squares solves for the
certificate selection and the synthesis flow. couplednet solves the
same problems on the graph; the tests compare the two.
"""
import math

import numpy as np

from couplednet.errors import EmptyInverse, EmptySelection, Infeasible, NotForcible, Unbounded
from couplednet.netopt import SolveTrace, ofp_objective, opp_objective
from couplednet.relations import FunctionKind, as_quadratic, block_diag, quadratic, shifted, value
from set_oracle import forward, inverse, solve_affine


def agreement_basis(op):
    """Orthonormal basis of Ker(lifted^T), shape (n*d, d).

    Column c is (1 kron e_c) / sqrt(n): all nodes share the same d-vector.
    """
    n, d = op.node_count, op.dim
    return np.kron(np.ones((n, 1)), np.eye(d)) / np.sqrt(n)


def cycle_basis(op):
    """Orthonormal basis of Ker(lifted), shape (m*d, r).

    Equal to kron(C, I_d) for an orthonormal basis C of Ker(base).
    """
    cycles = solve_affine(op.base, np.zeros(op.node_count)).directions
    return np.kron(cycles, np.eye(op.dim))


def qp_parts(f):
    """(P, q, pinned, a) of f with P one dense matrix."""
    quad = as_quadratic(f)
    if quad is not None:
        return quad[0], quad[1], np.zeros(f.dim, dtype=bool), np.zeros(f.dim)
    if f.kind is FunctionKind.INDICATOR_ZERO:
        return (np.zeros((f.dim, f.dim)), np.zeros(f.dim), np.ones(f.dim, dtype=bool),
                np.zeros(f.dim))
    if f.kind is FunctionKind.SHIFTED:
        P, q, pinned, a = qp_parts(f.inner)
        return P, q - P @ f.shift + f.linear, pinned, a + f.shift
    if f.kind is FunctionKind.STACKED:
        P, q, pinned, a = zip(*(qp_parts(ch) for ch in f.children))
        return block_diag(P), np.concatenate(q), np.concatenate(pinned), np.concatenate(a)
    raise AssertionError(f"no quadratic form with pins for kind {f.kind}")


def solve_composite(f, g, L, x0, tol, objective):
    """Minimize f(x) + g(L x): pins by one SVD, the reduced problem by one eigh."""
    trace = SolveTrace(method="equality-qp")
    Pf, qf, pf, af = qp_parts(f)
    Pg, qg, pg, ag = qp_parts(g)
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
    y, trace = solve_composite(problem.Kstar, problem.Gamma, E.T, y0, tol,
                               lambda yv: opp_objective(problem, yv))
    return y, E.T @ y, trace


def solve_ofp(problem, init_mu=None, tol=1e-9):
    E = problem.op.lifted
    mu0 = np.zeros(problem.edge_size) if init_mu is None else np.asarray(init_mu, dtype=float)
    mu, trace = solve_composite(problem.Gammastar, problem.K, -E, mu0, tol,
                                lambda m: ofp_objective(problem, m))
    return -E @ mu, mu, trace


def _zero_distance(first, second, M):
    if first.is_empty or second.is_empty:
        return math.inf
    C = np.hstack([first.directions, M @ second.directions])
    r = first.basepoint + M @ second.basepoint
    return float(np.linalg.norm(C @ solve_affine(C, -r, math.inf).basepoint + r))


def inclusion_residual(problem, y):
    E = problem.op.lifted
    return _zero_distance(inverse(problem.node_relation, y),
                          forward(problem.edge_relation, E.T @ y), E)


def flow_residual(problem, mu):
    E = problem.op.lifted
    return _zero_distance(inverse(problem.edge_relation, mu),
                          forward(problem.node_relation, -E @ mu), -E.T)


def certificate(problem, y, zeta, tol=1e-6):
    """(u, mu, residual_inclusion) of the min-norm consistent selection."""
    E = problem.op.lifted
    du = inverse(problem.node_relation, y)
    dmu = forward(problem.edge_relation, zeta)
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
    cat = inverse(problem.node_relation, y)
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
    d = problem.op.dim
    lift = np.kron(np.ones((problem.op.node_count, 1)), np.eye(d))
    beta, _ = solve_composite(quadratic(np.zeros((d, d))), shifted(problem.Kstar, shift=-y_star),
                              lift, np.zeros(d), tol,
                              lambda b: value(problem.Kstar, y_star + lift @ b))
    return beta
