"""The dual network optimization pair and steady-state certificates.

A NetworkProblem holds the incidence operator and one flat record per
side: the node gains with K and K*, and the edge terms Gamma and Gamma*
with the integrators' output ranges. Each of the four functions is a
sum of quadratics over blocks, some coordinates pinned. Steady states
of the closed loop are exactly the points where the potential problem

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

from .couplers import ControllerModel, controller_groups
from .errors import (
    DimensionMismatch,
    EmptySelection,
    Infeasible,
    InfiniteValue,
    Unbounded,
    UnsupportedKind,
)
from .netgraph import DirectedGraph, IncidenceOperator, _classes, _join, incidence
from .plants import ss_groups
from .relations import PSI_RANGE

SELECTION_TOL = 1e-6  # relative residual a recovered (u, mu) selection may leave

# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PinnedQuadratic:
    """f(x) = sum_b (x_b'P_b x_b/2 + c_b) + q'x over the consecutive
    blocks x_b of x, finite only where x[pinned] = a[pinned].

    P is (count, d, d) and c (count,); q, pinned and a hold one entry
    per coordinate, a meaningful only where pinned is set. Each of K,
    K*, Gamma and Gamma* is one, a quadratic or the indicator of a point
    (possibly shifted) per node or edge (Rockafellar, Convex Analysis,
    section 12, gives their conjugates in closed form).
    """

    P: np.ndarray
    q: np.ndarray
    c: np.ndarray
    pinned: np.ndarray
    a: np.ndarray

    def meet(self, x):
        """x with its pins set; None if x misses them by more than
        tol * (1 + ||a||) at SolveOptions' tol: the one pin rule."""
        x, pinned, a = _rows(x, self.q), self.pinned, self.a
        tol = SolveOptions.tol * (1.0 + np.linalg.norm(a[pinned]))
        return np.where(pinned, a, x) if np.linalg.norm(x[pinned] - a[pinned]) <= tol else None

    def value(self, x) -> float:
        """f(x) with its pins met, inf on a miss."""
        x = self.meet(x)
        if x is None:
            return math.inf
        X, Q = x.reshape(self.P.shape[:2]), self.q.reshape(self.P.shape[:2])
        blocks = 0.5 * np.einsum("ki,kij,kj->k", X, self.P, X) + np.einsum("ki,ki->k", Q, X) + self.c
        return float(sum(blocks.tolist()))


@dataclass(frozen=True)
class NodeSide:
    """The node relations y_i = S_i u_i + v_i as stacks S (n, d, d) and
    v (n, d); K = sum_i K_i with grad K_i = k_i, and its conjugate K*."""

    S: np.ndarray
    v: np.ndarray
    K: PinnedQuadratic
    Kstar: PinnedQuadratic


@dataclass(frozen=True)
class EdgeSide:
    """Gamma = sum_e Gamma_e and its conjugate Gamma*. The relation of
    edge e is grad Gamma_e off Gamma's pins; on them it is the pin,
    with mu anywhere in [lo, hi] (an integrator's output range, moved by
    its beta; unbounded elsewhere)."""

    Gamma: PinnedQuadratic
    Gammastar: PinnedQuadratic
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True)
class NetworkProblem:
    """Assembled network optimization data: the lifted incidence
    E = E_base (x) I_d, and the node and edge records."""

    op: IncidenceOperator
    nodes: NodeSide
    edges: EdgeSide

    @property
    def node_size(self) -> int:
        return self.op.node_size

    @property
    def edge_size(self) -> int:
        return self.op.edge_size


def _node_gains(relations, gains, d: int):
    """(S, v): the gains of affine node relations y = S_i u + v_i stacked,
    from ss_groups' relations and gains; UnsupportedKind if one is not affine."""
    if any(rel is not None for rel in relations):
        raise UnsupportedKind("node integral functions need an affine steady-state relation")
    S, v = np.empty((len(relations), d, d)), np.empty((len(relations), d))
    for idx, S_g, v_g in gains:
        S[idx], v[idx] = S_g, v_g
    return S, v


def node_side(S: np.ndarray, v: np.ndarray) -> NodeSide:
    """The node record of gains S (n, d, d) and offsets v (n, d).

    K_i(u) = u'S_i u/2 + v_i'u. Its conjugate is the quadratic of the
    inverse gain, or for a zero gain the indicator of {v_i}; one batched
    eigh decides all (see _psd_pinv). UnsupportedKind names the first
    agent whose gain is not symmetric, not positive semi-definite, or
    singular but not zero.
    """
    St = S.transpose(0, 2, 1)
    _refuse(np.linalg.norm(S - St, axis=(1, 2)) > 1e-8 * (1.0 + np.linalg.norm(S, axis=(1, 2))),
            "must be symmetric to integrate")
    P, c, q = 0.5 * (S + St), np.zeros(len(S)), v.ravel()
    affine = np.all(np.abs(P) <= 1e-8, axis=(1, 2))
    pinv, rank, indefinite = _psd_pinv(P)
    _refuse(~affine & indefinite, "is not positive semi-definite")
    _refuse(~affine & (rank < S.shape[1]), "is singular but not zero")
    pins = np.repeat(affine, S.shape[1])
    Kstar = PinnedQuadratic(np.where(affine[:, None, None], 0.0, pinv),
                            np.where(pins, 0.0, -np.einsum("kij,kj->ki", pinv, v).ravel()),
                            np.where(affine, 0.0, 0.5 * np.einsum("ki,kij,kj->k", v, pinv, v)),
                            pins, np.where(pins, q + 0.0, 0.0))
    return NodeSide(S, v, PinnedQuadratic(P, q, c, np.zeros(q.size, dtype=bool),
                                          np.zeros(q.size)), Kstar)


def _refuse(bad: np.ndarray, what: str) -> None:
    """UnsupportedKind naming the first agent where bad is set, if any."""
    if bad.any():
        raise UnsupportedKind(f"agents[{np.flatnonzero(bad)[0]}]: steady-state gain {what}")


def _psd_pinv(P: np.ndarray, tol: float = 1e-10):
    """Eigen-decomposition pseudo-inverse of a stack of symmetric
    matrices (..., d, d). Returns (pinv, rank, indefinite), each per
    matrix. Eigenvalues up to tol * max(1, largest) in magnitude count
    as zero; indefinite is set where one lies below that.
    """
    vals, vecs = np.linalg.eigh(0.5 * (P + np.swapaxes(P, -1, -2)))
    cutoff = tol * np.fmax(1.0, vals.max(axis=-1, initial=0.0))
    kept = vals > cutoff[..., None]
    inv = np.where(kept, 1.0 / np.where(kept, vals, 1.0), 0.0)
    return ((vecs * inv[..., None, :]) @ np.swapaxes(vecs, -1, -2), kept.sum(axis=-1),
            vals[..., 0] < -cutoff)


def _edge_side(controllers, d: int) -> EdgeSide:
    """The edge record of the controllers' form (see controller_groups).

    A leaky (linear-synthesis) edge has Gamma_e(x) = |x|^2/2 - offset'x,
    and an integrator the indicator of {0}, with mu on its pin in
    PSI_RANGE where psi is set and unbounded elsewhere. Offsets move
    each to Gamma_e(x - alpha) + beta'x, whose conjugate is
    Gamma_e*(mu - beta) + alpha'mu - alpha'beta.
    """
    m = len(controllers)
    linear, psi, _, _, offset, alpha, beta = controller_groups(controllers, d)
    ranges = np.where(psi[:, None], PSI_RANGE, (-math.inf, math.inf))
    P = linear[:, None, None] * np.eye(d)
    coords = np.repeat(linear, d)
    moved = np.repeat(alpha.any(axis=1) | beta.any(axis=1), d)

    def moved_term(q, shift, slope):
        """The linear term q of x'Px/2 + q'x, at x - shift and tilted by slope, on moved edges."""
        return np.where(moved, q - _block_apply(P, shift) + slope.ravel(), q)

    def dot(x, y):
        return np.einsum("ki,ki->k", x, y)

    Gamma = PinnedQuadratic(P, moved_term(np.where(coords, -offset.ravel(), 0.0), alpha, beta),
                            np.where(linear, dot(0.5 * alpha + offset, alpha), 0.0),
                            ~coords, alpha.ravel() + 0.0)
    Gammastar = PinnedQuadratic(P, moved_term(np.where(coords, offset.ravel(), 0.0), beta, alpha),
                                np.where(linear, 0.5 * dot(offset - beta, offset - beta), 0.0)
                                - dot(alpha, beta), np.zeros(m * d, dtype=bool), np.zeros(m * d))
    lo, hi = (np.where(coords, bound, (ranges[:, k, None] + beta).ravel())
              for k, bound in enumerate((-math.inf, math.inf)))
    return EdgeSide(Gamma, Gammastar, lo, hi)


def network_parts(graph: DirectedGraph, agents, controllers) -> tuple:
    """(agents, controllers, d) of a network, both as tuples.

    controllers may be a list with one entry per edge or a single
    ControllerModel broadcast to every edge. Raises DimensionMismatch
    unless there is one agent per node and one controller per edge, all
    of one io_dim d.
    """
    agents = tuple(agents)
    if isinstance(controllers, ControllerModel):
        controllers = [controllers] * graph.edge_count
    controllers = tuple(controllers)
    if len(agents) != graph.node_count:
        raise DimensionMismatch(f"need {graph.node_count} agents, got {len(agents)}")
    if len(controllers) != graph.edge_count:
        raise DimensionMismatch(
            f"need {graph.edge_count} controllers, got {len(controllers)}")
    d = agents[0].io_dim
    if any(a.io_dim != d for a in agents):
        raise DimensionMismatch("agent io_dims differ")
    if any(c.io_dim != d for c in controllers):
        raise DimensionMismatch("controller io_dim differs from agents")
    return agents, controllers, d


def assemble(graph: DirectedGraph, agents, controllers) -> NetworkProblem:
    """Build the NetworkProblem for given agents and edge controllers,
    checked and broadcast by network_parts."""
    agents, controllers, d = network_parts(graph, agents, controllers)
    op, nodes = incidence(graph, d), node_side(*_node_gains(*ss_groups(agents), d))
    return NetworkProblem(op, nodes, _edge_side(controllers, d))


# ---------------------------------------------------------------------------
# coordinate sets and graph flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flow:
    """A min-norm flow (see min_norm_flow).

    mu is zero off the edge mask; residual is the least-squares residual
    of the conservation equations; flat is the dimension of the flows on
    the mask that route nothing (cycles, and paths between grounded
    vertices).
    """

    mu: np.ndarray
    residual: np.ndarray
    flat: int


def min_norm_flow(op: IncidenceOperator, edges, rhs, leak=None, grounded=None) -> Flow:
    """Least-norm flow routing rhs over the masked edge coordinates.

    The vertices are the stacked node coordinates. On every vertex v not
    grounded, (E mu)_v - w_v = rhs_v, with mu zero off edges and a leak
    w_v to ground allowed only on leak vertices; grounded vertices
    carry no equation. Among the least-squares solutions this returns
    the one of least ||mu||^2 + ||w||^2: mu = E'p for the potentials p
    of the weighted Laplacian E diag(edges) E' + diag(leak), with p = 0
    on grounded vertices. The coordinates share one n x n Laplacian per
    distinct mask pattern. A class of vertices joined by edges with no
    leak or grounded vertex makes it singular: the mean of rhs over the
    class is not routed, and is the residual there.
    """
    n, d, m = op.node_count, op.dim, op.edge_count
    edges = np.asarray(edges, dtype=bool).reshape(m, d)
    rhs = np.asarray(rhs, dtype=float).reshape(n, d)
    leak = np.zeros((n, d), dtype=bool) if leak is None else np.asarray(leak).reshape(n, d)
    grounded = (np.zeros((n, d), dtype=bool) if grounded is None
                else np.asarray(grounded).reshape(n, d))
    tail, head = op.tail[::d] // d, op.head[::d] // d  # the base incidence's end nodes
    p = np.zeros((n, d))
    residual = np.zeros((n, d))
    flat = 0
    patterns = {}
    for c in range(d):
        key = (edges[:, c].tobytes(), leak[:, c].tobytes(), grounded[:, c].tobytes())
        patterns.setdefault(key, []).append(c)
    for cols in patterns.values():
        c = cols[0]
        on = np.flatnonzero(edges[:, c])
        t, h = tail[on], head[on]
        sinks = np.flatnonzero(leak[:, c] | grounded[:, c])
        root = _join(n + 1, np.concatenate([t, np.full(sinks.size, n)]),
                     np.concatenate([h, sinks]), np.zeros(on.size + sinks.size), n)[0][:n]
        s = rhs[:, cols] * ~grounded[:, c, None]
        floating = np.flatnonzero(root != n)
        roots, cls = _classes(root[floating], n)
        mean = (np.stack([np.bincount(cls, s[floating, j]) for j in range(len(cols))], axis=1)
                / np.bincount(cls)[:, None])
        s[floating] -= mean[cls]
        residual[np.ix_(floating, cols)] = -mean[cls]
        keep = ~grounded[:, c]
        keep[roots] = False
        lap = np.bincount(np.concatenate([t * n + t, h * n + h, t * n + h, h * n + t]),
                          np.repeat([1.0, 1.0, -1.0, -1.0], on.size), n * n).reshape(n, n)
        lap[np.diag_indices(n)] += leak[:, c]
        if keep.any():
            p[np.ix_(keep, cols)] = np.linalg.solve(lap[np.ix_(keep, keep)], s[keep])
        flat += len(cols) * (on.size - int(keep.sum()))
    mu = np.where(edges, p[head] - p[tail], 0.0)
    return Flow(mu=mu.ravel(), residual=residual.ravel(), flat=flat)


def _rows(x, like: np.ndarray) -> np.ndarray:
    """x as a float array shaped as like; DimensionMismatch unless it has like's size."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != like.size:
        raise DimensionMismatch(f"expected dimension {like.size}, got {x.size}")
    return x.reshape(like.shape)


def node_inverse(problem: NetworkProblem, y):
    """k^-1(y), the product of the node inverse sets k_i^-1(y_i), as
    (a, free): the set a + span(e_J) for the free coordinates J (those
    of zero-gain nodes). One _affine_solutions call on y - v."""
    nodes = problem.nodes
    a, free = _affine_solutions(nodes.S, _rows(y, nodes.v) - nodes.v)
    return a.ravel(), free.ravel()


def _affine_solutions(S: np.ndarray, R: np.ndarray):
    """Solution sets of S[k] u = R[k] as (base, free): set k is base[k] +
    span(e_J) for the coordinates J where free[k] is set.

    Per block one SVD, the minimum-norm solution as base. The first
    block that fails decides the error: EmptySelection when its
    solution misses R[k] by more than 1e-8 * (1 + ||R[k]||),
    UnsupportedKind when its null space is not spanned by coordinate
    axes.
    """
    u, s, vt = np.linalg.svd(S)
    kept = s > 1e-12 * s.max(axis=1, initial=0.0)[:, None]
    coef = np.where(kept, np.einsum("kij,ki->kj", u, R) / np.where(kept, s, 1.0), 0.0)
    x0 = np.einsum("kij,ki->kj", vt, coef)
    miss = np.linalg.norm(np.einsum("kij,kj->ki", S, x0) - R, axis=1)
    empty = miss > 1e-8 * (1.0 + np.linalg.norm(R, axis=1))
    null = vt * ~kept[:, :, None]
    proj = np.einsum("kri,krj->kij", null, null)
    free = np.diagonal(proj, axis1=1, axis2=2) > 0.5
    off = np.abs(proj - free[:, :, None] * np.eye(S.shape[1])).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(empty | (off > 1e-9))
    if bad.size and empty[bad[0]]:
        raise EmptySelection("a relation has no element at the requested point")
    if bad.size:
        raise UnsupportedKind("a relation's set is not aligned with its coordinates")
    return np.where(free.all(axis=1, keepdims=True), 0.0, x0), free


def _selection_flow(problem: NetworkProblem, y, zeta):
    """Min-norm consistent (u, mu) with u in k^-1(y), mu in gamma(zeta).

    gamma(zeta) is grad Gamma(zeta) off Gamma's pins, free on them, and
    empty if zeta misses them. Minimizes ||u||^2 + ||mu||^2 subject to
    u = -E mu: mu is fixed off the free coordinates of gamma(zeta) and
    routed on them, u fixed off those of k^-1(y) and leaks to ground on
    them: one min_norm_flow. Returns (u, mu, residual, scale), the
    residual of u + E mu and ||E b + a|| for the basepoints a, b.
    """
    op, gamma = problem.op, problem.edges.Gamma
    a, node_free = node_inverse(problem, y)
    zeta = gamma.meet(zeta)
    if zeta is None:
        raise EmptySelection("zeta misses an integrator's pin")
    b = np.where(gamma.pinned, 0.0, _block_apply(gamma.P, zeta) + gamma.q)
    rhs = -op.matvec(b) - np.where(node_free, 0.0, a)
    flow = min_norm_flow(op, gamma.pinned, rhs, leak=node_free)
    mu = b + flow.mu
    u = np.where(node_free, -op.matvec(mu), a)
    return u, mu, flow.residual, float(np.linalg.norm(op.matvec(b) + a))


# ---------------------------------------------------------------------------
# objectives and residuals
# ---------------------------------------------------------------------------


def opp_objective(problem: NetworkProblem, y) -> float:
    y = np.asarray(y, dtype=float).ravel()
    return problem.nodes.Kstar.value(y) + problem.edges.Gamma.value(problem.op.rmatvec(y))


def ofp_objective(problem: NetworkProblem, mu) -> float:
    mu = np.asarray(mu, dtype=float).ravel()
    return problem.nodes.K.value(-problem.op.matvec(mu)) + problem.edges.Gammastar.value(mu)


def inclusion_residual(problem: NetworkProblem, y) -> float:
    """Distance of 0 to the set k^-1(y) + E gamma(E' y).

    That is the least-squares residual of the selection flow (inf if
    either set is empty).
    """
    y = np.asarray(y, dtype=float).ravel()
    try:
        residual = _selection_flow(problem, y, problem.op.rmatvec(y))[2]
    except EmptySelection:
        return math.inf
    return float(np.linalg.norm(residual))


def node_residual(problem: NetworkProblem, u, y) -> float:
    """The largest distance of y_i to its node's value S_i u_i + v_i."""
    nodes = problem.nodes
    U, Y = _rows(u, nodes.v), _rows(y, nodes.v)
    points = np.einsum("kij,kj->ki", nodes.S, U) + nodes.v
    return max(np.linalg.norm(Y - points, axis=1).tolist())


def edge_residual(problem: NetworkProblem, zeta, mu) -> float:
    """The largest distance of an edge's pair (zeta_e, mu_e) to its relation.

    Off Gamma's pins that is the distance of mu to grad Gamma(zeta); on
    them the larger of zeta's distance to the pin and mu's to [lo, hi].
    """
    edges = problem.edges
    gamma = edges.Gamma
    zeta, mu = _rows(zeta, gamma.q), _rows(mu, gamma.q)
    pin = np.where(gamma.pinned, zeta - gamma.a, 0.0)
    excess = np.maximum(edges.lo - mu, 0.0) + np.maximum(mu - edges.hi, 0.0)
    off = np.where(gamma.pinned, 0.0, mu - (_block_apply(gamma.P, zeta) + gamma.q))
    parts = np.stack([pin, excess, off]).reshape(3, *gamma.P.shape[:2])
    return float(np.linalg.norm(parts, axis=2).max(initial=0.0))


def duality_gap(problem: NetworkProblem, u, mu, y, zeta) -> float:
    """K(u) + Gamma*(mu) + K*(y) + Gamma(zeta), pins met; zero at dual optimal pairs."""
    nodes, edges = problem.nodes, problem.edges
    terms = (nodes.K.value(u), edges.Gammastar.value(mu), nodes.Kstar.value(y),
             edges.Gamma.value(zeta))
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


def _block_apply(P: np.ndarray, x) -> np.ndarray:
    """The block-diagonal matrix with blocks P applied to x."""
    return np.einsum("kij,kj->ki", P, np.reshape(x, P.shape[:2])).ravel()


def solve_network_qp(op: IncidenceOperator, node, edge, y0, tol: float, objective):
    """Minimize f(y) + g(E'y) exactly, f and g quadratic with pins.

    node and edge are f and g as PinnedQuadratics. The pins are coordinates
    y_v = a_v (zero-gain nodes) and edge coordinates y_head - y_tail =
    a_e (integrators); a union-find over the stacked node coordinates
    joins them into classes. A spanning forest gives the particular
    solution y_p, and pins that close a cycle without balancing (beyond
    tol * (1 + ||a||)) raise Infeasible. Every class without a pinned
    node coordinate moves as one: y = y_p + N c with N the class
    indicators, scaled to unit columns. The reduced problem N'HN c =
    -N'(H y_p + lin) for H = P_f + E P_g E' is assembled blockwise from
    the node blocks summed per class and the edge blocks of the
    contracted graph, and one eigh solves it. Flat reduced directions
    keep the start value's component (noted "anchored"); a slope along
    one raises Unbounded. Every coordinate of a class gets the same
    float from c, so pinned differences with a zero offset are exact
    zeros.
    Returns (y, trace) with one trace row: the objective and the norm of
    the reduced gradient at y.
    """
    trace = SolveTrace(method="equality-qp")
    Pf, qf, pf, af = node.P, node.q, node.pinned, node.a
    Pg, qg, pg, ag = edge.P, edge.q, edge.pinned, edge.a
    size = op.node_size
    pinned_nodes, pinned_edges = np.flatnonzero(pf), np.flatnonzero(pg)
    offsets = np.concatenate([af[pinned_nodes], ag[pinned_edges]])
    root, y_p, imbalance = _join(
        size + 1,
        np.concatenate([np.full(pinned_nodes.size, size), op.tail[pinned_edges]]),
        np.concatenate([pinned_nodes, op.head[pinned_edges]]), offsets, size)
    if np.linalg.norm(imbalance) > tol * (1.0 + np.linalg.norm(offsets)):
        raise Infeasible("no point meets the pinned coordinates")
    root, y_p = root[:size], y_p[:size]
    free = root != size
    roots, cls = _classes(root[free], size)
    count = roots.size
    label = np.full(size, count)  # count labels the pinned class, which does not move
    label[free] = cls
    scale = 1.0 / np.sqrt(np.bincount(label, minlength=count + 1)[:count])

    def reduced(v):
        return np.bincount(label, v, count + 1)[:count] * scale

    def reduced_gradient(y):
        g = _block_apply(Pf, y) + qf
        return reduced(g + op.matvec(_block_apply(Pg, op.rmatvec(y)) + qg))

    d = op.dim
    rows, cols, weights = [], [], []
    node_label = label.reshape(-1, d)
    rows.append(np.broadcast_to(node_label[:, :, None], Pf.shape))
    cols.append(np.broadcast_to(node_label[:, None, :], Pf.shape))
    weights.append(Pf)
    curved = np.flatnonzero(Pg.any(axis=(1, 2)))
    if curved.size:
        Pc = Pg[curved]
        lh = label[op.head].reshape(-1, d)[curved]
        lt = label[op.tail].reshape(-1, d)[curved]
        for a_, b_, sign in ((lh, lh, 1.0), (lt, lt, 1.0), (lh, lt, -1.0), (lt, lh, -1.0)):
            rows.append(np.broadcast_to(a_[:, :, None], Pc.shape))
            cols.append(np.broadcast_to(b_[:, None, :], Pc.shape))
            weights.append(sign * Pc)
    rows, cols, weights = (np.concatenate([x.ravel() for x in xs]) for xs in (rows, cols, weights))
    inside = (rows < count) & (cols < count)
    R = np.bincount(rows[inside] * count + cols[inside], weights[inside],
                    count * count).reshape(count, count) * np.outer(scale, scale)
    vals, V = np.linalg.eigh(0.5 * (R + R.T))
    slope = V.T @ reduced_gradient(y_p)
    flat = vals <= 1e-12 * max(vals.max(initial=0.0), 1.0)
    if flat.any():
        if np.linalg.norm(slope[flat]) > tol * (1.0 + np.linalg.norm(slope)):
            raise Unbounded("flat direction with nonzero slope")
        trace.notes.append("anchored")
    c = V.T @ reduced(y0 - y_p)
    c[~flat] = -slope[~flat] / vals[~flat]
    y = y_p + np.append((V @ c) * scale, 0.0)[label]
    trace.record(1, objective(y), float(np.linalg.norm(reduced_gradient(y))))
    return y, trace


def solve_opp(problem: NetworkProblem, init_y=None, opts: Optional[SolveOptions] = None):
    """Solve the potential problem: minimize K*(y) + Gamma(E' y).

    Returns (y, zeta, trace) with zeta = E' y. K* and Gamma are
    quadratic with pinned blocks (zero-gain nodes, integrator edges), so
    the problem is an equality-constrained QP solved exactly by
    solve_network_qp. When the minimizers form a translate family,
    init_y fixes the free component and the trace notes "anchored".
    """
    opts = opts or SolveOptions()
    y0 = np.zeros(problem.node_size) if init_y is None else np.asarray(init_y, dtype=float).ravel()
    if y0.size != problem.node_size:
        raise DimensionMismatch("init_y has wrong length")
    y, trace = solve_network_qp(problem.op, problem.nodes.Kstar, problem.edges.Gamma,
                                y0, opts.tol, lambda yv: opp_objective(problem, yv))
    return y, problem.op.rmatvec(y), trace


def solve_ofp(problem: NetworkProblem, init_mu=None, opts: Optional[SolveOptions] = None):
    """Solve the flow problem: minimize K(-E mu) + Gamma*(mu).

    Returns (u, mu, trace) with u = -E mu. The flow optima are the mu
    with mu in gamma(zeta) and -E mu in k^-1(y) at any potential
    optimum (y, zeta), so this solves the potential problem first: an
    Infeasible one makes the flow problem Unbounded, and the reverse.
    On the coordinates where Gamma is quadratic mu = grad Gamma(zeta).
    On the pinned ones mu is init_mu plus the min-norm flow correction
    that meets -E mu = grad K*(y) off the pinned nodes: the optimum
    nearest init_mu, which keeps its cycle-space component (noted
    "anchored" when such flat directions exist). The trace row holds the
    objective and the norm of the gradient off the pins of Gamma*.
    """
    opts = opts or SolveOptions()
    op, nodes, edges = problem.op, problem.nodes, problem.edges
    mu = (np.zeros(problem.edge_size) if init_mu is None
          else np.asarray(init_mu, dtype=float).ravel())
    if mu.size != problem.edge_size:
        raise DimensionMismatch("init_mu has wrong length")
    Kstar, Gamma = nodes.Kstar, edges.Gamma
    try:
        y, _ = solve_network_qp(op, Kstar, Gamma, np.zeros(problem.node_size), opts.tol,
                                lambda yv: 0.0)
    except Infeasible:
        raise Unbounded("flow objective decreases without bound: the potential "
                        "problem's pins are inconsistent") from None
    except Unbounded:
        raise Infeasible("no flow has a finite objective: the potential problem "
                         "is unbounded") from None
    mu = np.where(Gamma.pinned, mu, _block_apply(Gamma.P, op.rmatvec(y)) + Gamma.q)
    rhs = -(_block_apply(Kstar.P, y) + Kstar.q) - op.matvec(mu)
    flow = min_norm_flow(op, Gamma.pinned, rhs, grounded=Kstar.pinned)
    mu = mu + flow.mu
    u = -op.matvec(mu)
    trace = SolveTrace(method="equality-qp")
    if flow.flat:
        trace.notes.append("anchored")
    Gammastar, K = edges.Gammastar, nodes.K
    grad = _block_apply(Gammastar.P, mu) + Gammastar.q - op.rmatvec(_block_apply(K.P, u) + K.q)
    trace.record(1, ofp_objective(problem, mu), float(np.linalg.norm(grad[~Gammastar.pinned])))
    return u, mu, trace


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


def recover_certificate(problem: NetworkProblem, y, zeta) -> SteadyStateCertificate:
    """Recover (u, mu) from an OPP solution (y, zeta).

    Selects u from k^-1(y) and mu from gamma(zeta) subject to
    u = -E mu, minimizing ||u||^2 + ||mu||^2 over the consistent
    choices, by one min-norm flow on the graph (see _selection_flow).
    Its least-squares residual is residual_inclusion. Raises
    EmptySelection when a set is empty or no consistent pair exists at
    SELECTION_TOL * (1 + ||E b + a||).
    """
    y = np.asarray(y, dtype=float).ravel()
    zeta = np.asarray(zeta, dtype=float).ravel()
    op = problem.op
    u, mu, residual, scale = _selection_flow(problem, y, zeta)
    residual = float(np.linalg.norm(residual))
    if residual > SELECTION_TOL * (1.0 + scale):
        raise EmptySelection("no consistent (u, mu) pair at tolerance")
    res_cons = max(
        float(np.linalg.norm(zeta - op.rmatvec(y))), float(np.linalg.norm(u + op.matvec(mu)))
    )
    res_rel = max(
        node_residual(problem, u, y),
        edge_residual(problem, zeta, mu),
    )
    return SteadyStateCertificate(
        u=u,
        y=y,
        zeta=zeta,
        mu=mu,
        residual_consistency=res_cons,
        residual_relations=res_rel,
        residual_inclusion=residual,
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
    op = problem.op
    residuals = {
        "consistency_zeta": float(np.linalg.norm(zeta - op.rmatvec(y))),
        "consistency_u": float(np.linalg.norm(u + op.matvec(mu))),
        "relation_nodes": node_residual(problem, u, y),
        "relation_edges": edge_residual(problem, zeta, mu),
        "inclusion": inclusion_residual(problem, y),
    }
    return VerifyReport(valid=all(v <= tol for v in residuals.values()), residuals=residuals)
