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
from functools import cached_property
from typing import Optional

import numpy as np

from .couplers import ControllerModel, controller_relations
from .errors import (
    DimensionMismatch,
    EmptyList,
    EmptySelection,
    Infeasible,
    InfiniteValue,
    Unbounded,
    UnsupportedKind,
)
from .netgraph import DirectedGraph, IncidenceOperator, incidence
from .plants import ss_groups
from .relations import (
    _groups,
    FunctionKind,
    IntegralFunction,
    RelationKind,
    VectorRelation,
    as_quadratic,
    block_diag,
    conjugate_function,
    coordinate_sets,
    forward,
    gradient_relation,
    inverse,
    pair_residual,
    stacked,
    stacked_affine,
    stacked_quadratics,
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
    node_relations, edge_relations : sequence of VectorRelation
        Per-node steady-state relations k_i and per-edge relations
        gamma_e; the node relations are made only when read.
    node_relation, edge_relation : VectorRelation
        The same, stacked block-wise. The stacked node relation, K and K*
        hold the node gains as stacks, which evaluation reads by group.
    K, Kstar, Gamma, Gammastar : IntegralFunction
        Node and edge integral functions and their conjugates, summed
        (stacked block-separably) over nodes and edges; parts: their qp_parts by name.
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

    @cached_property
    def parts(self) -> dict:
        return {name: qp_parts(getattr(self, name), self.op.dim)
                for name in ("K", "Kstar", "Gamma", "Gammastar")}


def _node_gains(relations, gains):
    """(S, v): the gains of affine node relations y = S_i u + v_i stacked,
    from ss_groups' relations and gains; UnsupportedKind if one is not affine."""
    if any(rel is not None and rel.kind is not RelationKind.AFFINE for rel in relations):
        raise UnsupportedKind(
            "node integral functions need an affine steady-state relation"
        )
    dims = {rel.dim for rel in relations if rel is not None} | {S.shape[1] for _, S, _ in gains}
    if not dims:
        raise EmptyList("stack of no relations")
    if len(dims) > 1:
        raise DimensionMismatch("node relations must share one dimension")
    d = dims.pop()
    S, v = np.empty((len(relations), d, d)), np.empty((len(relations), d))
    for idx, S_g, v_g in gains:
        S[idx], v[idx] = S_g, v_g
    for i, rel in enumerate(relations):
        if rel is not None:
            S[i], v[i] = rel.S, rel.v
    return S, v


def _node_functions(S, v):
    """(k, K): the stacked node relations y = S_i u + v_i and K, the sum of
    the K_i with grad K_i = k_i, kept as stacks. The gains must be
    symmetric, which one batched norm checks."""
    St = S.transpose(0, 2, 1)
    if np.any(np.linalg.norm(S - St, axis=(1, 2))
              > 1e-8 * (1.0 + np.linalg.norm(S, axis=(1, 2)))):
        raise UnsupportedKind("steady-state gain must be symmetric to integrate")
    return stacked_affine(S, v), stacked_quadratics(0.5 * (S + St), v)


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
    op, gains = incidence(graph, d), _node_gains(*ss_groups(agents))
    return _problem(op, gains, *controller_relations(controllers))


def problem_from_relations(op: IncidenceOperator, node_rels, edge_fns) -> NetworkProblem:
    """Assemble directly from node relations and edge integral functions."""
    edge_fns = tuple(edge_fns)
    return _problem(op, _node_gains(list(node_rels), []),
                    tuple(gradient_relation(f) for f in edge_fns), edge_fns)


def _problem(op, gains, edge_rels, edge_fns) -> NetworkProblem:
    """The NetworkProblem of stacked node gains and edge relations and functions."""
    node_relation, K = _node_functions(*gains)
    Gamma = stacked(edge_fns)
    return NetworkProblem(
        op=op,
        node_relations=node_relation.children,
        edge_relations=edge_rels,
        node_relation=node_relation,
        edge_relation=stacked_relation(edge_rels),
        K=K,
        Kstar=conjugate_function(K),
        Gamma=Gamma,
        Gammastar=conjugate_function(Gamma),
    )


# ---------------------------------------------------------------------------
# coordinate sets and graph flows
# ---------------------------------------------------------------------------


def _join(count: int, tails, heads, offsets, ground: int):
    """Union-find over count vertices joined by y[head] - y[tail] = offset.

    ground stays the root of its class. Returns (root, value, imbalance):
    root[v] is the root of v's class, value[v] = y_v - y_root along the
    spanning forest the joins grow, and imbalance holds (y_h - y_t) -
    offset for every join that closed a cycle instead. Only the joins
    walk the forest one vertex at a time; root and value are read off it
    a level at a time, each value summed from the root down, as find
    sums it.
    """
    parent = list(range(count))
    diff = [0.0] * count  # y_v - y_parent[v]

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        acc = 0.0
        for w in reversed(path):
            acc = diff[w] + acc
            diff[w], parent[w] = acc, v
        return v, acc

    imbalance = []
    for t, h, off in zip(tails.tolist(), heads.tolist(), offsets.tolist()):
        rt, ot = find(t)
        rh, oh = find(h)
        if rt == rh:
            imbalance.append((oh - ot) - off)
        elif rh == ground:
            parent[rt], diff[rt] = rh, oh - off - ot
        else:
            parent[rh], diff[rh] = rt, off + ot - oh
    parent, diff = np.array(parent, dtype=np.intp), np.array(diff)
    root, value = parent.copy(), np.zeros(count)
    done = parent == np.arange(count)
    while not done.all():
        level = np.flatnonzero(~done & done[parent])
        value[level] = diff[level] + value[parent[level]]
        root[level] = root[parent[level]]
        done[level] = True
    return root, value, np.array(imbalance)


def _classes(root: np.ndarray, count: int):
    """(roots, cls): the distinct entries of root, all below count, in
    ascending order, and the position of each entry among them."""
    seen = np.zeros(count, dtype=bool)
    seen[root] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[root]


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


def _pinned(problem: NetworkProblem, name: str, x):
    """x with the pins a of problem's function name set (see qp_parts); None if x
    misses them by more than tol * (1 + ||a||) at SolveOptions' tol: the one pin rule."""
    f, x = getattr(problem, name), np.asarray(x, dtype=float).ravel()
    if x.size != f.dim:
        raise DimensionMismatch(f"expected dimension {f.dim}, got {x.size}")
    _, _, pinned, a = problem.parts[name]
    tol = SolveOptions.tol * (1.0 + np.linalg.norm(a[pinned]))
    return np.where(pinned, a, x) if np.linalg.norm(x[pinned] - a[pinned]) <= tol else None


def _selection_flow(problem: NetworkProblem, y, zeta):
    """Min-norm consistent (u, mu) with u in k^-1(y), mu in gamma(zeta).

    gamma(zeta) is grad Gamma(zeta) off Gamma's pins, free on them, and
    empty if zeta misses them. Minimizes ||u||^2 + ||mu||^2 subject to
    u = -E mu: mu is fixed off the free coordinates of gamma(zeta) and
    routed on them, u fixed off those of k^-1(y) and leaks to ground on
    them: one min_norm_flow. Returns (u, mu, residual, scale), the
    residual of u + E mu and ||E b + a|| for the basepoints a, b.
    """
    op, d = problem.op, problem.op.dim
    a, node_free = coordinate_sets(problem.node_relation, inverse, y, d)
    P, q, edge_free, _ = problem.parts["Gamma"]
    zeta = _pinned(problem, "Gamma", zeta)
    if zeta is None:
        raise EmptySelection("zeta misses an integrator's pin")
    b = np.where(edge_free, 0.0, _block_apply(P, zeta) + q)
    rhs = -op.matvec(b) - np.where(node_free, 0.0, a)
    flow = min_norm_flow(op, edge_free, rhs, leak=node_free)
    mu = b + flow.mu
    u = np.where(node_free, -op.matvec(mu), a)
    return u, mu, flow.residual, float(np.linalg.norm(op.matvec(b) + a))


# ---------------------------------------------------------------------------
# objectives and residuals
# ---------------------------------------------------------------------------


def _value(problem: NetworkProblem, name: str, x) -> float:
    """problem's function name at x with its pins met, inf on a miss."""
    x = _pinned(problem, name, x)
    return math.inf if x is None else value(getattr(problem, name), x)


def opp_objective(problem: NetworkProblem, y) -> float:
    y = np.asarray(y, dtype=float).ravel()
    return _value(problem, "Kstar", y) + _value(problem, "Gamma", problem.op.rmatvec(y))


def ofp_objective(problem: NetworkProblem, mu) -> float:
    mu = np.asarray(mu, dtype=float).ravel()
    return _value(problem, "K", -problem.op.matvec(mu)) + _value(problem, "Gammastar", mu)


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


def flow_residual(problem: NetworkProblem, mu) -> float:
    """Distance of 0 to the set gamma^-1(mu) - E' k(-E mu).

    The node relations are affine, so k(-E mu) is a point and the
    distance is the part of b - E' k(-E mu) off the free coordinates of
    gamma^-1(mu) = b + span(e_J) (inf if a set is empty).
    """
    mu = np.asarray(mu, dtype=float).ravel()
    op, d = problem.op, problem.op.dim
    try:
        b, free = coordinate_sets(problem.edge_relation, inverse, mu, d)
        yk, _ = coordinate_sets(problem.node_relation, forward, -op.matvec(mu), d)
    except EmptySelection:
        return math.inf
    return float(np.linalg.norm(np.where(free, 0.0, b - op.rmatvec(yk))))


def duality_gap(problem: NetworkProblem, u, mu, y, zeta) -> float:
    """K(u) + Gamma*(mu) + K*(y) + Gamma(zeta), pins met; zero at dual optimal pairs."""
    terms = (
        _value(problem, "K", u),
        _value(problem, "Gammastar", mu),
        _value(problem, "Kstar", y),
        _value(problem, "Gamma", zeta),
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


def qp_parts(f: IntegralFunction, d: int):
    """Split f into sum_b x_b'P_b x_b/2 + q'x (up to a constant) plus pins.

    x is cut into count = f.dim // d consecutive d-blocks x_b. Returns
    (P, q, pinned, a): P the (count, d, d) block Hessians, q the linear
    term, pinned a boolean mask over the coordinates and a the pinned
    values x[pinned] = a[pinned] (meaningful only where pinned is set).
    Pin-free blocks go through as_quadratic; pins come from
    indicator-of-zero kinds, possibly shifted or stacked. The children of
    a stacked f are split by their groups, each in one numpy pass.
    """
    if f.dim % d:
        raise UnsupportedKind(f"dimension {f.dim} is not a multiple of the block size {d}")
    return _parts(_groups([f]), f.dim, d)


def _parts(groups, dim: int, d: int):
    """qp_parts of the functions of groups on consecutive blocks of one
    vector of size dim, each of a dimension that d divides."""
    P, q = np.empty((dim // d, d, d)), np.empty(dim)
    pinned, a = np.empty(dim, dtype=bool), np.empty(dim)
    for g in groups:
        index = g.index.ravel()
        P[index[::d] // d], q[index], pinned[index], a[index] = _group_parts(g, d)
    return P, q, pinned, a


def _group_parts(g, d: int):
    """qp_parts of the functions of group g, concatenated in order."""
    size, blocks = len(g.items) * g.dim, len(g.items) * g.dim // d
    if g.kind is FunctionKind.INDICATOR_ZERO:
        return np.zeros((blocks, d, d)), np.zeros(size), np.ones(size, dtype=bool), np.zeros(size)
    if g.kind is FunctionKind.SHIFTED:
        # inner(x - shift) + linear'x
        P, q, pinned, a = _parts(g.sub("inner"), size, d)
        shift = g.stack("shift").ravel()
        return P, q - _block_apply(P, shift) + g.stack("linear").ravel(), pinned, a + shift
    if g.kind is FunctionKind.STACKED:
        parts = [_parts(f.groups, f.dim, d) if all(h.dim % d == 0 for h in f.groups)
                 else _stacked_block(f, d) for f in g.items]
        return tuple(np.concatenate(part) for part in zip(*parts))
    if g.dim != d:
        raise UnsupportedKind(f"no quadratic form with pins for kind {g.kind}")
    if g.kind is FunctionKind.QUADRATIC:
        P, q = g.stack("P"), g.stack("q")
    else:
        quads = [as_quadratic(f) for f in g.items]
        if any(quad is None for quad in quads):
            raise UnsupportedKind(f"no quadratic form with pins for kind {g.kind}")
        P, q = np.array([quad[0] for quad in quads]), np.array([quad[1] for quad in quads])
    return P, q.ravel(), np.zeros(size, dtype=bool), np.zeros(size)


def _stacked_block(f: IntegralFunction, d: int):
    """qp_parts of a stacked f of one d-block whose children d does not divide."""
    if f.dim != d:
        raise UnsupportedKind(f"no quadratic form with pins for kind {f.kind}")
    P, q, pinned, a = zip(*(qp_parts(ch, ch.dim) for ch in f.children))
    return (block_diag([p[0] for p in P])[None], np.concatenate(q),
            np.concatenate(pinned), np.concatenate(a))


def _block_apply(P: np.ndarray, x) -> np.ndarray:
    """The block-diagonal matrix with blocks P applied to x."""
    return np.einsum("kij,kj->ki", P, np.reshape(x, (len(P), -1))).ravel()


def solve_network_qp(op: IncidenceOperator, node, edge, y0, tol: float, objective):
    """Minimize f(y) + g(E'y) exactly, f and g quadratic with pins.

    node and edge are the qp_parts of f and g. The pins are coordinates
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
    Pf, qf, pf, af = node
    Pg, qg, pg, ag = edge
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
    y, trace = solve_network_qp(problem.op, problem.parts["Kstar"], problem.parts["Gamma"],
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
    op, parts = problem.op, problem.parts
    mu = (np.zeros(problem.edge_size) if init_mu is None
          else np.asarray(init_mu, dtype=float).ravel())
    if mu.size != problem.edge_size:
        raise DimensionMismatch("init_mu has wrong length")
    (Pf, qf, pf, _), (Pg, qg, pg, _) = parts["Kstar"], parts["Gamma"]
    try:
        y, _ = solve_network_qp(op, parts["Kstar"], parts["Gamma"],
                                np.zeros(problem.node_size), opts.tol, lambda yv: 0.0)
    except Infeasible:
        raise Unbounded("flow objective decreases without bound: the potential "
                        "problem's pins are inconsistent") from None
    except Unbounded:
        raise Infeasible("no flow has a finite objective: the potential problem "
                         "is unbounded") from None
    mu = np.where(pg, mu, _block_apply(Pg, op.rmatvec(y)) + qg)
    rhs = -(_block_apply(Pf, y) + qf) - op.matvec(mu)
    flow = min_norm_flow(op, pg, rhs, grounded=pf)
    mu = mu + flow.mu
    u = -op.matvec(mu)
    trace = SolveTrace(method="equality-qp")
    if flow.flat:
        trace.notes.append("anchored")
    (Ps, qs, ps, _), (Pk, qk, _, _) = parts["Gammastar"], parts["K"]
    grad = _block_apply(Ps, mu) + qs - op.rmatvec(_block_apply(Pk, u) + qk)
    trace.record(1, ofp_objective(problem, mu), float(np.linalg.norm(grad[~ps])))
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


def recover_certificate(problem: NetworkProblem, y, zeta, tol: float = 1e-6) -> SteadyStateCertificate:
    """Recover (u, mu) from an OPP solution (y, zeta).

    Selects u from k^-1(y) and mu from gamma(zeta) subject to
    u = -E mu, minimizing ||u||^2 + ||mu||^2 over the consistent
    choices, by one min-norm flow on the graph (see _selection_flow).
    Its least-squares residual is residual_inclusion. Raises
    EmptySelection when a set is empty or no consistent pair exists at
    tol * (1 + ||E b + a||).
    """
    y = np.asarray(y, dtype=float).ravel()
    zeta = np.asarray(zeta, dtype=float).ravel()
    op = problem.op
    u, mu, residual, scale = _selection_flow(problem, y, zeta)
    residual = float(np.linalg.norm(residual))
    if residual > tol * (1.0 + scale):
        raise EmptySelection("no consistent (u, mu) pair at tolerance")
    res_cons = max(
        float(np.linalg.norm(zeta - op.rmatvec(y))), float(np.linalg.norm(u + op.matvec(mu)))
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
        "relation_nodes": pair_residual(problem.node_relation, u, y),
        "relation_edges": pair_residual(problem.edge_relation, zeta, mu),
        "inclusion": inclusion_residual(problem, y),
    }
    return VerifyReport(valid=all(v <= tol for v in residuals.values()), residuals=residuals)
