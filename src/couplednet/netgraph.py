"""Graph topology, incidence matrices, and the lifted incidence operator.

The diffusive coupling convention is fixed here once: for edge k = (i, j)
the incidence matrix E has E[i, k] = -1 (tail) and E[j, k] = +1 (head),
and the lifted operator is E kron I_d acting on stacked node vectors
(node-major layout: coordinates of node 0, then node 1, ...). The
operator applies the lift by indexing (matvec, rmatvec); the dense lift
is built only when it is read. _join is the one union-find: it decides
connectivity here and the classes of netopt's graph flows.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, Disconnected, IndexOutOfRange, SelfLoop


@dataclass(frozen=True)
class DirectedGraph:
    """A connected graph on nodes 0..node_count-1 with oriented edges.

    Orientation is taken exactly as listed; it only fixes signs, the
    coupling itself is undirected. Connectivity is enforced because the
    kernel of the lifted transpose must be exactly the agreement space.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class IncidenceOperator:
    """Incidence matrix of a graph, lifted by kron with I_d.

    Attributes
    ----------
    dim : per-node signal dimension d
    lifted : (n*d, m*d) ndarray, kron(E, eye(d)) for the (n, m)
        incidence matrix E; built from tail and head on first read
    tail, head : (m*d,) int arrays; the stacked node coordinates that
        edge coordinate k*d + c leaves and enters
    """

    graph: DirectedGraph
    dim: int

    @cached_property
    def lifted(self) -> np.ndarray:
        lifted = np.zeros((self.node_size, self.edge_size))
        cols = np.arange(self.edge_size)
        lifted[self.tail, cols] = -1.0
        lifted[self.head, cols] = 1.0
        return lifted

    @cached_property
    def tail(self) -> np.ndarray:
        return self._lift_index(0)

    @cached_property
    def head(self) -> np.ndarray:
        return self._lift_index(1)

    def _lift_index(self, end: int) -> np.ndarray:
        nodes = np.array([e[end] for e in self.graph.edges], dtype=np.intp)
        return (nodes[:, None] * self.dim + np.arange(self.dim)).ravel()

    def matvec(self, mu) -> np.ndarray:
        """E mu: the net edge signal entering each node coordinate."""
        mu = _check_size(mu, self.edge_size, "stacked edge vector")
        return (np.bincount(self.head, mu, self.node_size)
                - np.bincount(self.tail, mu, self.node_size))

    def rmatvec(self, y) -> np.ndarray:
        """E' y: head minus tail output on each edge coordinate."""
        y = _check_size(y, self.node_size, "stacked node vector")
        return y[self.head] - y[self.tail]

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @property
    def node_size(self) -> int:
        return self.node_count * self.dim

    @property
    def edge_size(self) -> int:
        return self.edge_count * self.dim


def build_graph(node_count: int, edges) -> DirectedGraph:
    """Validate and return a connected directed graph.

    Raises SelfLoop, IndexOutOfRange, or Disconnected.
    """
    if node_count < 1:
        raise IndexOutOfRange(f"node_count must be positive, got {node_count}")
    normalized = []
    for tail, head in edges:
        tail, head = int(tail), int(head)
        if not (0 <= tail < node_count and 0 <= head < node_count):
            raise IndexOutOfRange(f"edge ({tail}, {head}) outside [0, {node_count})")
        if tail == head:
            raise SelfLoop(f"self-loop at node {tail}")
        normalized.append((tail, head))

    ends = np.array(normalized, dtype=np.intp).reshape(-1, 2).T
    components = np.unique(_join(node_count, *ends, np.zeros(ends.shape[1]), 0)[0]).size
    if components > 1:
        raise Disconnected(f"graph has {components} components")

    return DirectedGraph(node_count=node_count, edges=tuple(normalized))


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


def incidence(graph: DirectedGraph, d: int) -> IncidenceOperator:
    """Incidence matrix (tail -1, head +1 per edge column) lifted by kron with I_d."""
    if d < 1:
        raise DimensionMismatch(f"dim must be positive, got {d}")
    return IncidenceOperator(graph=graph, dim=d)


def _check_size(v, size: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).ravel()
    if v.size != size:
        raise DimensionMismatch(f"expected {what} of length {size}, got {v.size}")
    return v


def project_agreement(op: IncidenceOperator, u) -> np.ndarray:
    """Project a stacked node vector onto Ker(lifted^T).

    Equals the per-node mean of the d-blocks, copied to every node.
    """
    u = _check_size(u, op.node_size, "stacked node vector")
    blocks = u.reshape(op.node_count, op.dim)
    mean = blocks.mean(axis=0)
    return np.tile(mean, op.node_count)
