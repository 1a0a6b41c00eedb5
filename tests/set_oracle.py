"""Per-item set evaluation of relations and subgradients, for tests only.

couplednet holds a network's relations as flat arrays, and evaluates
their sets as sets spanned by coordinate axes. These are the ladders
that replaced: one relation or integral function at a time, through an
algebra of set descriptors (translate, Cartesian product) that keeps
general affine sets, and conjugates by the closed forms of each kind.
The tests compare the two.

The oracle also owns the two function kinds couplednet does not build,
from which tests build networks: the indicator of {0} and stacked
blocks. couplednet's shifted wraps them as it wraps its own kinds, and
value and grad_of here evaluate every kind.
"""
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from couplednet import relations
from couplednet.errors import EmptySelection, OutsideDomain, UnsupportedKind
from couplednet.relations import (FunctionKind, RelationKind, _check_dim, _psi_inverse,
                                  as_quadratic, gradient_relation, paper_psi, quadratic, shifted)

# The oracle's historical zero test: a vector within this of 0 is 0 at an
# indicator or integrator. couplednet itself tests membership exactly.
ZERO_ATOL = 1e-11


class OracleKind(Enum):
    INDICATOR_ZERO = "indicator_zero"
    STACKED = "stacked"


@dataclass(frozen=True)
class OracleFunction:
    """The indicator of {0}, 0 at the origin and +inf elsewhere, or a
    block-separable sum whose child j acts on its own slice of x."""

    dim: int
    kind: OracleKind
    children: tuple = ()


def indicator_zero(dim: int) -> OracleFunction:
    return OracleFunction(dim, OracleKind.INDICATOR_ZERO)


def stacked(children) -> OracleFunction:
    children = tuple(children)
    return OracleFunction(sum(ch.dim for ch in children), OracleKind.STACKED, children)


def blocks(f, x):
    """Each child of a stacked function with its slice of x."""
    offset = 0
    for ch in f.children:
        yield ch, x[offset : offset + ch.dim]
        offset += ch.dim


def value(f, x) -> float:
    """f(x) of any kind, couplednet's or the oracle's, shifted or not; may be +inf."""
    x = _check_dim(f, x)
    if f.kind is OracleKind.INDICATOR_ZERO:
        return math.inf if np.any(x != 0.0) else 0.0
    if f.kind is OracleKind.STACKED:
        return float(sum(value(ch, xb) for ch, xb in blocks(f, x)))
    if f.kind is FunctionKind.SHIFTED:
        return value(f.inner, x - f.shift) + float(f.linear @ x) + f.constant
    return relations.value(f, x)


def grad_of(f, x) -> np.ndarray:
    """The min-norm subgradient of f at x; OutsideDomain off dom f."""
    return subgradient(f, x).min_norm()


class SetKind(Enum):
    EMPTY = "empty"
    POINT = "point"
    AFFINE = "affine"
    EVERYTHING = "everything"


@dataclass(frozen=True)
class SetDescriptor:
    """One of: empty set, single point, affine subspace, all of R^dim.

    Affine subspaces are stored as basepoint + orthonormal basis of the
    direction space. Points are affine subspaces with an empty basis;
    everything is an affine subspace with a full basis.
    """

    kind: SetKind
    dim: int
    basepoint: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None  # (dim, r), orthonormal columns

    @staticmethod
    def empty(dim: int) -> "SetDescriptor":
        return SetDescriptor(SetKind.EMPTY, dim)

    @staticmethod
    def point(vec) -> "SetDescriptor":
        vec = np.asarray(vec, dtype=float).ravel()
        return SetDescriptor(SetKind.POINT, vec.size, basepoint=vec)

    @staticmethod
    def everything(dim: int) -> "SetDescriptor":
        return SetDescriptor(
            SetKind.EVERYTHING, dim, basepoint=np.zeros(dim), basis=np.eye(dim)
        )

    @staticmethod
    def _spanned(basepoint: np.ndarray, q: np.ndarray) -> "SetDescriptor":
        """basepoint + span(q) for q with orthonormal columns already."""
        if q.shape[1] == 0:
            return SetDescriptor.point(basepoint)
        if q.shape[1] == basepoint.size:
            return SetDescriptor.everything(basepoint.size)
        return SetDescriptor(SetKind.AFFINE, basepoint.size, basepoint=basepoint, basis=q)

    @property
    def is_empty(self) -> bool:
        return self.kind is SetKind.EMPTY

    @property
    def directions(self) -> np.ndarray:
        """Orthonormal basis of the direction space, (dim, 0) if there is none."""
        return self.basis if self.basis is not None else np.zeros((self.dim, 0))

    def distance(self, x) -> float:
        """Euclidean distance from x to the set (inf for the empty set)."""
        x = np.asarray(x, dtype=float).ravel()
        if self.kind is SetKind.EMPTY:
            return math.inf
        if self.kind is SetKind.EVERYTHING:
            return 0.0
        delta = x - self.basepoint
        if self.kind is SetKind.POINT:
            return float(np.linalg.norm(delta))
        proj = self.basis @ (self.basis.T @ delta)
        return float(np.linalg.norm(delta - proj))

    def min_norm(self) -> np.ndarray:
        """Minimum-norm element."""
        if self.kind is SetKind.EMPTY:
            raise OutsideDomain("empty set has no elements")
        if self.kind is SetKind.EVERYTHING:
            return np.zeros(self.dim)
        if self.kind is SetKind.POINT:
            return self.basepoint.copy()
        b, q = self.basepoint, self.basis
        return b - q @ (q.T @ b)


def block_diag(mats) -> np.ndarray:
    """Blocks placed along the diagonal of one dense matrix."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    row = col = 0
    for m in mats:
        out[row : row + m.shape[0], col : col + m.shape[1]] = m
        row, col = row + m.shape[0], col + m.shape[1]
    return out


def conjugate(f):
    """f* as an IntegralFunction, kind by kind: a quadratic of invertible P
    gives the quadratic of P^-1, one of P = 0 the indicator of {q}, and
    the indicator of {0} the zero function. UnsupportedKind otherwise."""
    if f.kind is OracleKind.INDICATOR_ZERO:
        return quadratic(np.zeros((f.dim, f.dim)))
    if f.kind is OracleKind.STACKED:
        return stacked([conjugate(ch) for ch in f.children])
    if f.kind is FunctionKind.SHIFTED:
        return shifted(conjugate(f.inner), shift=f.linear, linear=f.shift,
                       constant=-float(f.shift @ f.linear) - f.constant)
    if f.kind is not FunctionKind.QUADRATIC:
        raise UnsupportedKind(f"no closed-form conjugate for kind {f.kind}")
    if not np.any(np.abs(f.P) > 1e-8):
        return shifted(indicator_zero(f.dim), shift=f.q, constant=-f.c)
    if np.linalg.matrix_rank(f.P) < f.dim:
        raise UnsupportedKind("conjugate object of a degenerate quadratic")
    inv = np.linalg.inv(f.P)
    return quadratic(inv, -inv @ f.q, 0.5 * f.q @ inv @ f.q - f.c)


def solve_affine(mat, rhs, tol: float = 1e-8) -> SetDescriptor:
    """Solution set of mat @ x = rhs as a descriptor (Empty if inconsistent).

    One SVD gives the minimum-norm solution, as basepoint, and an
    orthonormal basis of the null space of mat. The system counts as
    inconsistent when that solution misses rhs by more than
    tol * (1 + ||rhs||).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.asarray(rhs, dtype=float).ravel()
    # all of vt is needed only when it has fewer rows than columns
    u, s, vt = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > 1e-12 * s.max(initial=0.0)))
    x0 = vt[:rank].T @ ((u[:, :rank].T @ rhs) / s[:rank])
    if np.linalg.norm(mat @ x0 - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
        return SetDescriptor.empty(mat.shape[1])
    return SetDescriptor._spanned(x0, vt[rank:].T)


def translate(s, v):
    if s.kind is SetKind.EMPTY or s.kind is SetKind.EVERYTHING:
        return s
    return SetDescriptor(s.kind, s.dim, basepoint=s.basepoint + np.asarray(v, dtype=float).ravel(),
                         basis=s.basis)


def product(parts):
    """Cartesian product, concatenating coordinates."""
    dim = sum(p.dim for p in parts)
    if any(p.is_empty for p in parts):
        return SetDescriptor.empty(dim)
    base = np.concatenate([p.basepoint for p in parts])
    # orthonormal blocks on the diagonal stay orthonormal
    return SetDescriptor._spanned(base, block_diag([p.directions for p in parts]))


def subgradient(f, x):
    """Subdifferential of f at x (Empty outside dom f)."""
    x = _check_dim(f, x)
    if f.kind is FunctionKind.QUADRATIC:
        return SetDescriptor.point(f.P @ x + f.q)
    if f.kind is OracleKind.INDICATOR_ZERO:
        if np.max(np.abs(x), initial=0.0) > ZERO_ATOL:
            return SetDescriptor.empty(f.dim)
        return SetDescriptor.everything(f.dim)
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return SetDescriptor.point(np.array([paper_psi(float(t)) for t in x]))
    if f.kind is OracleKind.STACKED:
        return product([subgradient(ch, xb) for ch, xb in blocks(f, x)])
    if f.kind is FunctionKind.SHIFTED:
        return translate(subgradient(f.inner, x - f.shift), f.linear)
    raise UnsupportedKind(str(f.kind))


def grad_solve(chi, y):
    """Solution set of y in subdifferential(chi)(u)."""
    if chi.kind is OracleKind.INDICATOR_ZERO:
        return SetDescriptor.point(np.zeros(chi.dim))
    if chi.kind is OracleKind.STACKED:
        return product([grad_solve(ch, yb) for ch, yb in blocks(chi, y)])
    if chi.kind is FunctionKind.SHIFTED:
        return translate(grad_solve(chi.inner, y - chi.linear), chi.shift)
    quad = as_quadratic(chi)
    if quad is not None:
        return solve_affine(quad[0], y - quad[1])
    if chi.kind is FunctionKind.SCALAR_SEPARABLE:
        roots, inside = _psi_inverse(np.asarray(y, dtype=float))
        if not inside.all():
            return SetDescriptor.empty(chi.dim)
        return SetDescriptor.point(roots)
    raise UnsupportedKind(f"no closed-form gradient inverse for kind {chi.kind}")


def forward(rel, u):
    """The set of steady outputs for steady input u (Empty if none)."""
    u = _check_dim(rel, u)
    if rel.kind is RelationKind.AFFINE:
        return SetDescriptor.point(rel.S @ u + rel.v)
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        return subgradient(rel.chi, u)
    if rel.kind is RelationKind.INTEGRATOR:
        if np.max(np.abs(u), initial=0.0) > ZERO_ATOL:
            return SetDescriptor.empty(rel.dim)
        return SetDescriptor.everything(rel.dim)
    if rel.kind is RelationKind.SHIFTED:
        return translate(forward(rel.inner, u - rel.input_offset), rel.output_offset)
    if rel.kind is RelationKind.INVERTED:
        return inverse(rel.inner, u)
    raise UnsupportedKind(str(rel.kind))


def inverse(rel, y):
    """The set of steady inputs producing steady output y (Empty if none)."""
    y = _check_dim(rel, y)
    if rel.kind is RelationKind.AFFINE:
        return solve_affine(rel.S, y - rel.v)
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        return grad_solve(rel.chi, y)
    if rel.kind is RelationKind.INTEGRATOR:
        if np.any(y < rel.out_lo - 1e-9) or np.any(y > rel.out_hi + 1e-9):
            return SetDescriptor.empty(rel.dim)
        return SetDescriptor.point(np.zeros(rel.dim))
    if rel.kind is RelationKind.SHIFTED:
        return translate(inverse(rel.inner, y - rel.output_offset), rel.input_offset)
    if rel.kind is RelationKind.INVERTED:
        return forward(rel.inner, y)
    raise UnsupportedKind(str(rel.kind))


def pair_residual(rel, u, y):
    """Distance of (u, y) to the graph of rel, one relation at a time.

    An integrator also honors its output interval. The gradient of a
    shifted function is measured as the shifted relation it is, that of
    a stacked one by its blocks' largest residual. Any other relation gives the distance of y to its
    forward set, or, when that is empty, of u to its inverse set.
    """
    u, y = _check_dim(rel, u), _check_dim(rel, y)
    chi = rel.chi
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX and chi.kind is FunctionKind.SHIFTED:
        return pair_residual(gradient_relation(chi.inner), u - chi.shift, y - chi.linear)
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX and chi.kind is OracleKind.STACKED:
        return max(pair_residual(gradient_relation(ch), ub, yb)
                   for (ch, ub), (_, yb) in zip(blocks(chi, u), blocks(chi, y)))
    if rel.kind is RelationKind.INTEGRATOR:
        excess = np.maximum(rel.out_lo - y, 0.0) + np.maximum(y - rel.out_hi, 0.0)
        return max(float(np.linalg.norm(u)), float(np.linalg.norm(excess)))
    if rel.kind is RelationKind.SHIFTED:
        return pair_residual(rel.inner, u - rel.input_offset, y - rel.output_offset)
    if rel.kind is RelationKind.INVERTED:
        return pair_residual(rel.inner, y, u)
    fwd = forward(rel, u)
    if not fwd.is_empty:
        return fwd.distance(y)
    inv = inverse(rel, y)
    return math.inf if inv.is_empty else inv.distance(u)


def block_set(evaluate, rel, x):
    """(base, free) of the set evaluate(rel, x), as coordinate_sets reports it:
    EmptySelection when it is empty, UnsupportedKind when it is not
    spanned by coordinate axes."""
    s = evaluate(rel, x)
    if s.is_empty:
        raise EmptySelection("empty")
    free = np.zeros(x.size, dtype=bool)
    if s.kind is SetKind.EVERYTHING:
        free[:] = True
    elif s.kind is SetKind.AFFINE:
        proj = s.directions @ s.directions.T
        free = np.diag(proj) > 0.5
        if np.abs(proj - np.diag(free.astype(float))).max() > 1e-9:
            raise UnsupportedKind("not aligned")
    return s.basepoint, free
