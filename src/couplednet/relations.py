"""Steady-state input-output relations and convex integral functions.

Three layers live here:

* SetDescriptor, a closed family of sets (empty / point / affine
  subspace / everything) used for all set-valued evaluations;
* IntegralFunction, extended-real convex functions with values,
  gradients and conjugates, the non-quadratic one built on the
  saturating nonlinearity paper_psi of the formation example;
* VectorRelation, possibly set-valued input-output relations on R^d
  with forward and inverse evaluation, plus cyclic-monotonicity
  testing.

Relations of every kind are evaluated by groups of one kind and
dimension (coordinate_sets, pair_residual), and forward and inverse
are the one-block case, returning sets spanned by coordinate axes. A
gradient relation is evaluated as the relation of its closed form:
affine for a quadratic, the integrator for the indicator of {0}, and
shifted or stacked for shifted or stacked functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyList,
    EmptySelection,
    OutsideDomain,
    RelationNotEvaluable,
    UnsupportedKind,
)

# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------


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
    everything is an affine subspace with a full basis. The named kinds
    are kept because several call sites branch on them.
    """

    kind: SetKind
    dim: int
    basepoint: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None  # (dim, r), orthonormal columns

    # -- constructors -------------------------------------------------
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

    # -- predicates ----------------------------------------------------
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
        """Minimum-norm element (the deterministic selection rule)."""
        if self.kind is SetKind.EMPTY:
            raise OutsideDomain("empty set has no elements")
        if self.kind is SetKind.EVERYTHING:
            return np.zeros(self.dim)
        if self.kind is SetKind.POINT:
            return self.basepoint.copy()
        b, q = self.basepoint, self.basis
        return b - q @ (q.T @ b)


# ---------------------------------------------------------------------------
# the nonlinearity used by the formation example
# ---------------------------------------------------------------------------


_LOG2 = math.log(2.0)


def paper_psi(x):
    """Monotone saturating scalar map arcsin(L(x) sgn(x) / (L(x) + 1)).

    Here L(x) = log((exp(x) + 1) / 2) squared, evaluated through
    logaddexp(x, 0) = max(x, 0) + log1p(exp(-|x|)) so large arguments
    do not overflow. Beyond |x| of about 708 that exp underflows to
    zero, which is the exact limit, so the underflow is not reported:
    arrays go through `paper_psi_into` inside np.errstate(under="ignore"),
    entered here. Scalars take the same formula through libm, as numpy's
    logaddexp does, which is faster on one value and agrees bit for bit.
    The map is zero at zero, strictly increasing, and its range is the
    open interval (PSI_RANGE[0], PSI_RANGE[1]). Arrays are handled
    coordinatewise.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        t = float(x)
        ell = max(t, 0.0) + math.log1p(math.exp(-abs(t))) - _LOG2
        return float(_psi_tail(ell * ell, x, None, None))
    with np.errstate(under="ignore"):
        return paper_psi_into(x.copy(), np.empty_like(x))  # it overwrites x


def paper_psi_into(x, out):
    """paper_psi of the float array x, written into out and returned.

    x is overwritten. The operations are paper_psi's, in its order, so
    the result agrees with it bit for bit. No errstate is entered here:
    a caller that may run under a raising errstate enters
    np.errstate(under="ignore") around the call, as paper_psi and the
    integration loops in _fastpath do.
    """
    np.logaddexp(x, 0.0, out)
    np.subtract(out, _LOG2, out)  # ell
    np.multiply(out, out, out)  # L = ell ** 2
    return _psi_tail(out, x, x, out)


def _psi_tail(big_l, sign, num, out):
    """arcsin(copysign(L, sign) / (L + 1)), the tail of both branches.

    For arrays, num and out are buffers: num gets the quotient, and L,
    which may sit in out, is overwritten by L + 1 and then the result.
    The scalar branch passes a float L and None for both, and the
    in-place operators then rebind plain scalars, which keeps one value
    about as cheap as the inline expression.
    """
    num = np.copysign(big_l, sign, num)
    big_l += 1.0
    num /= big_l
    return np.arcsin(num, out)


def paper_psi_prime(x):
    """paper_psi's derivative 2|ell| s / ((L + 1) sqrt(2L + 1)), zero at zero: ell and L
    are paper_psi's, s = exp(x - logaddexp(x, 0)) the logistic function."""
    with np.errstate(under="ignore"):
        soft = np.logaddexp(x, 0.0)
        ell = soft - _LOG2
        big_l = ell * ell
        return 2.0 * np.abs(ell) * np.exp(x - soft) / ((big_l + 1.0) * np.sqrt(2.0 * big_l + 1.0))


_L_LIMIT = _LOG2 ** 2
PSI_RANGE = (-math.asin(_L_LIMIT / (_L_LIMIT + 1.0)), math.pi / 2.0)


def _psi_inverse(m: np.ndarray):
    """(x, inside): paper_psi(x) = m wherever inside, which marks the
    entries of m in the open PSI_RANGE; x is 0 elsewhere.

    With s = |sin m| = L / (L + 1) and ell = sgn(m) sqrt(s / (1 - s)),
    x = log(2 exp(ell) - 1) = ell + log(2 - exp(-ell)). It is written
    without cancellation: 1 - s as 2 sin((pi/2 - |m|) / 2)^2, and the
    logarithm as log1p(-expm1(-ell)).
    """
    inside = (PSI_RANGE[0] < m) & (m < PSI_RANGE[1])
    m = np.where(inside, m, 0.0)
    a = np.abs(m)
    ell = np.copysign(np.sqrt(np.sin(a) / (2.0 * np.sin(0.5 * (0.5 * math.pi - a)) ** 2)), m)
    return ell + np.log1p(-np.expm1(-ell)), inside


@cache
def _gauss_legendre():
    """Nodes and weights of 40-point Gauss-Legendre quadrature on [0, 1], by
    Golub-Welsch: the eigenvalues of the Jacobi matrix of the Legendre
    polynomials, and the squared first components of its eigenvectors.
    Made on first use, without numpy.polynomial, which costs 1.5 MB."""
    k = np.arange(1.0, 40.0)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return 0.5 * (nodes + 1.0), vecs[0] ** 2


def _psi_integral(t: np.ndarray) -> np.ndarray:
    """The integral of paper_psi from 0 to each entry of t.

    Gauss-Legendre panels of 40 nodes: [0, min(|t|, 8)], then
    [8 * 4^k, 8 * 4^(k+1)] cut at |t|, all in one paper_psi call.
    paper_psi is analytic on either side of 0, and its complex
    singularities nearest the real line sit near 0.3 +- 1.2i, so each
    panel meets double precision: within 1e-13 relative of 40-digit
    quadrature for 1e-3 <= |t| <= 1e4. Beyond, paper_psi's own rounding
    grows as arcsin's argument nears 1 (3e-10 relative at t = 1e8).
    """
    nodes, weights = _gauss_legendre()
    a, edges = np.abs(t), [0.0, 8.0]
    top = np.max(a, initial=0.0)
    while edges[-1] < top:
        edges.append(4.0 * edges[-1])
    cuts = np.minimum(edges, a[..., None])
    width = np.diff(cuts, axis=-1)[..., None]
    points = np.sign(t)[..., None, None] * (cuts[..., :-1, None] + width * nodes)
    return np.sign(t) * (width * paper_psi(points) @ weights).sum(axis=-1)


# ---------------------------------------------------------------------------
# integral functions
# ---------------------------------------------------------------------------


class FunctionKind(Enum):
    QUADRATIC = "quadratic"
    INDICATOR_ZERO = "indicator_zero"
    SCALAR_SEPARABLE = "scalar_separable"
    STACKED = "stacked"
    SHIFTED = "shifted"


@dataclass(frozen=True)
class IntegralFunction:
    """Extended-real convex function used as K, K*, Gamma, Gamma*.

    Kinds
    -----
    Quadratic
        f(x) = x'Px/2 + q'x + c with P symmetric PSD.
    IndicatorZero
        0 at the origin, +inf elsewhere.
    ScalarSeparable
        f(x) = sum_j integral_0^{x_j} paper_psi(s) ds, the one
        non-quadratic function a config builds; values by Gauss-Legendre
        panels (see _psi_integral), the gradient's inverse in closed
        form (see _psi_inverse).
    Stacked
        block-separable sum; child j acts on its own slice of x.
    Shifted
        f(x) = inner(x - shift) + linear'x + constant.
    """

    dim: int
    kind: FunctionKind
    P: Optional[np.ndarray] = None
    q: Optional[np.ndarray] = None
    c: float = 0.0
    children: tuple = ()
    inner: Optional["IntegralFunction"] = None
    shift: Optional[np.ndarray] = None
    linear: Optional[np.ndarray] = None
    constant: float = 0.0

    @cached_property
    def groups(self) -> tuple:
        """A stacked function's children by _groups, made on first use."""
        return _groups(self.children)


def quadratic(P, q=None, c: float = 0.0) -> IntegralFunction:
    P = np.atleast_2d(np.asarray(P, dtype=float))
    dim = P.shape[0]
    if P.shape != (dim, dim):
        raise DimensionMismatch("quadratic P must be square")
    q = np.zeros(dim) if q is None else np.asarray(q, dtype=float).ravel()
    if q.size != dim:
        raise DimensionMismatch("quadratic q has wrong length")
    return _quadratic(P, q, c)


def _quadratic(P: np.ndarray, q: np.ndarray, c) -> IntegralFunction:
    """quadratic(P, q, c) for a float (dim, dim) P and (dim,) q, unchecked."""
    return IntegralFunction(dim=P.shape[0], kind=FunctionKind.QUADRATIC, P=P, q=q, c=float(c))


def stacked_quadratics(P: np.ndarray, q: np.ndarray, c=None) -> IntegralFunction:
    """stacked([quadratic(P[k], q[k], c[k]) for each row k]) of float stacks
    P (count, dim, dim), q (count, dim) and c (count,) (zeros if None),
    its children views of the rows made only when read."""
    c = np.zeros(len(P)) if c is None else c
    return _stacked_rows(IntegralFunction, FunctionKind.STACKED, FunctionKind.QUADRATIC,
                         P.shape[1], _quadratic, P=P, q=q, c=c)


def indicator_zero(dim: int) -> IntegralFunction:
    return IntegralFunction(dim=dim, kind=FunctionKind.INDICATOR_ZERO)


def scalar_separable(psi, dim: int, psi_range=None) -> IntegralFunction:
    """f(x) = sum_j integral_0^{x_j} paper_psi(s) ds on R^dim.

    psi must be paper_psi, and psi_range None or PSI_RANGE, the closure
    of its range; anything else raises UnsupportedKind.
    """
    if psi is not paper_psi or (psi_range is not None and tuple(psi_range) != PSI_RANGE):
        raise UnsupportedKind("scalar_separable takes paper_psi on PSI_RANGE only")
    return IntegralFunction(dim=dim, kind=FunctionKind.SCALAR_SEPARABLE)


def stacked(children) -> IntegralFunction:
    children = tuple(children)
    if not children:
        raise EmptyList("stack of no functions")
    dim = sum(ch.dim for ch in children)
    return IntegralFunction(dim=dim, kind=FunctionKind.STACKED, children=children)


def shifted(inner: IntegralFunction, shift=None, linear=None, constant: float = 0.0) -> IntegralFunction:
    dim = inner.dim
    shift = np.zeros(dim) if shift is None else np.asarray(shift, dtype=float).ravel()
    linear = np.zeros(dim) if linear is None else np.asarray(linear, dtype=float).ravel()
    if shift.size != dim or linear.size != dim:
        raise DimensionMismatch("shift/linear offsets must match inner dimension")
    if inner.kind is FunctionKind.SHIFTED:  # one shift, so a pin evaluates exactly at its point
        return shifted(inner.inner, inner.shift + shift, inner.linear + linear,
                       inner.constant + constant - float(inner.linear @ shift))
    if inner.kind is FunctionKind.STACKED:  # the same for a pin in a block; one takes the constant
        blocks = zip(_blocks(inner, shift), _blocks(inner, linear))
        return stacked([shifted(ch, s, b, constant if k == 0 else 0.0)
                        for k, ((ch, s), (_, b)) in enumerate(blocks)])
    return IntegralFunction(
        dim=dim,
        kind=FunctionKind.SHIFTED,
        inner=inner,
        shift=shift,
        linear=linear,
        constant=float(constant),
    )


def _blocks(f, x: np.ndarray):
    """Each child of a stacked function or relation with its slice of x."""
    offset = 0
    for ch in f.children:
        yield ch, x[offset : offset + ch.dim]
        offset += ch.dim


def _check_dim(f, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != f.dim:
        raise DimensionMismatch(f"expected dimension {f.dim}, got {x.size}")
    return x


def value(f: IntegralFunction, x) -> float:
    """Evaluate f(x); may return +inf."""
    return float(_values(_groups([f])[0], _check_dim(f, x)[None])[0])


class _Group:
    """Items (functions or relations) of one kind and dimension among a
    sequence whose items act on consecutive blocks of a vector x, as the
    children of a stacked function or relation do.

    idx holds their positions in the sequence, and x[index] has their
    blocks as its rows. stack(name) is the items' field name as one
    float array and sub(name) the groups of their (lowered) field name,
    each made on first use and then kept, so a group evaluated again
    stacks nothing again.
    """

    def __init__(self, items, idx: np.ndarray, index: np.ndarray, kind=None, dim=None, stacks=None):
        self.items, self.idx, self.index = items, idx, index
        self.kind, self.dim = (items[0].kind, items[0].dim) if kind is None else (kind, dim)
        self._memo = {} if stacks is None else dict(stacks)

    def stack(self, name: str) -> np.ndarray:
        if name not in self._memo:
            self._memo[name] = np.array([getattr(it, name) for it in self.items], dtype=float)
        return self._memo[name]

    def sub(self, name: str) -> tuple:
        key = ("sub", name)
        if key not in self._memo:
            self._memo[key] = _groups([_lower(getattr(it, name)) for it in self.items])
        return self._memo[key]


class _Rows:
    """The items make(*rows) of the rows of stacks, all made at the first
    use of one: the children of a stacked function or relation built from
    stacks, which evaluation reads as one group and never needs made."""

    def __init__(self, make, *stacks):
        self._make, self._stacks, self._items = make, stacks, None

    def __len__(self) -> int:
        return len(self._stacks[0])

    def __getitem__(self, k):
        return self._all()[k]

    def __iter__(self):
        return iter(self._all())

    def _all(self) -> tuple:
        if self._items is None:
            self._items = tuple(map(self._make, *self._stacks))
        return self._items


def _stacked_rows(cls, kind, item_kind, dim: int, make, **stacks):
    """A stacked function or relation (cls) of children of item_kind and
    dimension dim, one per row of the named stacks and made only when
    read (see _Rows); its one group holds the stacks already."""
    count = len(next(iter(stacks.values())))
    children = _Rows(make, *stacks.values())
    out = cls(dim=count * dim, kind=kind, children=children)
    out.__dict__["groups"] = (_Group(children, np.arange(count),
                                     np.arange(count * dim).reshape(count, dim),
                                     item_kind, dim, stacks),)
    return out


def _groups(items) -> tuple:
    """items as _Groups of one kind and dimension, in order of first appearance."""
    items = list(items)
    start = np.cumsum([0] + [it.dim for it in items])
    positions = {}
    for i, it in enumerate(items):  # an Enum hashes in Python; its id does not
        positions.setdefault((id(it.kind), it.dim), []).append(i)
    return tuple(_Group([items[i] for i in idx], np.array(idx),
                        start[idx][:, None] + np.arange(dim))
                 for (_, dim), idx in positions.items())


def _block_values(groups, count: int, x: np.ndarray) -> np.ndarray:
    """f_k(x_k) for count functions, given by their groups, on
    consecutive blocks x_k of x."""
    out = np.empty(count)
    for g in groups:
        out[g.idx] = _values(g, x[g.index])
    return out


def _values(g: _Group, X: np.ndarray) -> np.ndarray:
    """f_k(X[k]) for the functions f_k of group g.

    Every kind but stacked is evaluated in one numpy pass over the
    group. A stacked function sums its children's values in order.
    """
    kind, fs = g.kind, g.items
    if kind is FunctionKind.QUADRATIC:
        return (0.5 * np.einsum("ki,kij,kj->k", X, g.stack("P"), X)
                + np.einsum("ki,ki->k", g.stack("q"), X) + g.stack("c"))
    if kind is FunctionKind.INDICATOR_ZERO:
        return np.where(np.any(X != 0.0, axis=1), math.inf, 0.0)
    if kind is FunctionKind.SHIFTED:
        inner = _block_values(g.sub("inner"), len(fs), (X - g.stack("shift")).ravel())
        linear = np.einsum("ki,ki->k", g.stack("linear"), X)
        return inner + linear + g.stack("constant")
    if kind is FunctionKind.SCALAR_SEPARABLE:
        return _psi_integral(X).sum(axis=1)
    if kind is FunctionKind.STACKED:
        return np.array([sum(_block_values(f.groups, len(f.children), x).tolist())
                         for f, x in zip(fs, X)])
    raise UnsupportedKind(str(kind))


def grad_of(f: IntegralFunction, x) -> np.ndarray:
    """Gradient for differentiable functions; min-norm subgradient otherwise.

    The closed-form gradient serves every kind but an indicator part:
    its min-norm subgradient is 0 at its point and OutsideDomain off it.
    """
    x = _check_dim(f, x)
    try:
        return _row_grad(f, x[None])[0]
    except RelationNotEvaluable:
        return forward(gradient_relation(f), x).min_norm()


def as_quadratic(f: IntegralFunction):
    """Collapse f to (P, q, c) when it is globally quadratic, else None."""
    if f.kind is FunctionKind.QUADRATIC:
        return f.P, f.q, f.c
    if f.kind is FunctionKind.STACKED:
        parts = [as_quadratic(ch) for ch in f.children]
        if any(p is None for p in parts):
            return None
        P, q, c = zip(*parts)
        return block_diag(P), np.concatenate(q), float(sum(c))
    if f.kind is FunctionKind.SHIFTED:
        part = as_quadratic(f.inner)
        if part is None:
            return None
        P, q, c = part
        a, b = f.shift, f.linear
        q_new = q + b - P @ a
        c_new = float(0.5 * a @ P @ a - q @ a + c + f.constant)
        return P, q_new, c_new
    return None


def block_diag(mats) -> np.ndarray:
    """Blocks placed along the diagonal of one dense matrix."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    row = col = 0
    for m in mats:
        out[row : row + m.shape[0], col : col + m.shape[1]] = m
        row, col = row + m.shape[0], col + m.shape[1]
    return out


def _psd_pinv(P: np.ndarray, tol: float = 1e-10):
    """Eigen-decomposition pseudo-inverse of a symmetric PSD matrix.

    P may be a stack of matrices (..., d, d). Returns (pinv, rank),
    each per matrix. Eigenvalues up to tol * max(1, largest) count as
    zero.
    """
    vals, vecs = np.linalg.eigh(0.5 * (P + np.swapaxes(P, -1, -2)))
    cutoff = tol * np.fmax(1.0, vals.max(axis=-1, initial=0.0))
    kept = vals > cutoff[..., None]
    inv = np.where(kept, 1.0 / np.where(kept, vals, 1.0), 0.0)
    return (vecs * inv[..., None, :]) @ np.swapaxes(vecs, -1, -2), kept.sum(axis=-1)


def conjugate_function(f: IntegralFunction) -> IntegralFunction:
    """Build f* as an IntegralFunction (closed under the supported kinds).

    The children of a stacked f are conjugated by groups of one kind
    and dimension, each group in one numpy pass (see _conjugates).
    """
    return _conjugates(_groups([f])[0])[0]


def _block_conjugates(groups, count: int) -> list:
    """The conjugate of each of count functions, given by their groups, in order."""
    out = [None] * count
    for g in groups:
        for i, conj in zip(g.idx.tolist(), _conjugates(g)):
            out[i] = conj
    return out


def _conjugates(g: _Group) -> list:
    """Conjugates of the functions of group g.

    Quadratic kinds are decided together: P near zero (np.allclose(P,
    0)) is affine, whose conjugate is the indicator of {q}; otherwise P
    must have full rank, and f* is the quadratic of its pseudo-inverse.
    One batched eigh covers the group. The scalar-separable kind has no
    closed-form conjugate here and raises UnsupportedKind.
    """
    kind, dim, fs = g.kind, g.dim, g.items
    if kind is FunctionKind.INDICATOR_ZERO:
        return [quadratic(np.zeros((dim, dim)))] * len(fs)
    if kind is FunctionKind.STACKED:
        return [_stacked_conjugate(f) for f in fs]
    if kind is FunctionKind.SHIFTED:
        inner = _block_conjugates(g.sub("inner"), len(fs))
        cross = np.einsum("ki,ki->k", g.stack("shift"), g.stack("linear"))
        return [shifted(conj, shift=f.linear, linear=f.shift, constant=-float(x) - f.constant)
                for f, conj, x in zip(fs, inner, cross)]
    if kind is not FunctionKind.QUADRATIC:
        raise UnsupportedKind(f"no closed-form conjugate for kind {kind}")
    q, c = g.stack("q"), g.stack("c")
    affine, pinv, lin, const = _quadratic_conjugates(g.stack("P"), q, c)
    # affine: conjugate is the indicator of {q}
    return [shifted(indicator_zero(dim), shift=q[k], constant=-c[k]) if affine[k]
            else _quadratic(pinv[k], lin[k], const[k]) for k in range(len(fs))]


def _quadratic_conjugates(P: np.ndarray, q: np.ndarray, c: np.ndarray):
    """(affine, pinv, lin, const) of the quadratics of stacks P, q, c: the
    conjugate of quadratic k is quadratic(pinv[k], lin[k], const[k])
    unless affine[k]. One batched eigh covers them."""
    affine = np.all(np.abs(P) <= 1e-8, axis=(1, 2))
    pinv, rank = _psd_pinv(P)
    if np.any(rank[~affine] < P.shape[1]):
        raise UnsupportedKind("conjugate object of a degenerate quadratic")
    lin = -np.einsum("kij,kj->ki", pinv, q)
    const = 0.5 * np.einsum("ki,kij,kj->k", q, pinv, q) - c
    return affine, pinv, lin, const


def _stacked_conjugate(f: IntegralFunction) -> IntegralFunction:
    """The conjugate of a stacked f, child by child: kept as stacks when
    f's children are quadratics of full rank, one group."""
    if len(f.groups) == 1 and f.groups[0].kind is FunctionKind.QUADRATIC:
        g = f.groups[0]
        affine, pinv, lin, const = _quadratic_conjugates(g.stack("P"), g.stack("q"), g.stack("c"))
        if not affine.any():
            return stacked_quadratics(pinv, lin, const)
    return stacked(_block_conjugates(f.groups, len(f.children)))


# ---------------------------------------------------------------------------
# vector relations
# ---------------------------------------------------------------------------


class RelationKind(Enum):
    AFFINE = "affine"
    GRADIENT_OF_CONVEX = "gradient_of_convex"
    INTEGRATOR = "integrator"
    STACKED = "stacked"
    SHIFTED = "shifted"
    INVERTED = "inverted"


@dataclass(frozen=True)
class VectorRelation:
    """A (possibly set-valued) steady-state input-output relation on R^d.

    Kinds
    -----
    Affine
        y = S u + v; the inverse solves the linear system.
    GradientOfConvex
        y in subdifferential(chi)(u) for an IntegralFunction chi.
    Integrator
        effective domain {0}; the value set is all of R^d, optionally
        restricted to a coordinatewise interval (closure of the range
        of a controller output map). forward(0) reports Everything;
        interval bounds are honored by inverse() and pair_residual().
    Stacked
        children act on consecutive d-blocks.
    Shifted
        inner evaluated at (u - input_offset), output_offset added.
    Inverted
        the graph of inner with input and output swapped.
    """

    dim: int
    kind: RelationKind
    S: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    chi: Optional[IntegralFunction] = None
    out_lo: float = -math.inf
    out_hi: float = math.inf
    children: tuple = ()
    inner: Optional["VectorRelation"] = None
    input_offset: Optional[np.ndarray] = None
    output_offset: Optional[np.ndarray] = None

    @cached_property
    def groups(self) -> tuple:
        """A stacked relation's lowered children (see _lower) by _groups,
        made on first use."""
        return _groups([_lower(ch) for ch in self.children])


def affine_relation(S, v=None) -> VectorRelation:
    S = np.atleast_2d(np.asarray(S, dtype=float))
    dim = S.shape[0]
    if S.shape != (dim, dim):
        raise DimensionMismatch("affine relation S must be square")
    v = np.zeros(dim) if v is None else np.asarray(v, dtype=float).ravel()
    return VectorRelation(dim=dim, kind=RelationKind.AFFINE, S=S, v=v)


def stacked_affine(S: np.ndarray, v: np.ndarray) -> VectorRelation:
    """stacked_relation([affine_relation(S[k], v[k]) for each row k]) of
    float stacks S (count, dim, dim) and v (count, dim), its children
    views of the rows made only when read."""
    return _stacked_rows(VectorRelation, RelationKind.STACKED, RelationKind.AFFINE, S.shape[1],
                         _affine, S=S, v=v)


def _affine(S: np.ndarray, v: np.ndarray) -> VectorRelation:
    return VectorRelation(dim=S.shape[0], kind=RelationKind.AFFINE, S=S, v=v)


def gradient_relation(chi: IntegralFunction) -> VectorRelation:
    return VectorRelation(dim=chi.dim, kind=RelationKind.GRADIENT_OF_CONVEX, chi=chi)


def integrator_relation(dim: int, out_lo: float = -math.inf, out_hi: float = math.inf) -> VectorRelation:
    return VectorRelation(
        dim=dim, kind=RelationKind.INTEGRATOR, out_lo=float(out_lo), out_hi=float(out_hi)
    )


def inverted_relation(inner: VectorRelation) -> VectorRelation:
    return VectorRelation(dim=inner.dim, kind=RelationKind.INVERTED, inner=inner)


def stacked_relation(children) -> VectorRelation:
    children = tuple(children)
    if not children:
        raise EmptyList("stack of no relations")
    dim = sum(ch.dim for ch in children)
    return VectorRelation(dim=dim, kind=RelationKind.STACKED, children=children)


def shifted_relation(inner: VectorRelation, input_offset=None, output_offset=None) -> VectorRelation:
    dim = inner.dim
    a = np.zeros(dim) if input_offset is None else np.asarray(input_offset, dtype=float).ravel()
    b = np.zeros(dim) if output_offset is None else np.asarray(output_offset, dtype=float).ravel()
    if a.size != dim or b.size != dim:
        raise DimensionMismatch("relation offsets must match inner dimension")
    return VectorRelation(
        dim=dim, kind=RelationKind.SHIFTED, inner=inner, input_offset=a, output_offset=b
    )


def forward(rel: VectorRelation, u) -> SetDescriptor:
    """The set of steady outputs for steady input u (Empty if none): the
    one-block case of coordinate_sets, so a set not spanned by coordinate
    axes raises UnsupportedKind."""
    return _coordinate_set(rel, u, invert=False)


def inverse(rel: VectorRelation, y) -> SetDescriptor:
    """The set of steady inputs producing steady output y, as forward."""
    return _coordinate_set(rel, y, invert=True)


def _coordinate_set(rel: VectorRelation, x, invert: bool) -> SetDescriptor:
    base, free, faults = _block_sets(_groups([_lower(rel)]), _check_dim(rel, x), invert)
    if faults:
        if isinstance(faults[0], EmptySelection):
            return SetDescriptor.empty(rel.dim)
        raise faults[0]
    return SetDescriptor._spanned(base, np.eye(rel.dim)[:, free])


def _lower(rel: VectorRelation) -> VectorRelation:
    """rel, with a gradient relation written as the relation it is.

    The gradient of the indicator of {0} is the integrator, shifted and
    stacked functions give shifted and stacked relations, and the
    gradient of a quadratic is affine. A scalar-separable chi stays a
    gradient relation (see _kind_sets).
    """
    if rel.kind is not RelationKind.GRADIENT_OF_CONVEX:
        return rel
    chi = rel.chi
    if chi.kind is FunctionKind.INDICATOR_ZERO:
        return integrator_relation(chi.dim)
    if chi.kind is FunctionKind.SHIFTED:
        return shifted_relation(_lower(gradient_relation(chi.inner)), chi.shift, chi.linear)
    if chi.kind is FunctionKind.STACKED:
        return stacked_relation([_lower(gradient_relation(ch)) for ch in chi.children])
    quad = as_quadratic(chi)
    return rel if quad is None else affine_relation(quad[0], quad[1])


def pair_residual(rel: VectorRelation, u, y) -> float:
    """Distance of the pair (u, y) to the relation graph.

    Integrator kinds honor their output interval here even though
    forward() reports Everything. A stacked relation, and the gradient
    of a stacked function, report the largest of the children's
    residuals, computed by groups of one kind and dimension.
    """
    return float(_block_residuals(_groups([_lower(rel)]), 1, _check_dim(rel, u),
                                  _check_dim(rel, y))[0])


def _block_residuals(groups, count: int, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """pair_residual of each of count relations, given by their groups,
    at its consecutive blocks of u and y."""
    out = np.empty(count)
    for g in groups:
        out[g.idx] = _residuals(g, u[g.index], y[g.index])
    return out


def _residuals(g: _Group, U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """pair_residual(rel_k, U[k], Y[k]) for the lowered relations rel_k of group g."""
    kind, rels = g.kind, g.items
    if kind is RelationKind.AFFINE or kind is RelationKind.GRADIENT_OF_CONVEX:
        points, _, faults = _kind_sets(g, U, False)  # each forward set is a point
        if faults:
            raise faults[min(faults)]
        return np.linalg.norm(Y - points, axis=1)
    if kind is RelationKind.INTEGRATOR:
        lo, hi = g.stack("out_lo")[:, None], g.stack("out_hi")[:, None]
        excess = np.maximum(lo - Y, 0.0) + np.maximum(Y - hi, 0.0)
        return np.maximum(np.linalg.norm(U, axis=1), np.linalg.norm(excess, axis=1))
    if kind is RelationKind.SHIFTED:
        U, Y = U - g.stack("input_offset"), Y - g.stack("output_offset")
        return _block_residuals(g.sub("inner"), len(rels), U.ravel(), Y.ravel())
    if kind is RelationKind.INVERTED:
        return _block_residuals(g.sub("inner"), len(rels), Y.ravel(), U.ravel())
    if kind is RelationKind.STACKED:
        return np.array([max(_block_residuals(rel.groups, len(rel.children), u, y).tolist())
                         for rel, u, y in zip(rels, U, Y)])
    raise UnsupportedKind(str(kind))


def coordinate_sets(rels, evaluate, x, d: int):
    """Per-block sets evaluate(rel_i, x_i) as (base, free) arrays.

    rels is a sequence of relations, or a stacked relation of them, whose
    groups are then the ones it keeps. evaluate is forward or inverse.
    Every set the network relations produce is base + span(e_J) for a
    set J of its own coordinates (a point, a pinned coordinate left
    free, or everything); free marks J. Relations of one kind are
    evaluated together (see _block_sets). The first block that fails
    decides the error: EmptySelection when its set is empty,
    UnsupportedKind when it is not aligned with the coordinates.
    """
    if not isinstance(rels, VectorRelation):
        rels = stacked_relation(rels)
    x = np.asarray(x, dtype=float).ravel()
    count = len(rels.children)
    if x.size != count * d or any(g.dim != d for g in rels.groups):
        raise DimensionMismatch(f"expected {count} blocks of dimension {d}, got {x.size}")
    if evaluate is not forward and evaluate is not inverse:
        raise UnsupportedKind("coordinate sets come from forward or inverse")
    base, free, faults = _block_sets(rels.groups, x, evaluate is inverse)
    if faults:
        raise faults[min(faults)]
    return base, free


def _empty_fault():
    return EmptySelection("a relation has no element at the requested point")


def _misaligned_fault():
    return UnsupportedKind("a relation's set is not aligned with its coordinates")


def _block_sets(groups, x: np.ndarray, invert: bool):
    """Coordinate sets of relations, given by their groups, at their
    consecutive blocks of x.

    Returns (base, free, faults), base and free shaped as x: relation
    k's set is base + span(e_J) on its block, for J the block's part of
    free, unless faults maps k to the error it raises. Each group of
    lowered relations (see _lower) is evaluated in one numpy pass where
    its kind has one.
    """
    shape, x = x.shape, x.ravel()
    base = np.zeros(x.size)
    free = np.zeros(x.size, dtype=bool)
    faults = {}
    for g in groups:
        base[g.index], free[g.index], bad = _kind_sets(g, x[g.index], invert)
        faults.update((int(g.idx[k]), fault) for k, fault in bad.items())
    return base.reshape(shape), free.reshape(shape), faults


def _kind_sets(g: _Group, X: np.ndarray, invert: bool):
    """_block_sets for the lowered relations of group g, at the rows of X."""
    kind, rels = g.kind, g.items
    none_free = np.zeros(X.shape, dtype=bool)
    if kind is RelationKind.AFFINE:
        S, v = g.stack("S"), g.stack("v")
        if invert:
            return _affine_solutions(S, X - v)
        return np.einsum("kij,kj->ki", S, X) + v, none_free, {}
    if kind is RelationKind.INTEGRATOR:
        if invert:
            lo = g.stack("out_lo")[:, None] - 1e-9
            hi = g.stack("out_hi")[:, None] + 1e-9
            empty = np.any(X < lo, axis=1) | np.any(X > hi, axis=1)
            return np.zeros(X.shape), none_free, _faults(empty, _empty_fault)
        return np.zeros(X.shape), ~none_free, _faults(np.any(X != 0.0, axis=1), _empty_fault)
    if kind is RelationKind.SHIFTED:
        into = g.stack("output_offset" if invert else "input_offset")
        out = g.stack("input_offset" if invert else "output_offset")
        base, free, faults = _block_sets(g.sub("inner"), X - into, invert)
        # translating everything leaves it (and its zero basepoint) as it is
        return base + np.where(free.all(axis=1, keepdims=True), 0.0, out), free, faults
    if kind is RelationKind.INVERTED:
        return _block_sets(g.sub("inner"), X, not invert)
    if kind is RelationKind.STACKED:
        if len(rels) == 1:
            groups, owner = rels[0].groups, np.zeros(len(rels[0].children), dtype=np.intp)
        else:
            groups = _groups([_lower(ch) for rel in rels for ch in rel.children])
            owner = np.repeat(np.arange(len(rels)), [len(rel.children) for rel in rels])
        base, free, bad = _block_sets(groups, X, invert)
        faults = {}
        for j in sorted(bad):  # a stacked relation fails as its first failing child
            faults.setdefault(int(owner[j]), bad[j])
        return base, free, faults
    # the gradient relations _lower leaves are those of paper_psi in every
    # coordinate; the inverse is empty where a value is outside PSI_RANGE
    if not invert:
        return paper_psi(X), none_free, {}
    base, inside = _psi_inverse(X)
    return base, none_free, _faults(~inside.all(axis=1), _empty_fault)


def _faults(bad: np.ndarray, make) -> dict:
    return {int(k): make() for k in np.flatnonzero(bad)}


def _affine_solutions(S: np.ndarray, R: np.ndarray):
    """Solution sets of S[k] u = R[k] as coordinate sets (see _block_sets).

    Per block one SVD, the minimum-norm solution as base, empty when it
    misses R[k] by more than 1e-8 * (1 + ||R[k]||). The null space must
    be spanned by coordinate axes.
    """
    u, s, vt = np.linalg.svd(S)
    kept = s > 1e-12 * s.max(axis=1, initial=0.0)[:, None]
    coef = np.where(kept, np.einsum("kij,ki->kj", u, R) / np.where(kept, s, 1.0), 0.0)
    x0 = np.einsum("kij,ki->kj", vt, coef)
    miss = np.linalg.norm(np.einsum("kij,kj->ki", S, x0) - R, axis=1)
    faults = _faults(miss > 1e-8 * (1.0 + np.linalg.norm(R, axis=1)), _empty_fault)
    null = vt * ~kept[:, :, None]
    proj = np.einsum("kri,krj->kij", null, null)
    free = np.diagonal(proj, axis1=1, axis2=2) > 0.5
    off = np.abs(proj - free[:, :, None] * np.eye(S.shape[1])).max(axis=(1, 2), initial=0.0)
    for k in np.flatnonzero(off > 1e-9):
        faults.setdefault(int(k), _misaligned_fault())
    return np.where(free.all(axis=1, keepdims=True), 0.0, x0), free, faults


# ---------------------------------------------------------------------------
# cyclic monotonicity
# ---------------------------------------------------------------------------


def cyclic_sum(pairs) -> float:
    """sum_i y_i'(u_i - u_{i-1}) over a cycle, with u_0 = u_N."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyList("cyclic sum of no pairs")
    us = [np.asarray(u, dtype=float).ravel() for u, _ in pairs]
    ys = [np.asarray(y, dtype=float).ravel() for _, y in pairs]
    dim = us[0].size
    if any(u.size != dim for u in us) or any(y.size != dim for y in ys):
        raise DimensionMismatch("cycle entries must share dimension")
    total = 0.0
    for i in range(len(pairs)):
        total += ys[i] @ (us[i] - us[i - 1])
    return float(total)


@dataclass(frozen=True)
class Sampler:
    """Uniform box sampler for cyclic-monotonicity falsification.

    The box [low, high]^dim applies to the input side of each affine or
    gradient leaf of a relation. An inverted relation is sampled through
    its inner relation, with the two sides swapped; a shifted one moves
    its inner relation's points on both sides.
    """

    low: float = -3.0
    high: float = 3.0
    seed: int = 0


@dataclass(frozen=True)
class CmResult:
    passed: bool
    witness: Optional[tuple] = None
    witness_sum: Optional[float] = None
    cycles_checked: int = 0

    def __bool__(self) -> bool:
        return self.passed


# Cycles drawn and summed together by check_cm.
_CM_CHUNK = 1024


def _row_grad(f: IntegralFunction, x: np.ndarray) -> np.ndarray:
    """Gradient of f at each row of x; only kinds with a closed form."""
    if f.kind is FunctionKind.QUADRATIC:
        return x @ f.P.T + f.q
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return paper_psi(x)
    if f.kind is FunctionKind.SHIFTED:
        return _row_grad(f.inner, x - f.shift) + f.linear
    if f.kind is FunctionKind.STACKED:
        return np.concatenate([_row_grad(ch, xb.T) for ch, xb in _blocks(f, x.T)], axis=1)
    raise RelationNotEvaluable(f"no closed-form gradient for kind {f.kind}")


def _graph_points(rel: VectorRelation, rng, n: int, sampler: Sampler):
    """n points (u, y) of the graph of rel, as two (n, dim) arrays."""
    if rel.kind is RelationKind.AFFINE:
        u = rng.uniform(sampler.low, sampler.high, size=(n, rel.dim))
        return u, u @ rel.S.T + rel.v
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        u = rng.uniform(sampler.low, sampler.high, size=(n, rel.dim))
        return u, _row_grad(rel.chi, u)
    if rel.kind is RelationKind.INTEGRATOR:
        return np.zeros((n, rel.dim)), np.zeros((n, rel.dim))
    if rel.kind is RelationKind.SHIFTED:
        u, y = _graph_points(rel.inner, rng, n, sampler)
        return u + rel.input_offset, y + rel.output_offset
    if rel.kind is RelationKind.INVERTED:
        u, y = _graph_points(rel.inner, rng, n, sampler)
        return y, u
    if rel.kind is RelationKind.STACKED:
        parts = [_graph_points(ch, rng, n, sampler) for ch in rel.children]
        return (np.concatenate([u for u, _ in parts], axis=1),
                np.concatenate([y for _, y in parts], axis=1))
    raise UnsupportedKind(str(rel.kind))


def check_cm(
    rel: VectorRelation,
    sampler: Sampler = Sampler(),
    cycles: int = 10_000,
    max_cycle_len: int = 6,
    tol: float = 1e-9,
) -> CmResult:
    """Randomized cyclic-monotonicity falsifier.

    Pass means no counterexample was found at the stated budget, not a
    proof. Cycles are built from points of the relation's graph, not
    from its inputs: the sampler's box applies to the input side of
    each affine or gradient leaf, an inverted relation is sampled
    through its inner relation (a relation is cyclically monotone
    exactly when its inverse is), and a shifted one moves its inner
    relation's points on both sides. Gradients need a closed form, so
    an indicator part raises RelationNotEvaluable. Cycles are drawn and
    summed in chunks; the first one whose sum, recomputed by
    cyclic_sum, is below -tol is the witness, and cycles_checked is its
    position in draw order. A budget of no cycles, or cycles shorter
    than two pairs, raises EmptyList.
    """
    if cycles < 1:
        raise EmptyList(f"check_cm needs at least one cycle, got {cycles}")
    if max_cycle_len < 2:
        raise EmptyList(f"cycles need at least two pairs, got max_cycle_len={max_cycle_len}")
    rng = np.random.default_rng(sampler.seed)
    checked = 0
    while checked < cycles:
        count = min(_CM_CHUNK, cycles - checked)
        lengths = rng.integers(2, max_cycle_len + 1, size=count)
        sums = np.empty(count)
        batches = {}
        for length in range(2, max_cycle_len + 1):
            where = np.flatnonzero(lengths == length)
            u, y = _graph_points(rel, rng, length * where.size, sampler)
            u = u.reshape(where.size, length, rel.dim)
            y = y.reshape(where.size, length, rel.dim)
            sums[where] = np.einsum("cld,cld->c", y, u - np.roll(u, 1, axis=1))
            batches[length] = (where, u, y)
        for pos in np.flatnonzero(sums < -tol):
            where, u, y = batches[lengths[pos]]
            k = int(np.searchsorted(where, pos))
            pairs = tuple((ui.copy(), yi.copy()) for ui, yi in zip(u[k], y[k]))
            s = cyclic_sum(pairs)
            if s < -tol:
                return CmResult(False, witness=pairs, witness_sum=s,
                                cycles_checked=checked + int(pos) + 1)
        checked += count
    return CmResult(True, cycles_checked=checked)
