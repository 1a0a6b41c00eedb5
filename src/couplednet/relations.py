"""Steady-state input-output relations and convex integral functions.

Two layers live here, as trees that a config or a library caller builds:

* IntegralFunction, extended-real convex functions with values and
  gradients, the non-quadratic one built on the saturating nonlinearity
  paper_psi of the formation example;
* VectorRelation, possibly set-valued input-output relations on R^d,
  with a randomized cyclic-monotonicity test (check_cm).

The network problem does not walk these trees: netopt holds its node
and edge terms as flat arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyList,
    OutsideDomain,
    RelationNotEvaluable,
    UnsupportedKind,
)

# ---------------------------------------------------------------------------
# the nonlinearity used by the formation example
# ---------------------------------------------------------------------------


_LOG2 = math.log(2.0)
# expm1 overflows beyond log(DBL_MAX) = 709.78; above 37, ell = x - log 2
# in double precision
_EXPM1_TOP = 709.0
# paper_psi_into's operands and ufuncs, bound once: on a few values a ufunc
# call costs about 0.35 us, a Python float operand about 0.2 us more than a
# 0-d array, and each lookup on np about 30 ns
_HALF, _TWO = np.array(0.5), np.array(2.0)
_expm1, _log1p, _multiply, _reciprocal, _square, _add, _sqrt, _arctan2, _max = (
    np.expm1, np.log1p, np.multiply, np.reciprocal, np.square, np.add, np.sqrt, np.arctan2,
    np.maximum.reduce)


def paper_psi(x):
    """Monotone saturating scalar map arcsin(L(x) sgn(x) / (L(x) + 1)).

    Here L(x) = ell(x) ** 2 with ell(x) = log((exp(x) + 1) / 2), both
    evaluated as paper_psi_into does. The map is zero at zero, strictly
    increasing, and its range is the open interval (PSI_RANGE[0],
    PSI_RANGE[1]); saturated values take the limits correctly rounded,
    pi / 2 and, below x of about -38, one ulp under PSI_RANGE[0], asin's
    rounding of that limit. Arrays are handled coordinatewise; a scalar goes
    through the same ufuncs as a one-entry array, so it agrees with the
    array result bit for bit. np.errstate is entered here, so that
    paper_psi_into's flags near 0, which stand for exact limits, are not
    reported.
    """
    x = np.asarray(x, dtype=float)
    flat = np.ascontiguousarray(x).reshape(-1)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        psi = paper_psi_into(flat, np.empty(flat.shape[0]))
    return float(psi[0]) if x.ndim == 0 else psi.reshape(x.shape)


def _ell_into(x, out):
    """ell = log1p(expm1(x) / 2) of the float array x, written into out and
    returned; x is left as it is.

    The form has no cancellation near 0, and numpy runs both ufuncs as
    SIMD loops. expm1 reads x capped at _EXPM1_TOP, below its overflow;
    above the cap, ell = x - log 2, exact there.
    """
    np.expm1(np.minimum(x, _EXPM1_TOP), out)
    np.multiply(out, _HALF, out)
    np.log1p(out, out)
    return np.subtract(x, _LOG2, out=out, where=x > _EXPM1_TOP)


def paper_psi_into(x, out):
    """paper_psi of the 1-d float array x, written into out and returned; x
    is left as it is, so it may be a view of the caller's own buffer.

    ell is _ell_into's; where no entry exceeds _EXPM1_TOP, the same three
    ufuncs run on x itself, without the cap. That guard finds the largest
    entry by a Python max of the list on a few values (0.4 us at 8,
    against 1.0 us for a reduction) and by a reduction on more (1.2 us
    at 640, against 18 us). The map is then
    arctan2(ell, sqrt(2 + 1 / ell ** 2)), the angle whose tangent is
    sgn(x) L / sqrt(2 L + 1), so arcsin's angle. Unlike arcsin's
    argument near 1, it loses no accuracy as paper_psi saturates. At
    ell = 0, 1 / ell is infinite (numpy's divide flag) and arctan2 gives
    the exact 0; below |x| of about 1e-154, 1 / ell ** 2 overflows (its
    over flag) and the result, below 1e-308, is 0. No errstate is
    entered here: callers enter it once around their calls, as
    paper_psi and the integration loops in _fastpath do.
    """
    if (max(x.tolist() or (0.0,)) if x.shape[0] <= 24 else _max(x)) > _EXPM1_TOP:
        ell = _ell_into(x, out)
    else:
        _expm1(x, out)
        _multiply(out, _HALF, out)
        ell = _log1p(out, out)
    den = _reciprocal(ell)
    _square(den, den)
    _add(den, _TWO, den)
    _sqrt(den, den)
    return _arctan2(ell, den, out)


def paper_psi_prime(x):
    """paper_psi's derivative 2|ell| s / ((L + 1) sqrt(2L + 1)), zero at zero: ell
    and L are paper_psi's, and s is the logistic function, evaluated as
    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below. As
    sqrt(2) s / (a + 1 / a) / hypot(a, sqrt(1/2)) with a = |ell|, no term
    overflows at any x; where 1 / a is infinite (a divide or over flag),
    the result is the exact limit 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore", divide="ignore", over="ignore"):
        a = np.abs(_ell_into(x, np.empty(x.shape)))
        tail = np.exp(-np.abs(x))
        s = np.where(x < 0.0, tail, 1.0) / (1.0 + tail)
        return math.sqrt(2.0) * s / (a + 1.0 / a) / np.hypot(a, math.sqrt(0.5))


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
    """Extended-real convex function, as a node or edge term of the network.

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
    x = _check_dim(f, x)
    if f.kind is FunctionKind.QUADRATIC:
        return float(0.5 * x @ f.P @ x + f.q @ x + f.c)
    if f.kind is FunctionKind.INDICATOR_ZERO:
        return math.inf if np.any(x != 0.0) else 0.0
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return float(_psi_integral(x).sum())
    if f.kind is FunctionKind.STACKED:
        return float(sum(value(ch, xb) for ch, xb in _blocks(f, x)))
    return value(f.inner, x - f.shift) + float(f.linear @ x) + f.constant


def grad_of(f: IntegralFunction, x) -> np.ndarray:
    """Gradient for differentiable functions; min-norm subgradient otherwise.

    The closed-form gradient serves every kind but an indicator part:
    its min-norm subgradient is 0 at its point and OutsideDomain off it.
    """
    free = np.zeros((f.dim, 1), dtype=bool)
    return np.where(free, 0.0, _column_grad(f, _check_dim(f, x)[:, None], free))[:, 0]


def as_quadratic(f: IntegralFunction):
    """Collapse f to (P, q, c) when it is a quadratic, possibly shifted, else None."""
    if f.kind is FunctionKind.QUADRATIC:
        return f.P, f.q, f.c
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
        y = S u + v.
    GradientOfConvex
        y in subdifferential(chi)(u) for an IntegralFunction chi.
    Integrator
        effective domain {0}; the value set is all of R^d, optionally
        restricted to a coordinatewise interval (closure of the range
        of a controller output map).
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


def affine_relation(S, v=None) -> VectorRelation:
    S = np.atleast_2d(np.asarray(S, dtype=float))
    dim = S.shape[0]
    if S.shape != (dim, dim):
        raise DimensionMismatch("affine relation S must be square")
    v = np.zeros(dim) if v is None else np.asarray(v, dtype=float).ravel()
    return VectorRelation(dim=dim, kind=RelationKind.AFFINE, S=S, v=v)


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


# Cycles drawn and summed together by check_cm. Larger chunks measured
# slower: 4,096 cycles make arrays of about 260 KB, which leave the cache.
_CM_CHUNK = 1024


def _column_grad(f: IntegralFunction, x: np.ndarray, free=None) -> np.ndarray:
    """Gradient of f at each column of the (dim, n) array x; only kinds
    with a closed form.

    Given free, a boolean array shaped as x, an indicator part sets free
    on its coordinates, where its subdifferential is everything, and
    gives 0 there (OutsideDomain off its point) instead of raising.
    """
    if f.kind is FunctionKind.QUADRATIC:
        return f.P @ x + f.q[:, None]
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return paper_psi(x)
    if f.kind is FunctionKind.SHIFTED:
        return _column_grad(f.inner, x - f.shift[:, None], free) + f.linear[:, None]
    if f.kind is FunctionKind.STACKED:
        frees = [None] * len(f.children) if free is None else [fb for _, fb in _blocks(f, free)]
        return np.concatenate([_column_grad(ch, xb, fb)
                               for (ch, xb), fb in zip(_blocks(f, x), frees)])
    if free is None:
        raise RelationNotEvaluable(f"no closed-form gradient for kind {f.kind}")
    if np.any(x != 0.0):
        raise OutsideDomain("an indicator part has no subgradient off its point")
    free[...] = True
    return np.zeros_like(x)


def _graph_points(rel: VectorRelation, rng, n: int, sampler: Sampler):
    """n points (u, y) of the graph of rel, as two (dim, n) arrays: one
    column per point, so every operation runs along the n points."""
    if rel.kind is RelationKind.AFFINE:
        u = rng.uniform(sampler.low, sampler.high, size=(rel.dim, n))
        return u, rel.S @ u + rel.v[:, None]
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        u = rng.uniform(sampler.low, sampler.high, size=(rel.dim, n))
        return u, _column_grad(rel.chi, u)
    if rel.kind is RelationKind.INTEGRATOR:
        return np.zeros((rel.dim, n)), np.zeros((rel.dim, n))
    if rel.kind is RelationKind.SHIFTED:
        u, y = _graph_points(rel.inner, rng, n, sampler)
        return u + rel.input_offset[:, None], y + rel.output_offset[:, None]
    if rel.kind is RelationKind.INVERTED:
        u, y = _graph_points(rel.inner, rng, n, sampler)
        return y, u
    if rel.kind is RelationKind.STACKED:
        parts = [_graph_points(ch, rng, n, sampler) for ch in rel.children]
        return np.concatenate([u for u, _ in parts]), np.concatenate([y for _, y in parts])
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
    summed in chunks of _CM_CHUNK: one draw of the graph's points per
    chunk, one column per point, with each cycle a run of consecutive
    columns. The first cycle whose sum, recomputed by cyclic_sum, is
    below -tol is the witness, and cycles_checked is its position in
    draw order. A budget of no cycles, or cycles shorter
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
        ends = np.cumsum(lengths)  # cycle k is the points starts[k], ..., ends[k] - 1
        starts = ends - lengths
        u, y = _graph_points(rel, rng, int(ends[-1]), sampler)
        prev = np.arange(-1, ends[-1] - 1)  # each point's predecessor in its cycle
        prev[starts] = ends - 1
        step = u.take(prev, axis=1)
        np.subtract(u, step, out=step)  # u_i - u_{i-1}
        sums = np.add.reduceat(np.einsum("dn,dn->n", y, step), starts)
        for pos in np.flatnonzero(sums < -tol):
            pairs = tuple((u[:, j].copy(), y[:, j].copy()) for j in range(starts[pos], ends[pos]))
            s = cyclic_sum(pairs)
            if s < -tol:
                return CmResult(False, witness=pairs, witness_sum=s,
                                cycles_checked=checked + int(pos) + 1)
        checked += count
    return CmResult(True, cycles_checked=checked)
