"""Steady-state input-output relations and convex integral functions.

Three layers live here:

* SetDescriptor, a closed family of sets (empty / point / affine
  subspace / everything) used for all set-valued evaluations;
* IntegralFunction, extended-real convex functions with values,
  subgradients, conjugates, and proximal maps;
* VectorRelation, possibly set-valued input-output relations on R^d
  with forward and inverse evaluation, plus cyclic-monotonicity
  testing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyList,
    OutsideDomain,
    RelationNotEvaluable,
    SolverFailure,
    Unbounded,
    UnsupportedKind,
)

# Tolerance treating a floating vector as exactly zero (indicator domains,
# integrator relation inputs).
ZERO_ATOL = 1e-11

# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------


class SetKind(Enum):
    EMPTY = "empty"
    POINT = "point"
    AFFINE = "affine"
    EVERYTHING = "everything"


def _orthonormal_cols(mat: np.ndarray, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column space of mat (possibly 0 columns)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    cutoff = rtol * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    return u[:, :rank]


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
    def affine(basepoint, basis) -> "SetDescriptor":
        basepoint = np.asarray(basepoint, dtype=float).ravel()
        dim = basepoint.size
        q = _orthonormal_cols(np.asarray(basis, dtype=float).reshape(dim, -1))
        if q.shape[1] == 0:
            return SetDescriptor.point(basepoint)
        if q.shape[1] == dim:
            return SetDescriptor.everything(dim)
        return SetDescriptor(SetKind.AFFINE, dim, basepoint=basepoint, basis=q)

    # -- predicates ----------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.kind is SetKind.EMPTY

    @property
    def is_point(self) -> bool:
        return self.kind is SetKind.POINT

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.distance(x) <= tol

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

    # -- algebra --------------------------------------------------------
    def translate(self, v) -> "SetDescriptor":
        v = np.asarray(v, dtype=float).ravel()
        if self.kind is SetKind.EMPTY or self.kind is SetKind.EVERYTHING:
            return self
        if self.kind is SetKind.POINT:
            return SetDescriptor.point(self.basepoint + v)
        return SetDescriptor.affine(self.basepoint + v, self.basis)

    def linear_image(self, mat) -> "SetDescriptor":
        """Image {mat @ x : x in set}."""
        mat = np.asarray(mat, dtype=float)
        if self.kind is SetKind.EMPTY:
            return SetDescriptor.empty(mat.shape[0])
        b = mat @ self.basepoint
        if self.kind is SetKind.POINT:
            return SetDescriptor.point(b)
        return SetDescriptor.affine(b, mat @ self.basis)

    def minkowski(self, other: "SetDescriptor") -> "SetDescriptor":
        if self.dim != other.dim:
            raise DimensionMismatch("minkowski sum of mismatched dimensions")
        if self.is_empty or other.is_empty:
            return SetDescriptor.empty(self.dim)
        b = self.basepoint + other.basepoint
        blocks = [
            d.basis for d in (self, other) if d.basis is not None and d.basis.size
        ]
        if not blocks:
            return SetDescriptor.point(b)
        return SetDescriptor.affine(b, np.hstack(blocks))

    @staticmethod
    def product(parts: list["SetDescriptor"]) -> "SetDescriptor":
        """Cartesian product, concatenating coordinates."""
        dim = sum(p.dim for p in parts)
        if any(p.is_empty for p in parts):
            return SetDescriptor.empty(dim)
        base = np.concatenate([p.basepoint for p in parts])
        cols = []
        offset = 0
        for p in parts:
            if p.basis is not None and p.basis.size:
                block = np.zeros((dim, p.basis.shape[1]))
                block[offset : offset + p.dim, :] = p.basis
                cols.append(block)
            offset += p.dim
        if not cols:
            return SetDescriptor.point(base)
        return SetDescriptor.affine(base, np.hstack(cols))


def _solve_affine(mat: np.ndarray, rhs: np.ndarray, tol: float = 1e-8) -> SetDescriptor:
    """Solution set of mat @ x = rhs as a descriptor (Empty if inconsistent)."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.asarray(rhs, dtype=float).ravel()
    x0, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    if np.linalg.norm(mat @ x0 - rhs) > tol * (1.0 + np.linalg.norm(rhs)):
        return SetDescriptor.empty(mat.shape[1])
    u, s, vt = np.linalg.svd(mat)
    cutoff = 1e-12 * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > cutoff))
    null = vt[rank:].T
    if null.shape[1] == 0:
        return SetDescriptor.point(x0)
    return SetDescriptor.affine(x0, null)


# ---------------------------------------------------------------------------
# integral functions
# ---------------------------------------------------------------------------


class FunctionKind(Enum):
    QUADRATIC = "quadratic"
    INDICATOR_ZERO = "indicator_zero"
    SCALAR_SEPARABLE = "scalar_separable"
    SUM = "sum"
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
        f(x) = sum_j integral_0^{x_j} phi(s) ds for a monotone
        nondecreasing scalar map phi; evaluated by adaptive Simpson
        quadrature at tolerance 1e-8.
    Sum
        pointwise sum of children on the same space.
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
    phi: Optional[Callable[[float], float]] = None
    phi_range: Optional[tuple[float, float]] = None
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
    return IntegralFunction(dim=dim, kind=FunctionKind.QUADRATIC, P=P, q=q, c=float(c))


def indicator_zero(dim: int) -> IntegralFunction:
    return IntegralFunction(dim=dim, kind=FunctionKind.INDICATOR_ZERO)


def scalar_separable(phi, dim: int, phi_range=None) -> IntegralFunction:
    return IntegralFunction(
        dim=dim,
        kind=FunctionKind.SCALAR_SEPARABLE,
        phi=phi,
        phi_range=tuple(phi_range) if phi_range is not None else None,
    )


def function_sum(children) -> IntegralFunction:
    children = tuple(children)
    if not children:
        raise EmptyList("sum of no functions")
    dim = children[0].dim
    if any(ch.dim != dim for ch in children):
        raise DimensionMismatch("sum children must share dimension")
    return IntegralFunction(dim=dim, kind=FunctionKind.SUM, children=children)


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
    return IntegralFunction(
        dim=dim,
        kind=FunctionKind.SHIFTED,
        inner=inner,
        shift=shift,
        linear=linear,
        constant=float(constant),
    )


def _blocks(f: IntegralFunction, x: np.ndarray):
    offset = 0
    for ch in f.children:
        yield ch, x[offset : offset + ch.dim]
        offset += ch.dim


def _simpson_adaptive(phi, a: float, b: float, tol: float = 1e-8, depth: int = 30) -> float:
    """Adaptive Simpson quadrature of phi over [a, b]."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, level):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = phi(lmid), phi(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if level <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, level - 1) + recurse(
            mid, hi, fmid, fr, fhi, right, eps / 2.0, level - 1
        )

    if a == b:
        return 0.0
    fa, fb = phi(a), phi(b)
    fm = phi(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, depth)


def _check_dim(f: IntegralFunction, x) -> np.ndarray:
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
        return 0.0 if np.max(np.abs(x), initial=0.0) <= ZERO_ATOL else math.inf
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return float(sum(_simpson_adaptive(f.phi, 0.0, float(t)) for t in x))
    if f.kind is FunctionKind.SUM:
        return float(sum(value(ch, x) for ch in f.children))
    if f.kind is FunctionKind.STACKED:
        return float(sum(value(ch, xb) for ch, xb in _blocks(f, x)))
    if f.kind is FunctionKind.SHIFTED:
        return value(f.inner, x - f.shift) + float(f.linear @ x) + f.constant
    raise UnsupportedKind(str(f.kind))


def subgradient(f: IntegralFunction, x) -> SetDescriptor:
    """Subdifferential of f at x as a set descriptor."""
    x = _check_dim(f, x)
    if f.kind is FunctionKind.QUADRATIC:
        return SetDescriptor.point(f.P @ x + f.q)
    if f.kind is FunctionKind.INDICATOR_ZERO:
        if np.max(np.abs(x), initial=0.0) > ZERO_ATOL:
            raise OutsideDomain("indicator subdifferential queried off the origin")
        return SetDescriptor.everything(f.dim)
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        return SetDescriptor.point(np.array([f.phi(float(t)) for t in x]))
    if f.kind is FunctionKind.SUM:
        out = subgradient(f.children[0], x)
        for ch in f.children[1:]:
            out = out.minkowski(subgradient(ch, x))
        return out
    if f.kind is FunctionKind.STACKED:
        return SetDescriptor.product([subgradient(ch, xb) for ch, xb in _blocks(f, x)])
    if f.kind is FunctionKind.SHIFTED:
        return subgradient(f.inner, x - f.shift).translate(f.linear)
    raise UnsupportedKind(str(f.kind))


def grad_of(f: IntegralFunction, x) -> np.ndarray:
    """Gradient for differentiable functions; min-norm subgradient otherwise."""
    return subgradient(f, x).min_norm()


def as_quadratic(f: IntegralFunction):
    """Collapse f to (P, q, c) when it is globally quadratic, else None."""
    if f.kind is FunctionKind.QUADRATIC:
        return f.P, f.q, f.c
    if f.kind is FunctionKind.SUM:
        parts = [as_quadratic(ch) for ch in f.children]
        if any(p is None for p in parts):
            return None
        P = sum(p[0] for p in parts)
        q = sum(p[1] for p in parts)
        c = sum(p[2] for p in parts)
        return P, q, c
    if f.kind is FunctionKind.STACKED:
        parts = [as_quadratic(ch) for ch in f.children]
        if any(p is None for p in parts):
            return None
        P = block_diag([p[0] for p in parts])
        q = np.concatenate([p[1] for p in parts])
        c = float(sum(p[2] for p in parts))
        return P, q, c
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
    """Square blocks placed along the diagonal of one dense matrix."""
    dims = [m.shape[0] for m in mats]
    out = np.zeros((sum(dims), sum(dims)))
    ofs = 0
    for m, k in zip(mats, dims):
        out[ofs : ofs + k, ofs : ofs + k] = m
        ofs += k
    return out


def _psd_pinv(P: np.ndarray, tol: float = 1e-10):
    """Eigen-decomposition pseudo-inverse for symmetric PSD matrices."""
    vals, vecs = np.linalg.eigh(0.5 * (P + P.T))
    cutoff = tol * max(1.0, float(vals.max(initial=0.0)))
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    pinv = (vecs * inv) @ vecs.T
    proj = (vecs * (vals > cutoff)) @ vecs.T  # projector onto range(P)
    rank = int(np.sum(vals > cutoff))
    return pinv, proj, rank


def _bracket_root(g, target: float, lo: float = -1.0, hi: float = 1.0, tol: float = 1e-12):
    """Solve g(s) = target for nondecreasing g by expanding-bracket bisection."""
    for _ in range(200):
        if g(lo) <= target:
            break
        lo *= 2.0
    else:
        return None
    for _ in range(200):
        if g(hi) >= target:
            break
        hi *= 2.0
    else:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol * max(1.0, abs(mid)):
            break
        if g(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conjugate_value(f: IntegralFunction, y, opts: Optional[dict] = None) -> float:
    """Legendre transform f*(y) = sup_x { y'x - f(x) }.

    Closed forms are used for quadratic (PSD) and indicator kinds and
    anything reducible to them; scalar-separable kinds solve phi(s) = y_j
    per coordinate. When a dict is passed as opts, the key "path" is set
    to "closed-form" or "numeric".
    """
    y = _check_dim(f, y)

    def report(path: str):
        if isinstance(opts, dict):
            opts["path"] = path

    if f.kind is FunctionKind.INDICATOR_ZERO:
        report("closed-form")
        return 0.0
    if f.kind is FunctionKind.STACKED:
        total = 0.0
        for ch, yb in _blocks(f, y):
            total += conjugate_value(ch, yb, opts)
        return float(total)
    if f.kind is FunctionKind.SHIFTED:
        z = y - f.linear
        return float(f.shift @ z + conjugate_value(f.inner, z, opts) - f.constant)

    quad = as_quadratic(f)
    if quad is not None:
        P, q, c = quad
        pinv, proj, rank = _psd_pinv(P)
        z = y - q
        if rank < f.dim:
            if np.linalg.norm(z - proj @ z) > 1e-8 * (1.0 + np.linalg.norm(z)):
                raise Unbounded("conjugate of a flat quadratic off its range")
        report("closed-form")
        return float(0.5 * z @ pinv @ z - c)

    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        report("numeric")
        total = 0.0
        for yj in y:
            s = _bracket_root(f.phi, float(yj))
            if s is None:
                raise Unbounded(f"conjugate argument {yj} outside the range of phi")
            total += yj * s - _simpson_adaptive(f.phi, 0.0, s)
        return float(total)

    # generic bounded numerical minimization of f(x) - y'x
    report("numeric")
    from scipy import optimize

    res = optimize.minimize(
        lambda x: value(f, x) - y @ x,
        np.zeros(f.dim),
        jac=lambda x: grad_of(f, x) - y,
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    if not np.isfinite(res.fun):
        raise Unbounded("inner problem of the conjugate diverged")
    if np.linalg.norm(res.x) > 1e8:
        raise Unbounded("conjugate minimizer escaped to infinity")
    if not res.success and np.linalg.norm(res.jac) > 1e-6:
        raise SolverFailure(f"conjugate inner solve failed: {res.message}")
    return float(-res.fun)


def prox(f: IntegralFunction, x, step: float) -> np.ndarray:
    """argmin_z f(z) + ||z - x||^2 / (2 step)."""
    if step <= 0:
        raise SolverFailure("prox step must be positive")
    x = _check_dim(f, x)
    if f.kind is FunctionKind.INDICATOR_ZERO:
        return np.zeros(f.dim)
    if f.kind is FunctionKind.STACKED:
        return np.concatenate([prox(ch, xb, step) for ch, xb in _blocks(f, x)])
    if f.kind is FunctionKind.SHIFTED:
        return f.shift + prox(f.inner, x - f.shift - step * f.linear, step)
    quad = as_quadratic(f)
    if quad is not None:
        P, q, _ = quad
        return np.linalg.solve(np.eye(f.dim) + step * P, x - step * q)
    if f.kind is FunctionKind.SCALAR_SEPARABLE:
        out = np.empty(f.dim)
        for j, xj in enumerate(x):
            root = _bracket_root(lambda s: s + step * f.phi(s), float(xj))
            if root is None:
                raise SolverFailure("prox bisection failed to bracket")
            out[j] = root
        return out
    # generic smooth fallback
    from scipy import optimize

    res = optimize.minimize(
        lambda z: value(f, z) + np.sum((z - x) ** 2) / (2.0 * step),
        x.copy(),
        jac=lambda z: grad_of(f, z) + (z - x) / step,
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    if not res.success and np.linalg.norm(res.jac) > 1e-8:
        raise SolverFailure(f"prox solve failed: {res.message}")
    return res.x


def conjugate_function(f: IntegralFunction) -> IntegralFunction:
    """Build f* as an IntegralFunction (closed under the supported kinds)."""
    if f.kind is FunctionKind.INDICATOR_ZERO:
        return quadratic(np.zeros((f.dim, f.dim)))
    if f.kind is FunctionKind.STACKED:
        return stacked([conjugate_function(ch) for ch in f.children])
    if f.kind is FunctionKind.SHIFTED:
        inner_conj = conjugate_function(f.inner)
        return shifted(
            inner_conj,
            shift=f.linear,
            linear=f.shift,
            constant=-float(f.shift @ f.linear) - f.constant,
        )
    quad = as_quadratic(f)
    if quad is not None:
        P, q, c = quad
        if np.allclose(P, 0.0):
            # affine function: conjugate is the indicator of {q}
            return shifted(indicator_zero(f.dim), shift=q, constant=-c)
        pinv, proj, rank = _psd_pinv(P)
        if rank < f.dim:
            raise UnsupportedKind("conjugate object of a degenerate quadratic")
        return quadratic(pinv, -pinv @ q, float(0.5 * q @ pinv @ q - c))
    raise UnsupportedKind(f"no closed-form conjugate for kind {f.kind}")


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


def _rel_blocks(rel: VectorRelation, x: np.ndarray):
    offset = 0
    for ch in rel.children:
        yield ch, x[offset : offset + ch.dim]
        offset += ch.dim


def _check_rel_dim(rel: VectorRelation, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != rel.dim:
        raise DimensionMismatch(f"expected dimension {rel.dim}, got {x.size}")
    return x


def forward(rel: VectorRelation, u) -> SetDescriptor:
    """The set of steady outputs for steady input u (Empty if none)."""
    u = _check_rel_dim(rel, u)
    if rel.kind is RelationKind.AFFINE:
        return SetDescriptor.point(rel.S @ u + rel.v)
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        return subgradient(rel.chi, u)
    if rel.kind is RelationKind.INTEGRATOR:
        if np.max(np.abs(u), initial=0.0) > ZERO_ATOL:
            return SetDescriptor.empty(rel.dim)
        return SetDescriptor.everything(rel.dim)
    if rel.kind is RelationKind.STACKED:
        return SetDescriptor.product([forward(ch, ub) for ch, ub in _rel_blocks(rel, u)])
    if rel.kind is RelationKind.SHIFTED:
        return forward(rel.inner, u - rel.input_offset).translate(rel.output_offset)
    if rel.kind is RelationKind.INVERTED:
        return inverse(rel.inner, u)
    raise UnsupportedKind(str(rel.kind))


def _grad_solve(chi: IntegralFunction, y: np.ndarray) -> SetDescriptor:
    """Solution set of y in subdifferential(chi)(u)."""
    if chi.kind is FunctionKind.INDICATOR_ZERO:
        return SetDescriptor.point(np.zeros(chi.dim))
    if chi.kind is FunctionKind.STACKED:
        return SetDescriptor.product([_grad_solve(ch, yb) for ch, yb in _blocks(chi, y)])
    if chi.kind is FunctionKind.SHIFTED:
        return _grad_solve(chi.inner, y - chi.linear).translate(chi.shift)
    quad = as_quadratic(chi)
    if quad is not None:
        P, q, _ = quad
        return _solve_affine(P, y - q)
    if chi.kind is FunctionKind.SCALAR_SEPARABLE:
        roots = []
        for yj in y:
            s = _bracket_root(chi.phi, float(yj))
            if s is None:
                return SetDescriptor.empty(chi.dim)
            roots.append(s)
        return SetDescriptor.point(np.array(roots))
    from scipy import optimize

    res = optimize.minimize(
        lambda x: value(chi, x) - y @ x,
        np.zeros(chi.dim),
        jac=lambda x: grad_of(chi, x) - y,
        method="BFGS",
        options={"gtol": 1e-11, "maxiter": 500},
    )
    if np.linalg.norm(grad_of(chi, res.x) - y) > 1e-7:
        return SetDescriptor.empty(chi.dim)
    return SetDescriptor.point(res.x)


def inverse(rel: VectorRelation, y) -> SetDescriptor:
    """The set of steady inputs producing steady output y (Empty if none)."""
    y = _check_rel_dim(rel, y)
    if rel.kind is RelationKind.AFFINE:
        return _solve_affine(rel.S, y - rel.v)
    if rel.kind is RelationKind.GRADIENT_OF_CONVEX:
        return _grad_solve(rel.chi, y)
    if rel.kind is RelationKind.INTEGRATOR:
        if np.any(y < rel.out_lo - 1e-9) or np.any(y > rel.out_hi + 1e-9):
            return SetDescriptor.empty(rel.dim)
        return SetDescriptor.point(np.zeros(rel.dim))
    if rel.kind is RelationKind.STACKED:
        return SetDescriptor.product([inverse(ch, yb) for ch, yb in _rel_blocks(rel, y)])
    if rel.kind is RelationKind.SHIFTED:
        return inverse(rel.inner, y - rel.output_offset).translate(rel.input_offset)
    if rel.kind is RelationKind.INVERTED:
        return forward(rel.inner, y)
    raise UnsupportedKind(str(rel.kind))


def pair_residual(rel: VectorRelation, u, y) -> float:
    """Distance of the pair (u, y) to the relation graph.

    Integrator kinds honor their output interval here even though
    forward() reports Everything.
    """
    u = _check_rel_dim(rel, u)
    y = _check_rel_dim(rel, y)
    if rel.kind is RelationKind.INTEGRATOR:
        excess = np.maximum(rel.out_lo - y, 0.0) + np.maximum(y - rel.out_hi, 0.0)
        return float(max(np.linalg.norm(u), np.linalg.norm(excess)))
    if rel.kind is RelationKind.STACKED:
        parts = [
            pair_residual(ch, ub, yb)
            for (ch, ub), (_, yb) in zip(_rel_blocks(rel, u), _rel_blocks(rel, y))
        ]
        return float(max(parts))
    if rel.kind is RelationKind.SHIFTED:
        return pair_residual(rel.inner, u - rel.input_offset, y - rel.output_offset)
    if rel.kind is RelationKind.INVERTED:
        return pair_residual(rel.inner, y, u)
    fwd = forward(rel, u)
    if not fwd.is_empty:
        return fwd.distance(y)
    inv = inverse(rel, y)
    if not inv.is_empty:
        return inv.distance(u)
    return math.inf


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
    """Uniform box sampler for cyclic-monotonicity falsification."""

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


def check_cm(
    rel: VectorRelation,
    sampler: Sampler = Sampler(),
    cycles: int = 10_000,
    max_cycle_len: int = 6,
    tol: float = 1e-9,
) -> CmResult:
    """Randomized cyclic-monotonicity falsifier.

    Pass means no counterexample was found at the stated budget, not a
    proof. Set-valued outputs are collapsed by the recorded rule
    (minimum-norm element); inputs with empty forward sets are
    resampled.
    """
    rng = np.random.default_rng(sampler.seed)

    def sample_pair():
        for _ in range(64):
            u = rng.uniform(sampler.low, sampler.high, size=rel.dim)
            if rel.kind is RelationKind.INTEGRATOR:
                u = np.zeros(rel.dim)
            desc = forward(rel, u)
            if desc.is_empty:
                continue
            return u, desc.min_norm()
        raise RelationNotEvaluable("could not sample a feasible input")

    checked = 0
    for _ in range(cycles):
        length = int(rng.integers(2, max_cycle_len + 1))
        pairs = tuple(sample_pair() for _ in range(length))
        s = cyclic_sum(pairs)
        checked += 1
        if s < -tol:
            return CmResult(False, witness=pairs, witness_sum=s, cycles_checked=checked)
    return CmResult(True, cycles_checked=checked)
