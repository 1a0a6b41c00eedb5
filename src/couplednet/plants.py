"""Agent (node) dynamics and their steady-state input-output relations.

Three concrete maximal equilibrium-independent cyclically monotone
(MEICMP) classes are provided: linear state-space systems, convex
gradient systems with a skew (oscillatory) term, and damped MIMO
oscillators. A Custom kind accepts raw callbacks for simulation only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidModel,
    NoConvergence,
    SingularMatrix,
    UnsupportedKind,
)
from .relations import (
    IntegralFunction,
    VectorRelation,
    affine_relation,
    as_quadratic,
    grad_of,
    gradient_relation,
    inverted_relation,
    shifted_relation,
)


class AgentKind(Enum):
    LINEAR = "linear"
    CONVEX_GRADIENT = "convex_gradient"
    DAMPED_OSCILLATOR = "damped_oscillator"
    CUSTOM = "custom"


def _check_invertible(mat, what: str) -> np.ndarray:
    """mat as a float array, once it (or each of a stack (..., n, n)) is invertible.

    Raises DimensionMismatch when it is not square, and SingularMatrix
    when it is not finite, is singular or has a condition number, the
    ratio of its extreme singular values as np.linalg.cond computes it,
    above 1e13.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2:
        mat = np.atleast_2d(mat)
    if mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"{what} must be square")
    if not np.isfinite(mat).all():
        raise SingularMatrix(f"{what} is not finite")
    s = np.linalg.svd(mat, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 reads as nan: refused
        cond = s[..., 0] / s[..., -1]
    if not (cond <= 1e13).all():
        raise SingularMatrix(f"{what} is numerically singular")
    return mat


def _inv(mat, what: str) -> np.ndarray:
    """Inverse of a square matrix, or of each of a stack (..., n, n).

    The matrix is checked by _check_invertible first; SingularMatrix
    is also raised when the inverse overflows.
    """
    mat = _check_invertible(mat, what)
    try:
        out = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc
    if not np.isfinite(out).all():
        raise SingularMatrix(f"{what} has no finite inverse")
    return out


@dataclass(frozen=True)
class AgentModel:
    """A single agent's ODE with output map and steady-state data.

    Parameters
    ----------
    state_dim : int
        Dimension of the agent state.
    io_dim : int
        Shared input/output dimension d.
    kind : AgentKind
        One of Linear, ConvexGradient, DampedOscillator, Custom.
    A, B, C, T : ndarray, optional
        Linear kind: dx/dt = A x + B u_eff + w, y = C x + T u_eff.
    psi : IntegralFunction, optional
        Convex potential. ConvexGradient kind: dx/dt = -grad psi(x)
        + J x + B u_eff + w. DampedOscillator kind: damping potential
        acting on the momentum block.
    J : ndarray, optional
        Skew-symmetric oscillatory term of the ConvexGradient kind.
    rho : ndarray or callable, optional
        Output feedthrough of the ConvexGradient kind: y = C x + rho(u_eff).
    M : ndarray, optional
        DampedOscillator kind, state x = (q, p) with both blocks of
        size d: dq/dt = M p, dp/dt = -M' q - grad psi(p) + B u_eff + w.
    f, h : callable, optional
        Custom kind: f(x, u_eff, w) and h(x, u_eff, w).
    relation : VectorRelation, optional
        Steady-state relation supplied by the caller (Custom kind only;
        built-in kinds derive theirs).
    w : ndarray
        Constant exogenous forcing. For the oscillator it enters the
        momentum equation only (length d); otherwise length state_dim.
    leader_offset : ndarray
        Constant reference z added to the input: u_eff = u + z. Zero
        for followers.

    Notes
    -----
    The effective input u_eff = u + leader_offset is applied in both
    rhs() and output(), and the derived steady-state relations fold it
    into their affine offsets.
    """

    state_dim: int
    io_dim: int
    kind: AgentKind
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    C: Optional[np.ndarray] = None
    T: Optional[np.ndarray] = None
    psi: Optional[IntegralFunction] = None
    J: Optional[np.ndarray] = None
    rho: object = None
    M: Optional[np.ndarray] = None
    f: Optional[Callable] = None
    h: Optional[Callable] = None
    relation: Optional[VectorRelation] = None
    w: np.ndarray = field(default_factory=lambda: np.zeros(0))
    leader_offset: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _as_matrix(m, rows, cols, what) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape != (rows, cols):
        raise DimensionMismatch(f"{what} must be {rows}x{cols}, got {m.shape}")
    return m


def _as_vector(v, size, what) -> np.ndarray:
    if v is None:
        return np.zeros(size)
    v = np.asarray(v, dtype=float).ravel()
    if v.size != size:
        raise DimensionMismatch(f"{what} must have length {size}, got {v.size}")
    return v


def linear_agent(A, B, C, T=None, w=None, leader_offset=None) -> AgentModel:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    B = np.atleast_2d(np.asarray(B, dtype=float)).reshape(n, -1)
    d = B.shape[1]
    C = _as_matrix(C, d, n, "C")
    T = np.zeros((d, d)) if T is None else _as_matrix(T, d, d, "T")
    return AgentModel(
        state_dim=n,
        io_dim=d,
        kind=AgentKind.LINEAR,
        A=A,
        B=B,
        C=C,
        T=T,
        w=_as_vector(w, n, "w"),
        leader_offset=_as_vector(leader_offset, d, "leader_offset"),
    )


def convex_gradient_agent(psi, J=None, B=None, C=None, rho=None, w=None, leader_offset=None) -> AgentModel:
    n = psi.dim
    J = np.zeros((n, n)) if J is None else _as_matrix(J, n, n, "J")
    if np.linalg.norm(J + J.T) > 1e-12:
        raise InvalidModel("J must be skew-symmetric")
    B = np.eye(n) if B is None else np.atleast_2d(np.asarray(B, dtype=float)).reshape(n, -1)
    d = B.shape[1]
    C = np.eye(n) if C is None else _as_matrix(C, d, n, "C")
    if C.shape != (d, n):
        raise DimensionMismatch("C must map state to io dimension")
    return AgentModel(
        state_dim=n,
        io_dim=d,
        kind=AgentKind.CONVEX_GRADIENT,
        psi=psi,
        J=J,
        B=B,
        C=C,
        rho=rho,
        w=_as_vector(w, n, "w"),
        leader_offset=_as_vector(leader_offset, d, "leader_offset"),
    )


def damped_oscillator_agent(M, B, psi=None, w=None, anchor=None, leader_offset=None) -> AgentModel:
    M = _check_invertible(M, "M")
    d = M.shape[0]
    B = np.eye(d) if B is None else _as_matrix(B, d, d, "B")
    wv = _as_vector(w, d, "w")
    if anchor is not None:
        # rest position q = anchor with zero input: dp/dt = -M'(q - anchor)
        wv = wv + M.T @ _as_vector(anchor, d, "anchor")
    return AgentModel(
        state_dim=2 * d,
        io_dim=d,
        kind=AgentKind.DAMPED_OSCILLATOR,
        M=M,
        B=B,
        psi=psi,
        w=wv,
        leader_offset=_as_vector(leader_offset, d, "leader_offset"),
    )


def custom_agent(state_dim, io_dim, f, h, relation=None, w=None, leader_offset=None) -> AgentModel:
    return AgentModel(
        state_dim=state_dim,
        io_dim=io_dim,
        kind=AgentKind.CUSTOM,
        f=f,
        h=h,
        relation=relation,
        w=_as_vector(w, state_dim, "w") if w is not None else np.zeros(state_dim),
        leader_offset=_as_vector(leader_offset, io_dim, "leader_offset"),
    )


# ---------------------------------------------------------------------------
# steady-state relations and MEICMP classification
# ---------------------------------------------------------------------------


def linear_ss_relation(A, B, C, T=None, w=None) -> VectorRelation:
    """Affine relation y = (-C A^-1 B + T) u - C A^-1 w of a linear agent."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    B = np.atleast_2d(np.asarray(B, dtype=float)).reshape(n, -1)
    C = np.atleast_2d(np.asarray(C, dtype=float)).reshape(-1, n)
    d = B.shape[1]
    T = np.zeros((d, d)) if T is None else _as_matrix(T, d, d, "T")
    return affine_relation(*_linear_gain(A, B, C, T, _as_vector(w, n, "w")))


def _linear_gain(A, B, C, T, w):
    """(S, v) of y = S u + v for linear agents; the arrays may be stacks."""
    CA = -C @ _inv(A, "A")
    return CA @ B + T, (CA @ w[..., None])[..., 0]


def oscillator_ss_relation(M, B, psi=None, w=None) -> VectorRelation:
    """Affine relation y = (M')^-1 B u + (M')^-1 (w - grad psi(0))."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    d = M.shape[0]
    return affine_relation(*_oscillator_gain(M, _as_matrix(B, d, d, "B"),
                                             _forcing(psi, _as_vector(w, d, "w"))))


def _forcing(psi, w):
    """w - grad psi(0); grad psi(0) is q for a quadratic psi."""
    if psi is None:
        return w
    quad = as_quadratic(psi)
    return w - (quad[1] if quad is not None else grad_of(psi, np.zeros(w.size)))


def _oscillator_gain(M, B, forcing):
    """(S, v) of y = S u + v for oscillators; the arrays may be stacks."""
    Mt_inv = _inv(np.swapaxes(M, -1, -2), "M'")
    return Mt_inv @ B, (Mt_inv @ forcing[..., None])[..., 0]


def _gradient_gain(P, J, B, C, R, w):
    """(S, v) of y = S u + v for quadratic convex-gradient agents with
    Hessian P and linear term folded into w; the arrays may be stacks."""
    CK = C @ _inv(P - J, "P - J")
    return CK @ B + R, (CK @ w[..., None])[..., 0]


@dataclass(frozen=True)
class MeicmpResult:
    """Outcome of an MEICMP classification.

    verdict is "yes", "yes-strict", or "no". For linear agents "yes"
    already implies the strict (positive-definite) case; oscillators
    distinguish semi-definite from definite. reason is set when the
    verdict is "no"; S is the steady-state gain that was examined.
    """

    verdict: str
    reason: Optional[str] = None
    S: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.verdict != "no"


def _symmetric_within(S: np.ndarray) -> bool:
    return np.linalg.norm(S - S.T) <= 1e-8 * (1.0 + np.linalg.norm(S))


def is_meicmp_linear(A, B, C, T=None, tol: float = 1e-8) -> MeicmpResult:
    """MEICMP iff A is Hurwitz and -C A^-1 B + T is symmetric positive-definite."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    rel = linear_ss_relation(A, B, C, T)
    S = rel.S
    if np.max(np.linalg.eigvals(A).real) >= 0.0:
        return MeicmpResult("no", reason="not Hurwitz", S=S)
    if not _symmetric_within(S):
        return MeicmpResult("no", reason="asymmetric", S=S)
    if np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) <= tol:
        return MeicmpResult("no", reason="not positive-definite", S=S)
    return MeicmpResult("yes", S=S)


def is_meicmp_oscillator(M, B, tol: float = 1e-8) -> MeicmpResult:
    """Classify by the eigenvalues of (M')^-1 B: PSD gives MEICMP, PD strict."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    S = _inv(M.T, "M'") @ _as_matrix(B, M.shape[0], M.shape[0], "B")
    if not _symmetric_within(S):
        return MeicmpResult("no", reason="asymmetric", S=S)
    eigmin = np.min(np.linalg.eigvalsh(0.5 * (S + S.T)))
    if eigmin < -tol:
        return MeicmpResult("no", reason="indefinite", S=S)
    if eigmin > tol:
        return MeicmpResult("yes-strict", S=S)
    return MeicmpResult("yes", S=S)


def ss_relation(model: AgentModel) -> VectorRelation:
    """Steady-state relation of an agent, exogenous and leader terms folded in.

    Linear and oscillator kinds are always affine. ConvexGradient kinds
    are affine when psi is quadratic; with identity B and C and no skew
    term the relation is the inverse of grad psi; anything else is
    unsupported here (simulation still works). The one-agent case of
    ss_relations.
    """
    return ss_relations([model])[0]


def ss_relations(models) -> tuple:
    """ss_relation of each of models, in order.

    Agents whose relation is affine are solved by groups of one kind
    and shape: one batched inverse and product per group, then
    y = S (u + z) + v for the leader offset z. The others are derived
    one at a time.
    """
    models = list(models)
    out = [None] * len(models)
    groups = {}
    for i, model in enumerate(models):
        if model.kind in _GAINS and (model.kind is not AgentKind.CONVEX_GRADIENT
                                     or as_quadratic(model.psi) is not None):
            groups.setdefault((model.kind, model.state_dim, model.io_dim), []).append(i)
        else:
            out[i] = _relation(model)
    for (kind, _, d), idx in groups.items():
        group = [models[i] for i in idx]
        S, v = _GAINS[kind](group)
        z = _stack([m.leader_offset for m in group], (d,), "leader_offset")
        v = (S @ z[:, :, None])[:, :, 0] + v
        for i, S_i, v_i in zip(idx, S, v):
            out[i] = affine_relation(S_i, v_i)
    return tuple(out)


def _stack(arrays, shape, what) -> np.ndarray:
    """One float array stacking arrays, each of the given shape."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if any(a.shape != shape for a in arrays):
        raise DimensionMismatch(f"{what} must have shape {shape}")
    return np.stack(arrays)


def _linear_gains(group):
    n, d = group[0].state_dim, group[0].io_dim
    return _linear_gain(
        _stack([m.A for m in group], (n, n), "A"),
        _stack([m.B for m in group], (n, d), "B"),
        _stack([m.C for m in group], (d, n), "C"),
        _stack([np.zeros((d, d)) if m.T is None else m.T for m in group], (d, d), "T"),
        _stack([m.w for m in group], (n,), "w"))


def _oscillator_gains(group):
    d = group[0].io_dim
    w = _stack([m.w for m in group], (d,), "w")
    return _oscillator_gain(
        _stack([m.M for m in group], (d, d), "M"),
        _stack([m.B for m in group], (d, d), "B"),
        np.stack([_forcing(m.psi, w_m) for m, w_m in zip(group, w)]))


def _gradient_gains(group):
    n, d = group[0].state_dim, group[0].io_dim
    P, q, _ = zip(*(as_quadratic(m.psi) for m in group))

    def feedthrough(rho):
        if rho is None:
            return np.zeros((d, d))
        if callable(rho):
            raise UnsupportedKind("callable feedthrough has no affine relation")
        return _as_matrix(rho, d, d, "rho")

    return _gradient_gain(
        _stack(P, (n, n), "P"),
        _stack([m.J for m in group], (n, n), "J"),
        _stack([m.B for m in group], (n, d), "B"),
        _stack([m.C for m in group], (d, n), "C"),
        _stack([feedthrough(m.rho) for m in group], (d, d), "rho"),
        _stack([m.w for m in group], (n,), "w") - _stack(q, (n,), "q"))


# (S, v) for a group of agents of one affine kind and shape
_GAINS = {
    AgentKind.LINEAR: _linear_gains,
    AgentKind.DAMPED_OSCILLATOR: _oscillator_gains,
    AgentKind.CONVEX_GRADIENT: _gradient_gains,
}


def _relation(model: AgentModel) -> VectorRelation:
    """ss_relation of an agent whose relation is not affine."""
    if model.kind is AgentKind.CONVEX_GRADIENT:
        square = model.B.shape[0] == model.B.shape[1]
        plain = (
            square
            and np.allclose(model.B, np.eye(model.state_dim))
            and np.allclose(model.C, np.eye(model.state_dim))
            and np.allclose(model.J, 0.0)
            and model.rho is None
        )
        if plain:
            # grad psi(y) = u + w + z, so the relation inverts grad psi
            base = inverted_relation(gradient_relation(model.psi))
            return shifted_relation(base, input_offset=-(model.w + model.leader_offset))
        raise UnsupportedKind(
            "no closed steady-state relation for this convex-gradient agent"
        )
    if model.kind is AgentKind.CUSTOM:
        if model.relation is None:
            raise UnsupportedKind("custom agent did not supply a relation")
        return model.relation
    raise UnsupportedKind(str(model.kind))


# ---------------------------------------------------------------------------
# equilibrium search for convex-gradient agents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium of a convex-gradient agent under constant input.

    x0 solves grad psi(x0) - J x0 = B u + w; residual is the Euclidean
    norm of the defect at x0.
    """

    x0: np.ndarray
    residual: float


def solve_equilibrium(model: AgentModel, u, tol: float = 1e-10) -> EquilibriumResult:
    """Find the equilibrium of a convex-gradient agent at constant input u.

    Root-finding (scipy's hybr) runs from the origin on the defect
    grad psi(x) - J x - B u - w; the returned point is guaranteed only
    to have a defect norm of at most tol.

    Parameters
    ----------
    model : AgentModel
        Must be of the ConvexGradient kind.
    u : array_like
        Constant input (leader offset added automatically).
    tol : float
        Required residual norm at the returned point.

    Returns
    -------
    EquilibriumResult

    Raises
    ------
    UnsupportedKind
        If the agent is not of the ConvexGradient kind.
    NoConvergence
        If root-finding stalls above tol.
    """
    if model.kind is not AgentKind.CONVEX_GRADIENT:
        raise UnsupportedKind("equilibrium search applies to convex-gradient agents")
    u = _as_vector(u, model.io_dim, "u")
    b = model.B @ (u + model.leader_offset) + model.w

    def defect(x):
        return grad_of(model.psi, x) - model.J @ x - b

    from scipy import optimize

    sol = optimize.root(defect, np.zeros(model.state_dim), method="hybr", tol=tol)
    res = float(np.linalg.norm(defect(sol.x)))
    if res > tol:
        raise NoConvergence(f"equilibrium residual {res:.3e} above {tol:.1e}")
    return EquilibriumResult(x0=sol.x, residual=res)


# ---------------------------------------------------------------------------
# simulation interface
# ---------------------------------------------------------------------------


def rhs(model: AgentModel, x, u) -> np.ndarray:
    """State derivative f(x, u + leader_offset, w) for any kind."""
    x = _as_vector(x, model.state_dim, "x")
    u_eff = _as_vector(u, model.io_dim, "u") + model.leader_offset
    if model.kind is AgentKind.LINEAR:
        return model.A @ x + model.B @ u_eff + model.w
    if model.kind is AgentKind.CONVEX_GRADIENT:
        return -grad_of(model.psi, x) + model.J @ x + model.B @ u_eff + model.w
    if model.kind is AgentKind.DAMPED_OSCILLATOR:
        d = model.io_dim
        q, p = x[:d], x[d:]
        dq = model.M @ p
        dp = -model.M.T @ q + model.B @ u_eff + model.w
        if model.psi is not None:
            dp = dp - grad_of(model.psi, p)
        return np.concatenate([dq, dp])
    if model.kind is AgentKind.CUSTOM:
        return np.asarray(model.f(x, u_eff, model.w), dtype=float).ravel()
    raise UnsupportedKind(str(model.kind))


def output(model: AgentModel, x, u) -> np.ndarray:
    """Output map h(x, u + leader_offset, w) for any kind."""
    x = _as_vector(x, model.state_dim, "x")
    u_eff = _as_vector(u, model.io_dim, "u") + model.leader_offset
    if model.kind is AgentKind.LINEAR:
        return model.C @ x + model.T @ u_eff
    if model.kind is AgentKind.CONVEX_GRADIENT:
        y = model.C @ x
        if model.rho is not None:
            y = y + (model.rho(u_eff) if callable(model.rho) else np.asarray(model.rho) @ u_eff)
        return y
    if model.kind is AgentKind.DAMPED_OSCILLATOR:
        return x[: model.io_dim].copy()
    if model.kind is AgentKind.CUSTOM:
        return np.asarray(model.h(x, u_eff, model.w), dtype=float).ravel()
    raise UnsupportedKind(str(model.kind))


def has_feedthrough(model: AgentModel) -> bool:
    """True when the output depends directly on the input."""
    if model.kind is AgentKind.LINEAR:
        return bool(np.any(model.T != 0.0))
    if model.kind is AgentKind.CONVEX_GRADIENT:
        return model.rho is not None
    if model.kind is AgentKind.DAMPED_OSCILLATOR:
        return False
    return True  # Custom: assume the worst
