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


def _inv(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{what} must be square")
    try:
        out = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"{what} is singular") from exc
    if not np.all(np.isfinite(out)) or np.linalg.cond(mat) > 1e13:
        raise SingularMatrix(f"{what} is numerically singular")
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
    M = np.atleast_2d(np.asarray(M, dtype=float))
    d = M.shape[0]
    _inv(M, "M")  # existence check only
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
    Ainv = _inv(A, "A")
    B = np.atleast_2d(np.asarray(B, dtype=float)).reshape(A.shape[0], -1)
    C = np.atleast_2d(np.asarray(C, dtype=float)).reshape(-1, A.shape[0])
    d = B.shape[1]
    S = -C @ Ainv @ B
    if T is not None:
        S = S + _as_matrix(T, d, d, "T")
    v = -C @ Ainv @ _as_vector(w, A.shape[0], "w")
    return affine_relation(S, v)


def oscillator_ss_relation(M, B, psi=None, w=None) -> VectorRelation:
    """Affine relation y = (M')^-1 B u + (M')^-1 (w - grad psi(0))."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    d = M.shape[0]
    Mt_inv = _inv(M.T, "M'")
    B = _as_matrix(B, d, d, "B")
    forcing = _as_vector(w, d, "w")
    if psi is not None:
        forcing = forcing - grad_of(psi, np.zeros(d))
    return affine_relation(Mt_inv @ B, Mt_inv @ forcing)


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
    unsupported here (simulation still works).
    """
    z = model.leader_offset
    if model.kind is AgentKind.LINEAR:
        rel = linear_ss_relation(model.A, model.B, model.C, model.T, model.w)
        return affine_relation(rel.S, rel.S @ z + rel.v)
    if model.kind is AgentKind.DAMPED_OSCILLATOR:
        rel = oscillator_ss_relation(model.M, model.B, model.psi, model.w)
        return affine_relation(rel.S, rel.S @ z + rel.v)
    if model.kind is AgentKind.CONVEX_GRADIENT:
        quad = as_quadratic(model.psi)
        if quad is not None:
            P, q, _ = quad
            K = _inv(P - model.J, "P - J")
            R = np.zeros((model.io_dim, model.io_dim))
            if model.rho is not None:
                if callable(model.rho):
                    raise UnsupportedKind("callable feedthrough has no affine relation")
                R = _as_matrix(model.rho, model.io_dim, model.io_dim, "rho")
            S = model.C @ K @ model.B + R
            v0 = model.C @ K @ (model.w - q)
            return affine_relation(S, S @ z + v0)
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
            return shifted_relation(base, input_offset=-(model.w + z))
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
