"""Agent (node) dynamics and their steady-state input-output relations.

Three concrete maximal equilibrium-independent cyclically monotone
(MEICMP) classes are provided: linear state-space systems, convex
gradient systems with a skew (oscillatory) term, and damped MIMO
oscillators. Each is stated once, as the form agent_form returns, and
the simulation interface, the steady-state gains and the packed kernel
read that form.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidModel,
    SingularMatrix,
    UnsupportedKind,
)
from .relations import (
    IntegralFunction,
    VectorRelation,
    as_quadratic,
    grad_of,
    gradient_relation,
    inverted_relation,
    shifted_relation,
    stacked_affine,
)


class AgentKind(Enum):
    LINEAR = "linear"
    CONVEX_GRADIENT = "convex_gradient"
    DAMPED_OSCILLATOR = "damped_oscillator"


def _check_invertible(mat, what: str, names=None) -> np.ndarray:
    """mat as a float array, once it (or each of a stack (k, n, n)) is invertible.

    Raises DimensionMismatch when it is not square, and SingularMatrix
    when it is not finite, is singular or has a condition number, the
    ratio of its extreme singular values as np.linalg.cond computes it,
    above 1e13. The message names matrix j of a stack by _label.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim < 2:
        mat = np.atleast_2d(mat)
    if mat.shape[-1] != mat.shape[-2]:
        raise DimensionMismatch(f"{_label(names, 0, what)}{what} must be square")
    try:
        s = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError:  # a matrix is not finite, say
        s = fine = None
    if s is not None:
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 reads as nan: refused
            fine = (s[..., 0] / s[..., -1] <= 1e13).reshape(-1)
    if fine is None or not fine.all():
        finite = np.isfinite(mat).all(axis=(-2, -1)).reshape(-1)
        j = int(np.argmin(finite if fine is None else finite & fine))
        reason = "is numerically singular" if finite[j] else "is not finite"
        raise SingularMatrix(f"{_label(names, j, what)}{what} {reason}")
    return mat


def _label(names, j: int, what: str) -> str:
    """The prefix naming field what of member j of a group in an error
    message: f"{names[j]}.{what}: ", or nothing for unnamed members."""
    return "" if names is None else f"{names[j]}.{what}: "


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
        One of Linear, ConvexGradient, DampedOscillator.
    A, B, C, T : ndarray, optional
        Linear kind: dx/dt = A x + B u_eff + w, y = C x + T u_eff.
    psi : IntegralFunction, optional
        Convex potential. ConvexGradient kind: dx/dt = -grad psi(x)
        + J x + B u_eff + w. DampedOscillator kind: damping potential
        acting on the momentum block.
    J : ndarray, optional
        Skew-symmetric oscillatory term of the ConvexGradient kind.
    rho : ndarray, optional
        d x d output feedthrough of the ConvexGradient kind:
        y = C x + rho u_eff.
    M : ndarray, optional
        DampedOscillator kind, state x = (q, p) with both blocks of
        size d: dq/dt = M p, dp/dt = -M' q - grad psi(p) + B u_eff + w.
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
    rho: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
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


def _rows(stack, count: int, shape, what: str, names=None) -> np.ndarray:
    """stack as a float array of count rows of the given shape (zeros if
    None); else DimensionMismatch naming the group's first member, as the
    rows of a stack share one shape."""
    if stack is None:
        return np.zeros((count,) + shape)
    stack = np.asarray(stack, dtype=float)
    if stack.shape != (count,) + shape:
        raise DimensionMismatch(f"{_label(names, 0, what)}{what} must have shape {shape}, "
                                f"got {stack.shape[1:]}")
    return stack


def _one(arr):
    """A stack of one matrix: arr (at least 2-D) with a leading axis, or None."""
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=float)
    return (arr if arr.ndim >= 2 else np.atleast_2d(arr))[None]


def _one_vector(v):
    """A stack of one vector: v flattened, or None."""
    return None if v is None else np.asarray(v, dtype=float).ravel()[None]


def _eyes(count: int, n: int) -> np.ndarray:
    return np.repeat(np.eye(n)[None], count, axis=0)


def linear_agent(A, B, C, T=None, w=None, leader_offset=None) -> AgentModel:
    """The one-agent case of linear_agents."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    B = np.atleast_2d(np.asarray(B, dtype=float)).reshape(n, -1)
    d = B.shape[1]
    C = _as_matrix(C, d, n, "C")
    T = None if T is None else _as_matrix(T, d, d, "T")
    return linear_agents(A[None], B[None], C[None], _one(T), _one_vector(_as_vector(w, n, "w")),
                         _one_vector(_as_vector(leader_offset, d, "leader_offset")))[0]


def linear_agents(A, B, C, T=None, w=None, leader_offset=None, names=None) -> tuple:
    """Linear agents x' = A x + B u_eff + w, y = C x + T u_eff, one per
    row of the stacks A (k, n, n), B (k, n, d) and C (k, d, n); T, w
    and leader_offset default to zeros. Each model holds rows of the
    stacks. names, one per agent, prefix the errors a member causes."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    k, n, d = B.shape
    A = _rows(A, k, (n, n), "A", names)
    C = _rows(C, k, (d, n), "C", names)
    T = _rows(T, k, (d, d), "T", names)
    w = _rows(w, k, (n,), "w", names)
    z = _rows(leader_offset, k, (d,), "leader_offset", names)
    return tuple(AgentModel(state_dim=n, io_dim=d, kind=AgentKind.LINEAR, A=A[j], B=B[j], C=C[j],
                            T=T[j], w=w[j], leader_offset=z[j]) for j in range(k))


def convex_gradient_agent(psi, J=None, B=None, C=None, rho=None, w=None, leader_offset=None) -> AgentModel:
    """The one-agent case of convex_gradient_agents."""
    n = psi.dim
    J = None if J is None else _as_matrix(J, n, n, "J")
    B = np.eye(n) if B is None else np.atleast_2d(np.asarray(B, dtype=float)).reshape(n, -1)
    d = B.shape[1]
    C = np.eye(n) if C is None else _as_matrix(C, d, n, "C")
    if C.shape != (d, n):
        raise DimensionMismatch("C must map state to io dimension")
    return convex_gradient_agents([psi], _one(J), B[None], C[None], _one(rho),
                                  _one_vector(_as_vector(w, n, "w")),
                                  _one_vector(_as_vector(leader_offset, d, "leader_offset")))[0]


def convex_gradient_agents(psi, J=None, B=None, C=None, rho=None, w=None,
                           leader_offset=None, names=None) -> tuple:
    """Convex-gradient agents x' = -grad psi(x) + J x + B u_eff + w,
    y = C x + rho u_eff, one per entry of the list psi (all of one
    dimension n) and row of the stacks J (k, n, n), B (k, n, d), C
    (k, d, n) and rho (k, d, d). J, rho, w and leader_offset default to
    zeros, B and C to the identity; each J must be skew-symmetric.
    names as for linear_agents."""
    k, n = len(psi), psi[0].dim
    B = _eyes(k, n) if B is None else np.asarray(B, dtype=float)
    d = B.shape[2]
    B = _rows(B, k, (n, d), "B", names)
    C = _eyes(k, n) if C is None else C
    C = _rows(C, k, (d, n), "C", names)
    J = _rows(J, k, (n, n), "J", names)
    skew = np.linalg.norm(J + np.swapaxes(J, 1, 2), axis=(1, 2)) <= 1e-12
    if not skew.all():
        raise InvalidModel(f"{_label(names, int(np.argmin(skew)), 'J')}J must be skew-symmetric")
    rho = _rows(rho, k, (d, d), "rho", names)
    w = _rows(w, k, (n,), "w", names)
    z = _rows(leader_offset, k, (d,), "leader_offset", names)
    return tuple(AgentModel(state_dim=n, io_dim=d, kind=AgentKind.CONVEX_GRADIENT, psi=psi[j],
                            J=J[j], B=B[j], C=C[j], rho=rho[j], w=w[j], leader_offset=z[j])
                 for j in range(k))


def damped_oscillator_agent(M, B, psi=None, w=None, anchor=None, leader_offset=None) -> AgentModel:
    """The one-agent case of oscillator_agents."""
    return oscillator_agents(_one(M), None if B is None else _one(B), [psi], _one_vector(w),
                             _one_vector(anchor), _one_vector(leader_offset))[0]


def oscillator_agents(M, B=None, psi=None, w=None, anchor=None, leader_offset=None,
                      names=None) -> tuple:
    """Damped oscillators q' = M p, p' = -M' q - grad psi(p) + B u_eff + w,
    one per row of the stack M (k, d, d).

    B (k, d, d) defaults to identities, psi (a list, entries None for no
    damping) to None, and w, anchor and leader_offset (k, d) to zeros. An
    anchor a folds into w as M'a, the rest position q = a at zero input.
    One stacked SVD checks every M (see _check_invertible). names as for
    linear_agents.
    """
    M = _check_invertible(M, "M", names)
    k, d, _ = M.shape
    B = _rows(_eyes(k, d) if B is None else B, k, (d, d), "B", names)
    w = _rows(w, k, (d,), "w", names)
    if anchor is not None:
        anchor = _rows(anchor, k, (d,), "anchor", names)
        w = w + np.array([M_j.T @ a_j for M_j, a_j in zip(M, anchor)])
    z = _rows(leader_offset, k, (d,), "leader_offset", names)
    psi = [None] * k if psi is None else psi
    return tuple([AgentModel(state_dim=2 * d, io_dim=d, kind=AgentKind.DAMPED_OSCILLATOR, M=M_j,
                             B=B_j, psi=psi_j, w=w_j, leader_offset=z_j)
                  for M_j, B_j, psi_j, w_j, z_j in zip(M, B, psi, w, z)])


# ---------------------------------------------------------------------------
# the one form of every kind
# ---------------------------------------------------------------------------


def agent_form(model: AgentModel):
    """(A, B, C, T, w, psi, idx) of an agent.

    Every kind reads, for the effective input u_eff,

        x' = A x + B u_eff + w - grad psi(x[idx]),  y = C x + T u_eff.

    A quadratic psi is folded into A and w, so psi is None then (and
    always for the linear kind). T is the d x d feedthrough: a linear
    agent's T, a convex-gradient agent's rho, zero for an oscillator.
    idx is the slice psi acts on: every state, or an oscillator's
    momentum p of x = (q, p). The arrays may be read-only views. The
    one-agent case of agent_forms.
    """
    return agent_forms([model])[0]


def agent_forms(models) -> tuple:
    """agent_form of each of models, in order: views of agent_groups' stacks."""
    models = list(models)
    out = [None] * len(models)
    for idx, A, B, C, T, w, psi, where in agent_groups(models):
        for j, i in enumerate(idx):
            out[i] = (A[j], B[j], C[j], T[j], w[j], psi[j], where)
    return tuple(out)


def agent_groups(models) -> list:
    """models by groups of one kind and shape.

    Each group is (idx, A, B, C, T, w, psi, where): the positions of its
    agents in models, in order, then their agent_form parts with A, B,
    C, T and w stacked once for the group, psi a list and where the
    slice psi acts on.
    """
    positions = {}
    for i, model in enumerate(models):  # an Enum hashes in Python; its id does not
        positions.setdefault((id(model.kind), model.state_dim, model.io_dim), []).append(i)
    return [(idx, *_group_form(models[idx[0]].kind, n, d, [models[i] for i in idx]))
            for (_, n, d), idx in positions.items()]


def _group_form(kind, n, d, group):
    """agent_form of a group of one kind and shape, its parts stacked."""
    def stack(what, shape):
        return _stack([getattr(m, what) for m in group], shape, what)

    if kind is AgentKind.LINEAR:
        T = _stack([np.zeros((d, d)) if m.T is None else m.T for m in group], (d, d), "T")
        return (stack("A", (n, n)), stack("B", (n, d)), stack("C", (d, n)), T,
                stack("w", (n,)), [None] * len(group), slice(None))
    # a quadratic psi = x'Px/2 + q'x folds in: -grad psi(x) = -P x - q
    k = n if kind is AgentKind.CONVEX_GRADIENT else d
    quads = [None if m.psi is None else as_quadratic(m.psi) for m in group]
    psi = [m.psi if quad is None else None for m, quad in zip(group, quads)]
    P = _stack([np.zeros((k, k)) if quad is None else quad[0] for quad in quads], (k, k), "P")
    w = stack("w", (k,)) - _stack([np.zeros(k) if quad is None else quad[1] for quad in quads],
                                  (k,), "q")
    if kind is AgentKind.CONVEX_GRADIENT:
        return (stack("J", (n, n)) - P, stack("B", (n, d)), stack("C", (d, n)),
                stack("rho", (d, d)), w, psi, slice(None))
    # damped oscillator, x = (q, p): q' = M p, p' = -M' q - grad psi(p) + B u_eff + w
    M, zero = stack("M", (d, d)), np.zeros((len(group), d, d))
    A = np.block([[zero, M], [-np.swapaxes(M, 1, 2), -P]])
    B = np.concatenate([zero, stack("B", (d, d))], axis=1)
    C = np.broadcast_to(np.eye(d, n), (len(group), d, n))
    return A, B, C, zero, np.concatenate([zero[:, 0], w], axis=1), psi, slice(d, None)


# ---------------------------------------------------------------------------
# steady-state relations and MEICMP classification
# ---------------------------------------------------------------------------


def linear_ss_relation(A, B, C, T=None, w=None) -> VectorRelation:
    """Affine relation y = (-C A^-1 B + T) u - C A^-1 w of a linear agent."""
    return ss_relation(linear_agent(A, B, C, T=T, w=w))


def _linear_gain(A, B, C, T, w):
    """(S, v) of y = S u + v at the rest of x' = A x + B u + w, y = C x + T u.

    S = T - C A^-1 B and v = -C A^-1 w; the arrays may be stacks. The
    caller has checked A (see _check_invertible); its inverse must be
    finite.
    """
    try:
        A_inv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("A is singular") from exc
    if not np.isfinite(A_inv).all():
        raise SingularMatrix("A has no finite inverse")
    CA = -C @ A_inv
    return CA @ B + T, (CA @ w[..., None])[..., 0]


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
    S = linear_ss_relation(A, B, C, T).S
    if np.max(np.linalg.eigvals(A).real) >= 0.0:
        return MeicmpResult("no", reason="not Hurwitz", S=S)
    if not _symmetric_within(S):
        return MeicmpResult("no", reason="asymmetric", S=S)
    if np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) <= tol:
        return MeicmpResult("no", reason="not positive-definite", S=S)
    return MeicmpResult("yes", S=S)


def is_meicmp_oscillator(M, B, tol: float = 1e-8) -> MeicmpResult:
    """Classify by the eigenvalues of the gain (M')^-1 B: PSD gives MEICMP, PD strict."""
    S = ss_relation(damped_oscillator_agent(M, B)).S
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
    """ss_relation of each of models, in order (see ss_groups)."""
    out, groups = ss_groups(models)
    for idx, S, v in groups:
        for i, rel in zip(idx, stacked_affine(S, v).children):
            out[i] = rel
    return tuple(out)


def ss_groups(models):
    """(relations, gains): the steady-state relations of models.

    Agents whose relation is affine are solved by the groups of
    agent_groups: one batched _linear_gain per group, then y = S (u + z)
    + v for the leader offset z, and gains holds (idx, S, v) per group,
    S and v stacked over the agents at positions idx. A linear group's
    A is checked by one stacked _check_invertible; an oscillator's A at
    rest has the singular values of its M, each twice, and M was checked
    when the agent was made. The relations of convex-gradient agents
    with a psi left in their form are derived one at a time into the
    list relations, which holds None at the others.
    """
    models = list(models)
    out, gains = [None] * len(models), []
    for idx, A, B, C, T, w, psi, where in agent_groups(models):
        kind, d = models[idx[0]].kind, models[idx[0]].io_dim
        keep = np.ones(len(idx), dtype=bool)
        if kind is AgentKind.CONVEX_GRADIENT:
            for j, i in enumerate(idx):
                if psi[j] is not None:
                    out[i] = _relation(models[i], (A[j], B[j], C[j], T[j], w[j], psi[j], where))
                    keep[j] = False
        if not keep.all():
            idx = [idx[j] for j in np.flatnonzero(keep)]
            A, B, C, T, w = A[keep], B[keep], C[keep], T[keep], w[keep]
        if not idx:
            continue
        if kind is AgentKind.DAMPED_OSCILLATOR:
            # at rest the momentum p = x[d:] is 0: the damping block of A drops
            # out, and a psi left in the form only adds -grad psi(0) to w
            A[:, d:, d:] = 0.0
            for j, psi_j in enumerate(psi):
                if psi_j is not None:
                    w[j, d:] -= grad_of(psi_j, np.zeros(d))
        else:
            _check_invertible(A, "A")
        S, v = _linear_gain(A, B, C, T, w)
        z = np.array([models[i].leader_offset for i in idx])
        gains.append((idx, S, (S @ z[:, :, None])[:, :, 0] + v))
    return out, gains


def _stack(arrays, shape, what) -> np.ndarray:
    """One float array stacking arrays, each of the given shape."""
    try:
        out = np.array(arrays, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numeric
        out = None
    if out is None or out.shape[1:] != shape:
        raise DimensionMismatch(f"{what} must have shape {shape}")
    return out


def _relation(model: AgentModel, form) -> VectorRelation:
    """ss_relation of an agent whose relation is not affine, given its form.

    With identity B and C, no skew term and no feedthrough, a
    convex-gradient agent settles where grad psi(y) = u + w + z, so its
    relation inverts grad psi.
    """
    A, B, C, T, w, psi, _ = form
    eye = np.eye(model.state_dim)
    plain = (B.shape == eye.shape and np.allclose(B, eye) and np.allclose(C, eye)
             and np.allclose(A, 0.0) and not np.any(T))
    if not plain:
        raise UnsupportedKind("no closed steady-state relation for this convex-gradient agent")
    base = inverted_relation(gradient_relation(psi))
    return shifted_relation(base, input_offset=-(w + model.leader_offset))


# ---------------------------------------------------------------------------
# simulation interface
# ---------------------------------------------------------------------------


def rhs(model: AgentModel, x, u, form=None) -> np.ndarray:
    """State derivative at x and input u + leader_offset; form, when
    given, is the model's agent_form."""
    x = _as_vector(x, model.state_dim, "x")
    u_eff = _as_vector(u, model.io_dim, "u") + model.leader_offset
    A, B, _, _, w, psi, idx = agent_form(model) if form is None else form
    dx = A @ x + B @ u_eff + w
    if psi is not None:
        dx[idx] -= grad_of(psi, x[idx])
    return dx


def output(model: AgentModel, x, u, form=None) -> np.ndarray:
    """Output at x and input u + leader_offset; form as for rhs."""
    x = _as_vector(x, model.state_dim, "x")
    u_eff = _as_vector(u, model.io_dim, "u") + model.leader_offset
    _, _, C, T, _, _, _ = agent_form(model) if form is None else form
    return C @ x + T @ u_eff


def has_feedthrough(model: AgentModel) -> bool:
    """True when the output depends directly on the input: T != 0."""
    return bool(agent_form(model)[3].any())

