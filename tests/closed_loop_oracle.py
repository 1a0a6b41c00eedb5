"""Per-component closed-loop evaluation, for tests only.

This is the closed loop stated one component at a time: every agent's
output and derivative from its form (rhs and output below), every
controller's from its kind (controller_rhs and controller_output), wired
by mu, then u = -E mu, then y, then zeta = E^T y: no controller's output
reads its input. couplednet folds the same loop into the packed kernel;
the tests compare the two. solve_equilibrium finds a single
convex-gradient agent's rest point by root-finding on rhs.
"""
from dataclasses import dataclass

import numpy as np

from couplednet.couplers import ControllerKind
from couplednet.errors import DimensionMismatch, NoConvergence, UnsupportedKind
from couplednet.plants import AgentKind, agent_groups
from couplednet.relations import grad_of


def agent_forms(models):
    """Each model's form (A, B, C, T, w, psi, where), as agent_groups states
    it, read off the groups' stacks."""
    models = list(models)
    out = [None] * len(models)
    for idx, A, B, C, T, w, psi, where in agent_groups(models):
        for j, i in enumerate(idx):
            out[i] = (A[j], B[j], C[j], T[j], w[j], psi[j], where)
    return out


def agent_form(model):
    return agent_forms([model])[0]


def _vector(v, size, what):
    v = np.asarray(v, dtype=float).ravel()
    if v.size != size:
        raise DimensionMismatch(f"{what} must have length {size}, got {v.size}")
    return v


def rhs(model, x, u, form=None):
    """Agent state derivative at x and input u + leader_offset; form, when
    given, is the model's agent_form."""
    x = _vector(x, model.state_dim, "x")
    u_eff = _vector(u, model.io_dim, "u") + model.leader_offset
    A, B, _, _, w, psi, idx = agent_form(model) if form is None else form
    dx = A @ x + B @ u_eff + w
    if psi is not None:
        dx[idx] -= grad_of(psi, x[idx])
    return dx


def output(model, x, u, form=None):
    """Agent output at x and input u + leader_offset; form as for rhs."""
    x = _vector(x, model.state_dim, "x")
    u_eff = _vector(u, model.io_dim, "u") + model.leader_offset
    _, _, C, T, _, _, _ = agent_form(model) if form is None else form
    return C @ x + T @ u_eff


def controller_rhs(c, eta, zeta):
    """Controller state derivative at state eta and edge input zeta."""
    eta = _vector(eta, c.state_dim, "eta")
    zeta = _vector(zeta, c.io_dim, "zeta") - c.alpha
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        return zeta
    return zeta - eta - c.offset


def controller_output(c, eta, zeta):
    """Coupling signal mu at state eta; no kind reads the edge input zeta."""
    eta = _vector(eta, c.state_dim, "eta")
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        return grad_of(c.potential, eta) + c.beta
    return eta + c.beta


def _layout(system):
    """(agent forms, agent state slices, controller state slices)."""
    forms = agent_forms(system.agents)
    ofs = np.cumsum([0] + [a.state_dim for a in system.agents]
                    + [c.state_dim for c in system.controllers])
    slices = [slice(int(a), int(b)) for a, b in zip(ofs[:-1], ofs[1:])]
    n = len(system.agents)
    return forms, slices[:n], slices[n:]


def signals_at(system, s):
    """(u, y, zeta, mu) at one stacked state: controllers first."""
    s = np.asarray(s, dtype=float)
    forms, a_slices, c_slices = _layout(system)
    d = system.io_dim
    op = system.op
    mu = np.empty(op.edge_size)
    for e, c in enumerate(system.controllers):
        mu[e * d:(e + 1) * d] = controller_output(c, s[c_slices[e]], np.zeros(d))
    u = -op.matvec(mu)
    y = np.empty(op.node_size)
    for i, a in enumerate(system.agents):
        y[i * d:(i + 1) * d] = output(a, s[a_slices[i]], u[i * d:(i + 1) * d], forms[i])
    return u, y, op.rmatvec(y), mu


def step_rhs(system, s):
    """Stacked state derivative of the closed loop at s, one component at a time."""
    s = np.asarray(s, dtype=float)
    forms, a_slices, c_slices = _layout(system)
    u, _, zeta, _ = signals_at(system, s)
    d = system.io_dim
    out = np.empty_like(s)
    for i, a in enumerate(system.agents):
        out[a_slices[i]] = rhs(a, s[a_slices[i]], u[i * d:(i + 1) * d], forms[i])
    for e, c in enumerate(system.controllers):
        out[c_slices[e]] = controller_rhs(c, s[c_slices[e]], zeta[e * d:(e + 1) * d])
    return out


def signals(system, states):
    """(u, y, zeta, mu) arrays of recorded states, one record at a time."""
    rows = [signals_at(system, s) for s in states]
    return tuple(np.array([r[k] for r in rows]) for k in range(4))


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium of a convex-gradient agent under constant input.

    x0 solves grad psi(x0) - J x0 = B u + w; residual is the Euclidean
    norm of the defect at x0.
    """

    x0: np.ndarray
    residual: float


def solve_equilibrium(model, u, tol: float = 1e-10) -> EquilibriumResult:
    """The equilibrium of a convex-gradient agent at constant input u.

    Root-finding (scipy's hybr) runs from the origin on the defect
    -rhs(model, x, u) = grad psi(x) - J x - B u_eff - w; the returned
    point is guaranteed only to have a defect norm of at most tol. The
    leader offset is added to u by rhs. Raises UnsupportedKind for other
    kinds and NoConvergence when root-finding stalls above tol.
    """
    if model.kind is not AgentKind.CONVEX_GRADIENT:
        raise UnsupportedKind("equilibrium search applies to convex-gradient agents")
    from scipy import optimize

    u = np.asarray(u, dtype=float).ravel()
    form = agent_form(model)
    sol = optimize.root(lambda x: -rhs(model, x, u, form), np.zeros(model.state_dim),
                        method="hybr", tol=tol)
    res = float(np.linalg.norm(rhs(model, sol.x, u, form)))
    if res > tol:
        raise NoConvergence(f"equilibrium residual {res:.3e} above {tol:.1e}")
    return EquilibriumResult(x0=sol.x, residual=res)
