"""Per-component closed-loop evaluation, for tests only.

This is the closed loop stated one component at a time: every agent's
output and derivative from plants.output and plants.rhs, every
controller's from couplers.controller_output and controller_rhs, wired
by zeta = E^T y and u = -E mu in the order feedthrough allows.
couplednet folds the same loop into the packed kernel; the tests
compare the two.
"""
import numpy as np

from couplednet.couplers import controller_output, controller_rhs
from couplednet.plants import agent_forms, form_has_feedthrough, output, rhs


def _layout(system):
    """(agent forms, agent state slices, controller state slices)."""
    forms = agent_forms(system.agents)
    ofs = np.cumsum([0] + [a.state_dim for a in system.agents]
                    + [c.state_dim for c in system.controllers])
    slices = [slice(int(a), int(b)) for a, b in zip(ofs[:-1], ofs[1:])]
    n = len(system.agents)
    return forms, slices[:n], slices[n:]


def signals_at(system, s):
    """(u, y, zeta, mu) at one stacked state, honoring feedthrough order."""
    s = np.asarray(s, dtype=float)
    forms, a_slices, c_slices = _layout(system)
    d = system.io_dim
    op = system.op

    def agent_outputs(u):
        y = np.empty(op.node_size)
        for i, a in enumerate(system.agents):
            ui = u[i * d:(i + 1) * d] if u is not None else np.zeros(d)
            y[i * d:(i + 1) * d] = output(a, s[a_slices[i]], ui, forms[i])
        return y

    def ctrl_outputs(zeta):
        mu = np.empty(op.edge_size)
        for e, c in enumerate(system.controllers):
            ze = zeta[e * d:(e + 1) * d] if zeta is not None else np.zeros(d)
            mu[e * d:(e + 1) * d] = controller_output(c, s[c_slices[e]], ze)
        return mu

    if not any(form_has_feedthrough(f) for f in forms):
        y = agent_outputs(None)
        zeta = op.rmatvec(y)
        mu = ctrl_outputs(zeta)
        u = -op.matvec(mu)
    else:
        mu = ctrl_outputs(None)
        u = -op.matvec(mu)
        y = agent_outputs(u)
        zeta = op.rmatvec(y)
    return u, y, zeta, mu


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
