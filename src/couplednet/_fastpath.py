"""Packed closed-loop integration kernels.

Networks whose agents are affine ODEs (linear systems, oscillators or
convex-gradient systems with quadratic potentials) and whose edge
controllers are linear-synthesis or integrator types (quadratic or
paper_psi potentials) fold into one sparse affine map of the stacked
state s (agents, then controllers):

    s' = W [s ; paper_psi(s[psi_idx]) ; 1]

W carries the agent blocks A, B, C, the controllers' affine parts, the
reconfiguration offsets and the wiring zeta = E^T y, u = -E mu; its
last column, on the constant 1, is the affine term c. It is stored as a
COO triple, so one rhs call is a gather, a multiply and a bincount. The
adaptive loop is Dormand-Prince 5(4) with the FSAL property and its
continuous extension for recording (Hairer, Norsett & Wanner, Solving
ODEs I, sections II.5-II.6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplers import ControllerKind, ControllerModel, paper_psi, paper_psi_into
from .errors import NonFiniteState, StepUnderflow
from .plants import AgentKind, AgentModel
from .relations import FunctionKind, as_quadratic


@dataclass(frozen=True)
class PackedSystem:
    """Closed loop folded into sparse affine maps of v = [s ; paper_psi(s[psi_idx]) ; 1].

    (row, col, w) give the state derivative, the affine term c as the
    entries on v's last, constant column, placed after all others;
    (sig_row, sig_col, sig_w) and sig_c give the stacked signals
    [y ; mu], which read no constant column; E is the lifted incidence
    operator that turns them into zeta and u.
    """

    dim: int
    psi_idx: np.ndarray
    row: np.ndarray
    col: np.ndarray
    w: np.ndarray
    sig_row: np.ndarray
    sig_col: np.ndarray
    sig_w: np.ndarray
    sig_c: np.ndarray
    E: np.ndarray


def rhs_buffer(pk):
    """Work vector v for _packed_rhs, its constant last entry set to 1."""
    v = np.empty(pk.dim + pk.psi_idx.shape[0] + 1)
    v[-1] = 1.0
    return v


def _packed_rhs(s, pk, v):
    """State derivative at s: the folded map applied to v = [s ; paper_psi(s[psi_idx]) ; 1].

    v is a buffer from rhs_buffer(pk), filled here and reusable across
    calls. bincount adds each row's products in COO order, so c, stored
    last, is added after the sum, bit for bit as a trailing `+ c` would.
    No errstate is entered: paper_psi underflows harmlessly beyond
    |eta| of about 708, and the integration loops below enter
    np.errstate(under="ignore") once around all their calls.
    """
    dim = pk.dim
    v[:dim] = s
    paper_psi_into(s[pk.psi_idx], v[dim:-1])
    p = v[pk.col]
    np.multiply(p, pk.w, p)
    return np.bincount(pk.row, p, minlength=dim)


@dataclass(frozen=True)
class StepStats:
    """Work done by one integration of _rk45_loop or _rk4_loop.

    nfev counts rhs evaluations, accepted counts the steps that advanced
    time, rejected the RK45 steps retried after an error above
    tolerance (always 0 for RK4), and h_min is the smallest accepted
    step.
    """

    nfev: int
    accepted: int
    rejected: int
    h_min: float


# Dormand-Prince 5(4): rows 1-5 of _DP build stages 2-6, row 6 holds the
# 5th-order weights (stage 7 is the rhs there, reused as the next stage 1),
# row 7 the error weights b5 - b4. The continuous extension's weights are
# b_j(theta) = sum_k _DP_P[j, k] theta^(k+1). Both are written one row per
# line but built flat: converting a nested list makes numpy allocate a
# transient buffer that, at import time, adds about 128 KB to peak RSS.
_DP = np.array([
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0, 0.0,
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0,
    0.0, 0.0, 0.0,
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
    -5103.0 / 18656.0, 0.0, 0.0,
    35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
    11.0 / 84.0, 0.0,
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0,
]).reshape(8, 7)
_DP_P = np.array([
    1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
    -12715105075.0 / 11282082432.0,
    0.0, 0.0, 0.0, 0.0,
    0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
    87487479700.0 / 32700410799.0,
    0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
    -10690763975.0 / 1880347072.0,
    0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
    701980252875.0 / 199316789632.0,
    0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
    -1453857185.0 / 822651844.0,
    0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
    69997945.0 / 29380423.0,
]).reshape(7, 4)


def _initial_records(out, s0, t0, rec_times):
    """Fill the records at t0; returns the index of the first one after it."""
    idx = int(np.searchsorted(rec_times, t0 + 1e-12 * (1.0 + abs(t0)), side="right"))
    out[:idx] = s0
    return idx


def _rk45_loop(rhs, s0, t0, rec_times, rtol, atol, h0):
    """Adaptive Dormand-Prince 5(4) recording the state at each rec_times entry.

    Records inside a step come from the 4th-order continuous extension;
    the last step lands exactly on rec_times[-1]. Returns (states, StepStats).
    np.errstate(under="ignore") is entered once here, around every rhs
    call, so the packed kernel's paper_psi tails stay quiet under a
    caller's raising errstate. Stages, the 5th-order state and the error
    norm are computed into preallocated buffers by the same operations,
    in the same order, as the plain `s + hdp[i, :i] @ K[:i]`, so they
    agree with it bit for bit.

    Raises
    ------
    StepUnderflow
        The step shrank below the resolvable width.
    NonFiniteState
        The error estimate became non-finite.
    """
    dim = s0.shape[0]
    nrec = rec_times.shape[0]
    out = np.empty((nrec, dim))
    s = s0.copy()
    t = float(t0)
    idx = _initial_records(out, s, t, rec_times)
    t_end = float(rec_times[-1]) if nrec else t
    K = np.empty((7, dim))
    hdp = np.empty_like(_DP)  # h * _DP, refilled each step
    stages = [(hdp[i, :i], K[:i]) for i in range(1, 6)]
    b5, K5 = hdp[6, :6], K[:6]
    stage, s5, abs_s5, scale, q = (np.empty(dim) for _ in range(5))
    nfev, accepted, rejected, h_min = 1, 0, 0, math.inf
    h = h0
    with np.errstate(under="ignore"):
        K[0] = rhs(s)
        abs_s = np.abs(s)
        while t < t_end:
            if h < 1e-13 * (1.0 + abs(t)):
                raise StepUnderflow("adaptive step size underflow")
            last = t + h >= t_end - 1e-14 * (1.0 + abs(t_end))
            h_use = t_end - t if last else h
            np.multiply(_DP, h_use, hdp)
            for i, (a, k) in enumerate(stages, 1):
                np.dot(a, k, stage)
                np.add(s, stage, stage)
                K[i] = rhs(stage)
            np.dot(b5, K5, s5)
            np.add(s, s5, s5)
            K[6] = rhs(s5)
            nfev += 6
            np.abs(s5, abs_s5)
            np.maximum(abs_s, abs_s5, out=scale)
            np.multiply(scale, rtol, scale)
            np.add(scale, atol, scale)
            np.dot(hdp[7], K, q)
            np.divide(q, scale, q)
            errn = math.sqrt(np.dot(q, q) / dim)
            if not math.isfinite(errn):
                raise NonFiniteState("state became non-finite during integration")
            if errn <= 1.0:
                t_new = t_end if last else t + h_use
                if idx < nrec and rec_times[idx] <= t_new:
                    stop = int(np.searchsorted(rec_times, t_new, side="right"))
                    theta = (rec_times[idx:stop] - t) / h_use
                    weights = (theta[:, None] ** np.arange(1, 5)) @ _DP_P.T
                    out[idx:stop] = s + h_use * (weights @ K)
                    idx = stop
                if last:
                    out[-1] = s5
                accepted += 1
                h_min = min(h_min, h_use)
                t = t_new
                s, s5 = s5, s
                abs_s, abs_s5 = abs_s5, abs_s
                K[0] = K[6]
            else:
                rejected += 1
            factor = 5.0 if errn == 0.0 else min(5.0, max(0.2, 0.9 * errn ** -0.2))
            h = h_use * factor
    return out, StepStats(nfev, accepted, rejected, h_min)


def _rk4_loop(rhs, s0, t0, rec_times, dt):
    """Fixed-step classical Runge-Kutta, landing exactly on rec_times.

    Returns (states, StepStats); raises NonFiniteState on a non-finite
    recorded state. np.errstate(under="ignore") is entered once here,
    around every rhs call, as in _rk45_loop.
    """
    dim = s0.shape[0]
    nrec = rec_times.shape[0]
    out = np.empty((nrec, dim))
    s = s0.copy()
    t = t0
    start = _initial_records(out, s, t, rec_times)
    steps, h_min = 0, math.inf
    with np.errstate(under="ignore"):
        for idx in range(start, nrec):
            gap = rec_times[idx] - t
            nsub = int(max(1.0, math.ceil(gap / dt - 1e-9)))
            h = gap / nsub
            for _ in range(nsub):
                k1 = rhs(s)
                k2 = rhs(s + 0.5 * h * k1)
                k3 = rhs(s + 0.5 * h * k2)
                k4 = rhs(s + h * k3)
                s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            steps += nsub
            h_min = min(h_min, h)
            t = rec_times[idx]
            if not np.isfinite(s).all():
                raise NonFiniteState("state became non-finite during integration")
            out[idx] = s
    return out, StepStats(4 * steps, steps, 0, float(h_min))


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _pack_agent(agent: AgentModel):
    """(A, B, C, w) of the affine ODE, or None when not packable."""
    if agent.kind is AgentKind.LINEAR:
        if agent.T is not None and np.any(agent.T != 0.0):
            return None
        return agent.A, agent.B, agent.C, agent.w
    if agent.kind is AgentKind.DAMPED_OSCILLATOR:
        d = agent.io_dim
        damping = np.zeros((d, d))
        shift = np.zeros(d)
        if agent.psi is not None:
            quad = as_quadratic(agent.psi)
            if quad is None:
                return None
            damping, shift = quad[0], quad[1]
        A = np.zeros((2 * d, 2 * d))
        A[:d, d:] = agent.M
        A[d:, :d] = -agent.M.T
        A[d:, d:] = -damping
        B = np.zeros((2 * d, d))
        B[d:] = agent.B
        w = np.zeros(2 * d)
        w[d:] = agent.w - shift
        return A, B, np.eye(d, 2 * d), w
    if agent.kind is AgentKind.CONVEX_GRADIENT:
        if agent.rho is not None:
            return None
        quad = as_quadratic(agent.psi)
        if quad is None:
            return None
        P, q, _ = quad
        return agent.J - P, agent.B, agent.C, agent.w - q
    return None


def _pack_controller(ctrl: ControllerModel, d: int):
    """Affine form of one edge controller, or None when not packable.

    Returns (L, leak, mu0, eta0): mu = L eta + mu0 (L is None for a
    paper_psi potential, where mu = paper_psi(eta) + mu0) and
    eta' = zeta + eta0, minus eta when leak is set.
    """
    alpha, beta = ctrl.alpha, ctrl.beta
    if ctrl.kind is ControllerKind.LINEAR_SYNTHESIS:
        return np.eye(d), True, beta, -alpha - ctrl.offset
    if ctrl.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        pot = ctrl.potential
        if pot.kind is FunctionKind.SCALAR_SEPARABLE and pot.phi is paper_psi:
            return None, False, beta, -alpha
        quad = as_quadratic(pot)
        if quad is not None:
            return quad[0], False, quad[1] + beta, -alpha
    return None


def _coo(blocks):
    """COO arrays of the (row0, col0, dense block) placements, zeros dropped."""
    groups = {}
    for r0, c0, blk in blocks:
        groups.setdefault(blk.shape, []).append((r0, c0, blk))
    rows, cols, vals = [], [], []
    for (h, w), items in groups.items():
        vals_k = np.stack([b for _, _, b in items])
        r0 = np.array([r for r, _, _ in items])[:, None, None]
        c0 = np.array([c for _, c, _ in items])[:, None, None]
        rows.append(np.broadcast_to(r0 + np.arange(h)[:, None], vals_k.shape).ravel())
        cols.append(np.broadcast_to(c0 + np.arange(w), vals_k.shape).ravel())
        vals.append(vals_k.ravel())
    row, col, val = (np.concatenate(a) for a in (rows, cols, vals))
    keep = val != 0.0
    return row[keep], col[keep], val[keep]


def try_pack(op, agents, controllers) -> PackedSystem | None:
    """Fold the closed loop into sparse affine maps; None if any piece resists."""
    agents = list(agents)
    d = op.dim
    parts = [_pack_agent(a) for a in agents]
    if any(p is None for p in parts):
        return None
    cparts = [_pack_controller(c, d) for c in controllers]
    if any(c is None for c in cparts):
        return None

    ofs = np.cumsum([0] + [a.state_dim for a in agents])
    P = int(ofs[-1])
    m = len(cparts)
    dim = P + m * d
    psi_edges = [e for e, part in enumerate(cparts) if part[0] is None]
    psi_idx = (P + d * np.array(psi_edges, dtype=np.int64)[:, None] + np.arange(d)).ravel()
    psi_col = {e: dim + k * d for k, e in enumerate(psi_edges)}
    eye = np.eye(d)

    # signals: y_i = C_i x_i; mu_e = L_e eta_e (or paper_psi(eta_e)) + mu0_e
    sig = [(i * d, ofs[i], C) for i, (_, _, C, _) in enumerate(parts)]
    mu0 = np.zeros(m * d)
    c = np.zeros(dim)
    rhs = [(ofs[i], ofs[i], A) for i, (A, _, _, _) in enumerate(parts)]
    for e, (L, leak, mu0_e, eta0_e) in enumerate(cparts):
        r = P + e * d
        mu0[e * d:(e + 1) * d] = mu0_e
        c[r:r + d] = eta0_e
        if leak:
            rhs.append((r, r, -eye))
        if L is None:
            sig.append((op.node_size + e * d, psi_col[e], eye))
        else:
            sig.append((op.node_size + e * d, r, L))
        # u_i = -sum_e E[i, e] mu_e drives agent i; zeta_e = sum_i E[i, e] y_i
        for i, sign in zip(op.graph.edges[e], (-1.0, 1.0)):
            B, C = parts[i][1], parts[i][2]
            if L is None:
                rhs.append((ofs[i], psi_col[e], -sign * B))
            else:
                rhs.append((ofs[i], r, -sign * (B @ L)))
            rhs.append((r, ofs[i], sign * C))

    u0 = -(op.lifted @ mu0)
    for i, (agent, (_, B, _, w)) in enumerate(zip(agents, parts)):
        c[ofs[i]:ofs[i + 1]] = w + B @ (agent.leader_offset + u0[i * d:(i + 1) * d])

    row, col, w = _coo(rhs)
    const = np.flatnonzero(c)  # c goes last, on v's constant column
    row = np.concatenate((row, const))
    col = np.concatenate((col, np.full(const.shape[0], dim + psi_idx.shape[0])))
    w = np.concatenate((w, c[const]))
    sig_row, sig_col, sig_w = _coo(sig)
    return PackedSystem(dim=dim, psi_idx=psi_idx, row=row, col=col, w=w,
                        sig_row=sig_row, sig_col=sig_col, sig_w=sig_w,
                        sig_c=np.concatenate([np.zeros(op.node_size), mu0]),
                        E=op.lifted)


def packed_signals(packed: PackedSystem, states: np.ndarray):
    """(u, y, zeta, mu) arrays for recorded packed states (rows = samples)."""
    v = np.hstack([states, paper_psi(states[:, packed.psi_idx])])
    sig = np.tile(packed.sig_c, (v.shape[0], 1))
    np.add.at(sig, (slice(None), packed.sig_row), v[:, packed.sig_col] * packed.sig_w)
    ny = packed.E.shape[0]
    y, mu = sig[:, :ny], sig[:, ny:]
    return -(mu @ packed.E.T), y, y @ packed.E, mu
