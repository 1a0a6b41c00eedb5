"""Packed closed-loop integration kernels.

Every closed loop folds into one sparse affine map of the stacked state s
(agents, then controllers) and the columns its pieces need:

    s' = W [s ; paper_psi(s[psi_idx]) ; component columns ; 1]

Affine agents and linear-synthesis or integrator controllers with
quadratic or paper_psi potentials fold in whole: W carries their blocks
A, B, C, the controllers' affine parts, the reconfiguration offsets and
the wiring zeta = E^T y, u = -E mu; its last column, on the constant 1,
is the affine term c. Every other agent or controller is a component
with its own columns, [x' ; y] or [eta' ; mu], which its single-component
evaluators fill before W is applied. W is stored as a COO triple, so one
rhs call is a gather, a multiply and a bincount. The adaptive loop is
Dormand-Prince 5(4) with the FSAL property and its continuous extension
for recording (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import plants
from .couplers import (
    ControllerKind,
    ControllerModel,
    controller_output,
    controller_rhs,
    paper_psi,
    paper_psi_into,
)
from .errors import NonFiniteState, StepUnderflow
from .netgraph import IncidenceOperator
from .relations import FunctionKind, as_quadratic


# Values per block when recorded trajectories are post-processed: signals,
# convergence scans and CSV rows go a few records at a time, so no stage
# holds a whole-trajectory temporary (2**14 float64 values are 128 KB).
BLOCK_VALUES = 1 << 14


@dataclass(frozen=True)
class Component:
    """An agent or controller filling its columns deriv and out of v with
    rhs and output of (its state s[state], its input [u ; zeta][io])."""

    state: slice
    io: slice
    deriv: slice
    out: slice
    rhs: Callable
    output: Callable


@dataclass(frozen=True)
class PackedSystem:
    """Closed loop folded into sparse affine maps of
    v = [s ; paper_psi(s[psi_idx]) ; component columns ; 1], whose
    paper_psi values sit at v[psi_cols] and whose length is width.

    (row, col, w) give the state derivative, the affine term c as the
    entries on v's last, constant column, placed after all others;
    (sig_row, sig_col, sig_w) give the stacked signals [y ; mu], their
    constant entries placed before all others; op is the incidence
    operator that turns them into zeta and u. sides holds the
    components, the side whose outputs read no input first; it is empty
    when every piece folds into the maps.
    """

    dim: int
    psi_idx: np.ndarray
    row: np.ndarray
    col: np.ndarray
    w: np.ndarray
    sig_row: np.ndarray
    sig_col: np.ndarray
    sig_w: np.ndarray
    op: IncidenceOperator
    psi_cols: slice
    width: int
    sides: tuple


def rhs_buffer(pk):
    """Work vector v for _packed_rhs: component columns 0, the last entry 1."""
    v = np.zeros(pk.width)
    v[-1] = 1.0
    return v


def _packed_rhs(s, pk, v):
    """State derivative at s: the folded map applied to v, filled here.

    v is a buffer from rhs_buffer(pk), reusable across calls. bincount
    adds each row's products in COO order, so c, stored last, is added
    after the sum, bit for bit as a trailing `+ c` would. No errstate is
    entered: paper_psi underflows harmlessly beyond |eta| of about 708,
    and the integration loops below enter np.errstate(under="ignore")
    once around all their calls.
    """
    dim = pk.dim
    v[:dim] = s
    paper_psi_into(s[pk.psi_idx], v[pk.psi_cols])
    if pk.sides:
        _fill(pk, v)
    p = v[pk.col]
    np.multiply(p, pk.w, p)
    return np.bincount(pk.row, p, minlength=dim)


def _fill(pk, v):
    """Fill v's component columns at the state v[:dim]: the first side's
    outputs at zero input, the other side's at the inputs the signal rows
    then give, and every derivative at those the rows give after that."""
    op, s = pk.op, v[:pk.dim]
    n = op.node_size
    inputs = np.zeros(n + op.edge_size)
    for side in pk.sides:
        for c in side:
            v[c.out] = c.output(s[c.state], inputs[c.io])
        sig = np.bincount(pk.sig_row, v[pk.sig_col] * pk.sig_w, n + op.edge_size)
        inputs = np.concatenate((-op.matvec(sig[n:]), op.rmatvec(sig[:n])))
    for side in pk.sides:
        for c in side:
            v[c.deriv] = c.rhs(s[c.state], inputs[c.io])


@dataclass(frozen=True)
class StepStats:
    """Work done by one integration of _rk45_loop.

    nfev counts rhs evaluations, accepted counts the steps that advanced
    time, rejected the steps retried after an error above tolerance, and
    h_min is the smallest accepted step.
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
    # the records at t0 hold s0
    idx = int(np.searchsorted(rec_times, t + 1e-12 * (1.0 + abs(t)), side="right"))
    out[:idx] = s
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


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _pack_agent(form):
    """(A, B, C, w) of an agent_form with no psi left and T = 0, else None."""
    if plants.form_has_feedthrough(form) or form[5] is not None:
        return None
    return form[0], form[1], form[2], form[4]


def _pack_controller(ctrl: ControllerModel, d: int):
    """Affine form of one edge controller, or None when it is a component.

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


def pack(op, agents, forms, controllers) -> PackedSystem:
    """Fold the closed loop, forms being the agents' agent_forms, into
    sparse affine maps, with component columns for the pieces they
    cannot hold. No agent and controller may both have feedthrough."""
    agents, controllers = list(agents), list(controllers)
    d, n = op.dim, len(agents)
    parts = [_pack_agent(f) for f in forms]
    cparts = [_pack_controller(c, d) for c in controllers]
    ofs = np.cumsum([0] + [a.state_dim for a in agents] + [c.state_dim for c in controllers])
    dim = int(ofs[-1])
    psi_edges = np.array([e for e, part in enumerate(cparts)
                          if part is not None and part[0] is None], dtype=np.int64)
    psi_idx = (ofs[n + psi_edges][:, None] + np.arange(d)).ravel()
    psi_col = {e: dim + k * d for k, e in enumerate(psi_edges.tolist())}
    eye = np.eye(d)

    # each component's columns [state derivative ; output] follow paper_psi's,
    # and its state and signal rows read them; agent k's input u_k and
    # controller k - n's zeta sit at [u ; zeta][k*d:(k+1)*d]
    comps, sig, rhs = {}, [], []
    one = dim + psi_idx.shape[0]  # v's constant column follows them
    for k, (model, part) in enumerate(zip(agents + controllers, parts + cparts)):
        if part is None:
            size = model.state_dim
            if k < n:
                fns = (partial(plants.rhs, model, form=forms[k]),
                       partial(plants.output, model, form=forms[k]))
            else:
                fns = partial(controller_rhs, model), partial(controller_output, model)
            out = one + size
            comps[k] = Component(slice(int(ofs[k]), int(ofs[k + 1])), slice(k * d, (k + 1) * d),
                                 slice(one, out), slice(out, out + d), *fns)
            sig.append((k * d, out, eye))
            rhs.append((ofs[k], one, np.eye(size)))
            one = out + d
    sides = ()
    if comps:
        sides = (tuple(c for k, c in comps.items() if k < n),
                 tuple(c for k, c in comps.items() if k >= n))
        if any(plants.form_has_feedthrough(f) for f in forms):
            sides = sides[::-1]

    # signals: y_i = C_i x_i; mu_e = L_e eta_e (or paper_psi(eta_e)) + mu0_e
    sig += [(i * d, ofs[i], part[2]) for i, part in enumerate(parts) if part is not None]
    rhs += [(ofs[i], ofs[i], part[0]) for i, part in enumerate(parts) if part is not None]
    m = len(cparts)
    mu0 = np.zeros(m * d)
    c = np.zeros(dim)
    for e, cpart in enumerate(cparts):
        r = ofs[n + e]
        ends = zip(op.graph.edges[e], (-1.0, 1.0))
        if cpart is None:
            for i, sign in ends:
                if parts[i] is not None:
                    rhs.append((ofs[i], comps[n + e].out.start, -sign * parts[i][1]))
            continue
        L, leak, mu0_e, eta0_e = cpart
        mu0[e * d:(e + 1) * d] = mu0_e
        c[r:r + d] = eta0_e
        if leak:
            rhs.append((r, r, -eye))
        if L is None:
            sig.append((op.node_size + e * d, psi_col[e], eye))
        else:
            sig.append((op.node_size + e * d, r, L))
        # u_i = -sum_e E[i, e] mu_e drives agent i; zeta_e = sum_i E[i, e] y_i
        for i, sign in ends:
            if parts[i] is None:
                rhs.append((r, comps[i].out.start, sign * eye))
                continue
            B, C = parts[i][1], parts[i][2]
            if L is None:
                rhs.append((ofs[i], psi_col[e], -sign * B))
            else:
                rhs.append((ofs[i], r, -sign * (B @ L)))
            rhs.append((r, ofs[i], sign * C))

    u0 = -op.matvec(mu0)
    for i, (agent, part) in enumerate(zip(agents, parts)):
        if part is not None:
            B, w = part[1], part[3]
            c[ofs[i]:ofs[i + 1]] = w + B @ (agent.leader_offset + u0[i * d:(i + 1) * d])

    row, col, w = _coo(rhs)
    const = np.flatnonzero(c)  # c goes last
    row = np.concatenate((row, const))
    col = np.concatenate((col, np.full(const.shape[0], one)))
    w = np.concatenate((w, c[const]))
    sig_row, sig_col, sig_w = _coo(sig)
    const = np.flatnonzero(mu0)  # mu0 goes first: each signal adds its products onto it
    sig_row = np.concatenate((op.node_size + const, sig_row))
    sig_col = np.concatenate((np.full(const.shape[0], one), sig_col))
    sig_w = np.concatenate((mu0[const], sig_w))
    return PackedSystem(dim=dim, psi_idx=psi_idx, row=row, col=col, w=w,
                        sig_row=sig_row, sig_col=sig_col, sig_w=sig_w, op=op,
                        psi_cols=slice(dim, dim + psi_idx.shape[0]), width=one + 1,
                        sides=sides)


def block_rows(width: int) -> int:
    """Records per block when each record holds width values: at least one."""
    return max(1, BLOCK_VALUES // max(width, 1))


def packed_signals(packed: PackedSystem, states: np.ndarray):
    """(u, y, zeta, mu) arrays for recorded packed states (rows = samples).

    The records go in blocks of block_rows records. In a block, v is
    filled for every record (component columns one record at a time),
    then each of [y ; mu] and E mu is one bincount whose bins are
    (record, coordinate) pairs; zeta = E'y and u = -E mu come from the
    operator's lifted tail and head indices, as its rmatvec and matvec
    compute them. The bin indices are built once for a full block, and
    the last block takes their leading records. Each bin sums its
    entries in COO order, as one bincount over all records would, so the
    outputs are the same bits.
    """
    op = packed.op
    records = states.shape[0]
    n, m = op.node_size, op.edge_size
    nnz = packed.sig_row.shape[0]
    # sized by the widest per-record temporary: v, the signal products or E mu's bins
    rows = block_rows(max(packed.width, nnz, m))
    rec = np.arange(min(rows, records))[:, None]
    sig_bins = (rec * (n + m) + packed.sig_row).ravel()
    head_bins = (rec * n + op.head).ravel()
    tail_bins = (rec * n + op.tail).ravel()
    tail = np.zeros((rec.shape[0], packed.width - packed.psi_cols.stop))  # components, then 1
    tail[:, -1] = 1.0
    u, y, zeta, mu = (np.empty((records, k)) for k in (n, n, m, m))
    for lo in range(0, records, rows):
        hi = min(lo + rows, records)
        b = hi - lo
        v = np.hstack([states[lo:hi], paper_psi(states[lo:hi, packed.psi_idx]), tail[:b]])
        if packed.sides:
            for vr in v:
                _fill(packed, vr)
        p = v[:, packed.sig_col]
        np.multiply(p, packed.sig_w, p)
        sig = np.bincount(sig_bins[:b * nnz], p.ravel(), b * (n + m)).reshape(b, n + m)
        y[lo:hi], mu[lo:hi] = sig[:, :n], sig[:, n:]
        flat_mu = mu[lo:hi].ravel()
        E_mu = (np.bincount(head_bins[:b * m], flat_mu, b * n)
                - np.bincount(tail_bins[:b * m], flat_mu, b * n))
        u[lo:hi] = -E_mu.reshape(b, n)
        np.subtract(y[lo:hi, op.head], y[lo:hi, op.tail], zeta[lo:hi])
    return u, y, zeta, mu
