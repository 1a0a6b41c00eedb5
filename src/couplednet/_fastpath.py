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
    components, the controllers' first, as no controller's output reads
    its input; it is empty when every piece folds into the maps.
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
    """Fill v's component columns at the state v[:dim]: the controllers'
    outputs, which read no input, the agents' at the inputs the signal
    rows then give, and every derivative at those the rows give after
    that."""
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


def _controller_parts(controllers, d: int):
    """Affine forms of the edge controllers, by groups of one kind and potential.

    Returns (code, L, leak, mu0, eta0): code[e] is 0 for a component, 1
    for a paper_psi integrator, where mu = paper_psi(eta) + mu0, and 2
    where mu = L[e] eta + mu0; eta' = zeta + eta0, minus eta where leak
    is set. mu0 and eta0 are (m, d) arrays.
    """
    m = len(controllers)
    code, leak = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=bool)
    L, mu0, eta0 = [None] * m, np.zeros((m, d)), np.zeros((m, d))
    groups = {}
    for e, ctrl in enumerate(controllers):  # an Enum hashes in Python; its id does not
        groups.setdefault((id(ctrl.kind), id(ctrl.potential)), []).append(e)
    for idx in groups.values():
        group = [controllers[e] for e in idx]
        kind = group[0].kind
        alpha, beta = np.array([c.alpha for c in group]), np.array([c.beta for c in group])
        if kind is ControllerKind.LINEAR_SYNTHESIS:
            code[idx], leak[idx] = 2, True
            L_e, mu0[idx], eta0[idx] = np.eye(d), beta, -alpha - np.array([c.offset for c in group])
        elif kind is ControllerKind.NONLINEAR_INTEGRATOR:
            pot = group[0].potential
            quad = as_quadratic(pot)
            if pot.kind is FunctionKind.SCALAR_SEPARABLE and pot.phi is paper_psi:
                code[idx], L_e, mu0[idx] = 1, None, beta
            elif quad is not None:
                code[idx], L_e, mu0[idx] = 2, quad[0], quad[1] + beta
            else:
                continue
            eta0[idx] = -alpha
        for e in idx:
            L[e] = L_e
    return code, L, leak, mu0, eta0


def _coo(batches):
    """COO arrays of blocks placed by batches (key, r0, c0, blocks).

    blocks is a (k, h, w) stack placed with its upper-left corners at
    (r0, c0). The blocks go by shape, the shapes in the order of their
    least key, and within a shape in key order; zeros are dropped.
    """
    shapes = {}
    for batch in batches:
        if len(batch[0]):
            shapes.setdefault(batch[3].shape[1:], []).append(batch)
    order = sorted(shapes, key=lambda shape: min(b[0].min() for b in shapes[shape]))
    rows, cols, vals = [], [], []
    for h, w in order:
        key, r0, c0, blk = (np.concatenate(part) for part in zip(*shapes[h, w]))
        perm = np.argsort(key, kind="stable")
        blk, r0, c0 = blk[perm], r0[perm, None, None], c0[perm, None, None]
        rows.append(np.broadcast_to(r0 + np.arange(h)[:, None], blk.shape).ravel())
        cols.append(np.broadcast_to(c0 + np.arange(w), blk.shape).ravel())
        vals.append(blk.ravel())
    row, col, val = (np.concatenate(a) for a in (rows, cols, vals))
    keep = val != 0.0
    return row[keep], col[keep], val[keep]


def _batch(key, r0, c0, blocks):
    """One _coo batch, its keys and corners as integer arrays."""
    return (*(np.asarray(x, dtype=np.int64).reshape(-1) for x in (key, r0, c0)), blocks)


def pack(op, agents, groups, controllers) -> PackedSystem:
    """Fold the closed loop into sparse affine maps, with component
    columns for the pieces they cannot hold: agents with a psi left in
    their form or with feedthrough T != 0, and integrators whose potential
    is neither quadratic nor paper_psi. groups are the agents'
    agent_groups, and the maps are filled a group of blocks at a time."""
    agents, controllers = list(agents), list(controllers)
    d, n, m = op.dim, len(agents), len(controllers)
    code, L, leak, mu0, eta0 = _controller_parts(controllers, d)
    ofs = np.cumsum([0] + [a.state_dim for a in agents] + [c.state_dim for c in controllers])
    dim = int(ofs[-1])
    psi_edges = np.flatnonzero(code == 1)
    psi_idx = (ofs[n + psi_edges][:, None] + np.arange(d)).ravel()
    psi_col = np.zeros(m, dtype=np.int64)
    psi_col[psi_edges] = dim + d * np.arange(psi_edges.size)
    tail, head = np.array(op.graph.edges, dtype=np.int64).reshape(m, 2).T
    r = ofs[n:n + m]
    sizes = np.array([a.state_dim for a in agents])
    eye = np.eye(d)

    # an agent with no psi left and T = 0 folds in whole: x' = A x + B u + w,
    # y = C x; B[size] and C[size] hold those of the agents with size states,
    # by node
    packed = np.zeros(n, dtype=bool)
    forms = [None] * n  # each component agent's agent_form
    B, C = {}, {}
    rhs, sig = [], []  # _coo batches
    # keys follow the order of placement: components, agents, then edge by edge
    k_agent, k_edge = n + m, 2 * n + m
    c = np.zeros(dim)
    for idx, A_g, B_g, C_g, T_g, w_g, psi_g, where in groups:
        fold = np.array([psi is None for psi in psi_g]) & ~T_g.reshape(len(idx), -1).any(axis=1)
        for j in np.flatnonzero(~fold):
            forms[idx[j]] = (A_g[j], B_g[j], C_g[j], T_g[j], w_g[j], psi_g[j], where)
        sel = np.asarray(idx)[fold]
        if sel.size:
            packed[sel] = True
            size = A_g.shape[1]
            B.setdefault(size, np.zeros((n, size, d)))[sel] = B_g[fold]
            C.setdefault(size, np.zeros((n, d, size)))[sel] = C_g[fold]
            rhs.append(_batch(k_agent + sel, ofs[sel], ofs[sel], A_g[fold]))
            sig.append(_batch(k_agent + sel, sel * d, ofs[sel], C_g[fold]))

    # each component's columns [state derivative ; output] follow paper_psi's,
    # and its state and signal rows read them; agent k's input u_k and
    # controller k - n's zeta sit at [u ; zeta][k*d:(k+1)*d]
    comps = {}
    one = dim + psi_idx.shape[0]  # v's constant column follows them
    for k, model in enumerate(agents + controllers):
        if (k < n and packed[k]) or (k >= n and code[k - n]):
            continue
        size = model.state_dim
        if k < n:
            fns = (partial(plants.rhs, model, form=forms[k]),
                   partial(plants.output, model, form=forms[k]))
        else:
            fns = partial(controller_rhs, model), partial(controller_output, model)
        out = one + size
        comps[k] = Component(slice(int(ofs[k]), int(ofs[k + 1])), slice(k * d, (k + 1) * d),
                             slice(one, out), slice(out, out + d), *fns)
        sig.append(_batch(k, k * d, out, eye[None]))
        rhs.append(_batch(k, ofs[k], one, np.eye(size)[None]))
        one = out + d
    sides = ()
    if comps:
        sides = (tuple(comp for k, comp in comps.items() if k >= n),
                 tuple(comp for k, comp in comps.items() if k < n))

    # mu_e = L_e eta_e (or paper_psi(eta_e)) + mu0_e; eta_e' = zeta_e + eta0_e (- eta_e)
    on = np.flatnonzero(code > 0)
    c[(r[on][:, None] + np.arange(d)).ravel()] = eta0[on].ravel()
    leaky = np.flatnonzero(leak)
    rhs.append(_batch(k_edge + 5 * leaky, r[leaky], r[leaky],
                      np.broadcast_to(-eye, (leaky.size, d, d))))
    sig.append(_batch(k_edge + psi_edges, op.node_size + psi_edges * d, psi_col[psi_edges],
                      np.broadcast_to(eye, (psi_edges.size, d, d))))
    lin = np.flatnonzero(code == 2)
    sig.append(_batch(k_edge + lin, op.node_size + lin * d, r[lin],
                      np.array([L[e] for e in lin]).reshape(-1, d, d)))
    # u_i = -sum_e E[i, e] mu_e drives agent i; zeta_e = sum_i E[i, e] y_i
    for slot, ends, sign in ((1, tail, -1.0), (3, head, 1.0)):
        key = k_edge + 5 * np.arange(m) + slot
        fold = packed[ends]
        for e in np.flatnonzero((code == 0) & fold):
            rhs.append(_batch(key[e], ofs[ends[e]], comps[n + e].out.start,
                              (-sign * B[sizes[ends[e]]][ends[e]])[None]))
        for e in np.flatnonzero((code > 0) & ~fold):
            rhs.append(_batch(key[e], r[e], comps[ends[e]].out.start, (sign * eye)[None]))
        for size in B:  # one stack per shape of B and C
            at = fold & (sizes[ends] == size)
            psi = np.flatnonzero((code == 1) & at)
            rhs.append(_batch(key[psi], ofs[ends[psi]], psi_col[psi], -sign * B[size][ends[psi]]))
            both = np.flatnonzero((code > 0) & at)
            rhs.append(_batch(key[both] + 1, r[both], ofs[ends[both]], sign * C[size][ends[both]]))
        for e in np.flatnonzero((code == 2) & fold):
            rhs.append(_batch(key[e], ofs[ends[e]], r[e],
                              (-sign * (B[sizes[ends[e]]][ends[e]] @ L[e]))[None]))

    u0 = -op.matvec(mu0.ravel()).reshape(n, d)
    for idx, A_g, B_g, C_g, T_g, w_g, psi_g, where in groups:
        sel = packed[idx]
        if sel.any():
            rows = np.asarray(idx)[sel]
            lead = np.array([agents[i].leader_offset for i in rows])
            drive = (B_g[sel] @ (lead + u0[rows])[:, :, None])[:, :, 0]
            c[(ofs[rows][:, None] + np.arange(A_g.shape[1])).ravel()] = (w_g[sel] + drive).ravel()

    row, col, w = _coo(rhs)
    const = np.flatnonzero(c)  # c goes last
    row = np.concatenate((row, const))
    col = np.concatenate((col, np.full(const.shape[0], one)))
    w = np.concatenate((w, c[const]))
    sig_row, sig_col, sig_w = _coo(sig)
    mu0 = mu0.ravel()
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
