"""Packed closed-loop integration kernels.

Every closed loop the config can describe folds into one sparse affine
map of the stacked state s (agents, then controllers) and the paper_psi
values its pieces need:

    s' = W [s ; paper_psi(s[psi_idx]) ; 1]

W carries the agents' blocks A, B, C and feedthrough T, the controllers'
affine parts, the reconfiguration offsets and the wiring zeta = E^T y,
u = -E mu; its last column, on the constant 1, is the affine term c.
paper_psi enters as the output of a paper_psi integrator and as the
damping or potential gradient of an agent whose psi is paper_psi
coordinatewise. No controller output reads its input, so an agent's
y = C x + T (u + z) with u = -E mu is affine in those columns, and so
is zeta. W is a COO triple, and also dense up to DENSE_MAX entries: one
rhs call is a np.dot, else a gather, a multiply and a bincount. The
adaptive loop is Dormand-Prince 5(4) with the FSAL property and its
continuous extension for recording (Hairer, Norsett & Wanner, Solving
ODEs I, II.5-II.6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplers import ControllerKind
from .errors import NonFiniteState, StepUnderflow, UnsupportedKind
from .netgraph import IncidenceOperator
from .relations import FunctionKind, as_quadratic, paper_psi, paper_psi_into, paper_psi_prime


# Values per block when recorded trajectories are post-processed: signals,
# convergence scans and CSV rows go a few records at a time, so no stage
# holds a whole-trajectory temporary (2**14 float64 values are 128 KB).
BLOCK_VALUES = 1 << 14
# W is kept dense up to this many entries (64 KB), below which one np.dot costs
# less than a bincount (benchmarks/bench_integrate.py --nodes times both)
DENSE_MAX = 8192


@dataclass(frozen=True)
class PackedSystem:
    """Closed loop folded into sparse affine maps of
    v = [s ; paper_psi(s[psi_idx]) ; 1], whose paper_psi values sit at
    v[psi_cols] and whose length is width. psi_src reads s[psi_idx] off
    v: a slice where psi_idx is one contiguous range, else psi_idx.

    (row, col, w) give the state derivative, the affine term c as the
    entries on v's last, constant column, placed after all others;
    dense is the same map as a (dim, width) array, or None above DENSE_MAX;
    (sig_row, sig_col, sig_w) give the stacked signals [y ; mu], their
    constant entries placed before all others; op is the incidence
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
    op: IncidenceOperator
    psi_cols: slice
    width: int
    psi_src: slice | np.ndarray
    dense: np.ndarray | None


def _dense_w(row, col, w, dim, width):
    """The COO triple (row, col, w) as a dense (dim, width) array."""
    W = np.zeros((dim, width))
    np.add.at(W, (row, col), w)
    return W


def rhs_buffer(pk):
    """Work vector v for _packed_rhs, its last entry 1."""
    v = np.zeros(pk.width)
    v[-1] = 1.0
    return v


def _packed_rhs(v, pk, out):
    """State derivative at s = v[:dim], written into out and returned.

    v is a buffer from rhs_buffer(pk) holding s; paper_psi reads its
    input off v, a view where psi_src is a slice, fills v's paper_psi
    columns and leaves s intact. A dense W sums each row in BLAS order;
    else bincount adds each row's products in COO order, so c, stored
    last, is added after the sum, bit for bit as a trailing `+ c` would.
    No errstate is entered: paper_psi_into's flags near eta = 0 stand
    for exact values (see there), and the integration loop below enters
    np.errstate once around all its calls.
    """
    paper_psi_into(v[pk.psi_src], v[pk.psi_cols])
    if pk.dense is not None:
        return np.dot(pk.dense, v, out)
    out[:] = np.bincount(pk.row, v[pk.col] * pk.w, pk.dim)
    return out


def packed_jacobian(pk, s):
    """Dense Jacobian of the packed map at s: W's state columns, plus its
    paper_psi columns times paper_psi' at s[psi_idx] on the states they read."""
    W = pk.dense if pk.dense is not None else _dense_w(pk.row, pk.col, pk.w, pk.dim, pk.width)
    J = W[:, :pk.dim].copy()
    np.add.at(J.T, pk.psi_idx, (W[:, pk.psi_cols] * paper_psi_prime(s[pk.psi_idx])).T)
    return J


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


def _rk45_loop(rhs, buffer, pk, s0, t0, rec_times, tol, h0, settled=None):
    """Adaptive Dormand-Prince 5(4) recording the state at each rec_times entry.

    rhs(v, pk, out) writes the derivative at v[:dim] into out, and
    buffer(pk) makes a v: the state, the 5th-order state and the stages
    are each built in place in one v[:dim]. tol bounds the local error,
    relative and absolute. Records inside a step come from the 4th-order continuous
    extension; the last step lands exactly on rec_times[-1]. Returns
    (states, StepStats).
    settled(out, k), if given, is called after each step that records, with
    out's first k records filled; once True, the loop ends with those k.
    np.errstate(all="ignore") is entered once here, around every rhs
    call, so the packed kernel's paper_psi stays quiet under a caller's
    raising errstate, and a state that leaves the float range reaches
    the finite check below instead of a numpy warning. Stages, the
    5th-order state and the error norm are computed into preallocated
    buffers by the same operations, in the same order, as the plain
    `s + hdp[i, :i] @ K[:i]`, so they agree with it bit for bit.

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
    s_buf, s5_buf, stage_buf = buffer(pk), buffer(pk), buffer(pk)
    s, s5, stage = s_buf[:dim], s5_buf[:dim], stage_buf[:dim]
    s[:] = s0
    t = float(t0)
    # the records at t0 hold s0
    idx = int(np.searchsorted(rec_times, t + 1e-12 * (1.0 + abs(t)), side="right"))
    out[:idx] = s
    t_end = float(rec_times[-1]) if nrec else t
    K = np.empty((7, dim))
    hdp = np.empty_like(_DP)  # h * _DP, refilled each step
    stages = [(hdp[i, :i], K[:i], K[i]) for i in range(1, 6)]
    b5, K5 = hdp[6, :6], K[:6]
    abs_s5, scale, q = (np.empty(dim) for _ in range(3))
    nfev, accepted, rejected, h_min = 1, 0, 0, math.inf
    h = h0
    with np.errstate(all="ignore"):
        rhs(s_buf, pk, K[0])
        abs_s = np.abs(s)
        while t < t_end:
            if h < 1e-13 * (1.0 + abs(t)):
                raise StepUnderflow("adaptive step size underflow")
            last = t + h >= t_end - 1e-14 * (1.0 + abs(t_end))
            h_use = t_end - t if last else h
            np.multiply(_DP, h_use, hdp)
            for a, k, k_out in stages:
                np.dot(a, k, stage)
                np.add(s, stage, stage)
                rhs(stage_buf, pk, k_out)
            np.dot(b5, K5, s5)
            np.add(s, s5, s5)
            rhs(s5_buf, pk, K[6])
            nfev += 6
            np.abs(s5, abs_s5)
            np.maximum(abs_s, abs_s5, out=scale)
            np.multiply(scale, tol, scale)
            np.add(scale, tol, scale)
            np.dot(hdp[7], K, q)
            np.divide(q, scale, q)
            errn = math.sqrt(np.dot(q, q) / dim)
            if not math.isfinite(errn):
                raise NonFiniteState("state became non-finite during integration")
            if errn <= 1.0:
                t_new = t_end if last else t + h_use
                wrote = idx < nrec and rec_times[idx] <= t_new
                if wrote:
                    stop = int(np.searchsorted(rec_times, t_new, side="right"))
                    theta = (rec_times[idx:stop] - t) / h_use
                    weights = (theta[:, None] ** np.arange(1, 5)) @ _DP_P.T
                    out[idx:stop] = s + h_use * (weights @ K)
                    idx = stop
                if last:
                    out[-1] = s5
                if wrote and settled is not None and settled(out, idx):
                    t_end = t_new  # ends the loop after this step's bookkeeping
                accepted += 1
                h_min = min(h_min, h_use)
                t = t_new
                s, s5, s_buf, s5_buf = s5, s, s5_buf, s_buf
                abs_s, abs_s5 = abs_s5, abs_s
                K[0] = K[6]
            else:
                rejected += 1
            factor = 5.0 if errn == 0.0 else min(5.0, max(0.2, 0.9 * errn ** -0.2))
            h = h_use * factor
    return out[:idx], StepStats(nfev, accepted, rejected, h_min)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _controller_parts(controllers, d: int):
    """Affine forms of the edge controllers, by groups of one kind and potential.

    Returns (code, L, leak, mu0, eta0): code[e] is 1 for a paper_psi
    integrator, where mu = paper_psi(eta) + mu0 and L[e] = I, and 2
    where mu = L[e] eta + mu0; eta' = zeta + eta0, minus eta where leak
    is set. L is an (m, d, d) array, mu0 and eta0 are (m, d) arrays.

    Raises UnsupportedKind, naming the group's first member, for an
    integrator whose potential is neither quadratic nor paper_psi.
    """
    m = len(controllers)
    code, leak = np.zeros(m, dtype=np.intp), np.zeros(m, dtype=bool)
    L, mu0, eta0 = np.empty((m, d, d)), np.zeros((m, d)), np.zeros((m, d))
    groups = {}
    for e, ctrl in enumerate(controllers):  # an Enum hashes in Python; its id does not
        groups.setdefault((id(ctrl.kind), id(ctrl.potential)), []).append(e)
    for idx in groups.values():
        group = [controllers[e] for e in idx]
        kind = group[0].kind
        alpha, beta = np.array([c.alpha for c in group]), np.array([c.beta for c in group])
        if kind is ControllerKind.LINEAR_SYNTHESIS:
            code[idx], leak[idx] = 2, True
            L[idx], mu0[idx], eta0[idx] = np.eye(d), beta, -alpha - np.array([c.offset for c in group])
        else:
            pot = group[0].potential
            quad = as_quadratic(pot)
            if pot.kind is FunctionKind.SCALAR_SEPARABLE:  # paper_psi, unshifted
                code[idx], L[idx], mu0[idx] = 1, np.eye(d), beta
            elif quad is not None:
                code[idx], L[idx], mu0[idx] = 2, quad[0], quad[1] + beta
            else:
                raise UnsupportedKind(f"controllers[{idx[0]}].potential: neither quadratic nor "
                                      "paper_psi, which no config builds")
            eta0[idx] = -alpha
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
    """Fold the closed loop into sparse affine maps. groups are the
    agents' agent_groups, and the maps are filled a group of blocks at
    a time.

    Raises
    ------
    UnsupportedKind
        An agent's psi left in its form or an integrator's potential is
        neither quadratic nor paper_psi, which no config builds; the
        message names the member, as agents[i].psi: or
        controllers[e].potential:.
    """
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

    # x' = A x + B u_eff + w - paper_psi(x[where]), y = C x + T u_eff; B[size]
    # and C[size] hold those of the agents with size states, by node
    B, C, T = {}, {}, np.zeros((n, d, d))
    psi_agents = []  # (node, the states its paper_psi acts on), in group order
    rhs, sig = [], []  # _coo batches
    # keys follow the order of placement: agents, then edge by edge
    k_edge = n
    c = np.zeros(dim)
    for idx, A_g, B_g, C_g, T_g, w_g, psi_g, where in groups:
        idx = np.asarray(idx)
        size = A_g.shape[1]
        B.setdefault(size, np.zeros((n, size, d)))[idx] = B_g
        C.setdefault(size, np.zeros((n, d, size)))[idx] = C_g
        T[idx] = T_g
        rhs.append(_batch(idx, ofs[idx], ofs[idx], A_g))
        sig.append(_batch(idx, idx * d, ofs[idx], C_g))
        for j in np.flatnonzero([psi is not None for psi in psi_g]):
            if psi_g[j].kind is not FunctionKind.SCALAR_SEPARABLE:
                raise UnsupportedKind(f"agents[{idx[j]}].psi: neither quadratic nor paper_psi, "
                                      "which no config builds")
            psi_agents.append((idx[j], np.arange(size)[where]))

    # an agent's paper_psi columns follow the controllers', its states' rows read them
    first, parts = dim + psi_idx.shape[0], [psi_idx]
    for i, at in psi_agents:
        parts.append(ofs[i] + at)
        rhs.append(_batch(i, ofs[i] + at[0], first, -np.eye(at.size)[None]))
        first += at.size
    psi_idx = np.concatenate(parts)
    one = dim + psi_idx.shape[0]  # v's constant column follows them

    # mu_e = L_e eta_e (or paper_psi(eta_e)) + mu0_e; eta_e' = zeta_e + eta0_e (- eta_e)
    c[(r[:, None] + np.arange(d)).ravel()] = eta0.ravel()
    leaky = np.flatnonzero(leak)
    rhs.append(_batch(k_edge + 5 * leaky, r[leaky], r[leaky],
                      np.broadcast_to(-eye, (leaky.size, d, d))))
    sig.append(_batch(k_edge + psi_edges, op.node_size + psi_edges * d, psi_col[psi_edges],
                      np.broadcast_to(eye, (psi_edges.size, d, d))))
    lin = np.flatnonzero(code == 2)
    sig.append(_batch(k_edge + lin, op.node_size + lin * d, r[lin], L[lin]))
    # u_i = -sum_e E[i, e] mu_e drives agent i; zeta_e = sum_i E[i, e] y_i
    for slot, ends, sign in ((1, tail, -1.0), (3, head, 1.0)):
        key = k_edge + 5 * np.arange(m) + slot
        for size in B:  # one stack per shape of B and C
            at = sizes[ends] == size
            psi = np.flatnonzero((code == 1) & at)
            rhs.append(_batch(key[psi], ofs[ends[psi]], psi_col[psi], -sign * B[size][ends[psi]]))
            both = np.flatnonzero(at)
            rhs.append(_batch(key[both] + 1, r[both], ofs[ends[both]], sign * C[size][ends[both]]))
        for e in lin:
            rhs.append(_batch(key[e], ofs[ends[e]], r[e],
                              (-sign * (B[sizes[ends[e]]][ends[e]] @ L[e]))[None]))

    u0 = -op.matvec(mu0.ravel()).reshape(n, d)
    u_eff = np.array([a.leader_offset for a in agents]).reshape(n, d) + u0  # at mu = mu0
    for idx, A_g, B_g, C_g, T_g, w_g, psi_g, where in groups:
        drive = (B_g @ u_eff[idx][:, :, None])[:, :, 0]
        c[(ofs[idx][:, None] + np.arange(A_g.shape[1])).ravel()] = (w_g + drive).ravel()

    # feedthrough: y_i = C_i x_i + T_i u_eff_i - sum_f E[i, f] T_i L_f (eta_f or
    # paper_psi(eta_f)), and zeta_e takes E[i, e] times each of those terms
    y0 = np.zeros((n, d))  # T_i u_eff_i, y's constant
    # edge end k joins edge end_edge[k] to node end_node[k], with E = end_sign[k] there
    end_node, end_edge = np.concatenate((tail, head)), np.tile(np.arange(m), 2)
    end_sign = np.repeat([-1.0, 1.0], m)
    by_node = np.argsort(end_node, kind="stable")
    start = np.searchsorted(end_node[by_node], np.arange(n + 1))
    mu_col = np.where(code == 1, psi_col, r)  # the first column mu_f reads
    for i in np.flatnonzero(T.reshape(n, -1).any(axis=1)):
        at = by_node[start[i]:start[i + 1]]
        f, s_f = end_edge[at], end_sign[at]
        blocks = -s_f[:, None, None] * (T[i] @ L[f])
        sig.append(_batch(np.full(f.size, i), np.full(f.size, i * d), mu_col[f], blocks))
        rhs.append(_batch(np.full(f.size ** 2, i), np.repeat(r[f], f.size),
                          np.tile(mu_col[f], f.size),
                          (s_f[:, None, None, None] * blocks).reshape(-1, d, d)))
        y0[i] = T[i] @ u_eff[i]
        c[(r[f][:, None] + np.arange(d)).ravel()] += (s_f[:, None] * y0[i]).ravel()

    row, col, w = _coo(rhs)
    const = np.flatnonzero(c)  # c goes last
    row = np.concatenate((row, const))
    col = np.concatenate((col, np.full(const.shape[0], one)))
    w = np.concatenate((w, c[const]))
    sig_row, sig_col, sig_w = _coo(sig)
    sig0 = np.concatenate((y0.ravel(), mu0.ravel()))
    const = np.flatnonzero(sig0)  # y's and mu's constants go first: each signal adds onto them
    sig_row = np.concatenate((const, sig_row))
    sig_col = np.concatenate((np.full(const.shape[0], one), sig_col))
    sig_w = np.concatenate((sig0[const], sig_w))
    lo = int(psi_idx[0]) if psi_idx.size else 0  # psi_idx is one range when it is lo, ..., hi - 1
    hi = lo + psi_idx.shape[0]
    one_range = np.array_equal(psi_idx, np.arange(lo, hi))
    return PackedSystem(dim=dim, psi_idx=psi_idx, row=row, col=col, w=w,
                        sig_row=sig_row, sig_col=sig_col, sig_w=sig_w, op=op,
                        psi_cols=slice(dim, one), width=one + 1,
                        psi_src=slice(lo, hi) if one_range else psi_idx,
                        dense=_dense_w(row, col, w, dim, one + 1)
                        if dim * (one + 1) <= DENSE_MAX else None)


def block_rows(width: int) -> int:
    """Records per block when each record holds width values: at least one."""
    return max(1, BLOCK_VALUES // max(width, 1))


def _signal_rows(packed: PackedSystem) -> int:
    """Records per block of packed_outputs and packed_signals, sized by
    the widest per-record temporary of either: v, the signal products or
    E mu's bins."""
    return block_rows(max(packed.width, packed.sig_row.shape[0], packed.op.edge_size))


def packed_outputs(packed: PackedSystem, states: np.ndarray):
    """(y, mu) arrays for recorded packed states (rows = samples).

    The records go in blocks of _signal_rows records. In a block, v is
    filled for every record, then [y ; mu] is one bincount whose bins
    are (record, coordinate) pairs. The bin indices are built once for a
    full block, and the last block takes their leading records. Each bin
    sums its entries in COO order, as one bincount over all records
    would, so the outputs are the same bits.
    """
    records = states.shape[0]
    n, m = packed.op.node_size, packed.op.edge_size
    nnz = packed.sig_row.shape[0]
    rows = _signal_rows(packed)
    rec = np.arange(min(rows, records))[:, None]
    sig_bins = (rec * (n + m) + packed.sig_row).ravel()
    ones = np.ones((rec.shape[0], 1))
    y, mu = np.empty((records, n)), np.empty((records, m))
    for lo in range(0, records, rows):
        hi = min(lo + rows, records)
        b = hi - lo
        v = np.hstack([states[lo:hi], paper_psi(states[lo:hi, packed.psi_idx]), ones[:b]])
        p = v[:, packed.sig_col]
        np.multiply(p, packed.sig_w, p)
        sig = np.bincount(sig_bins[:b * nnz], p.ravel(), b * (n + m)).reshape(b, n + m)
        y[lo:hi], mu[lo:hi] = sig[:, :n], sig[:, n:]
    return y, mu


def packed_signals(packed: PackedSystem, states: np.ndarray):
    """(u, y, zeta, mu) arrays for recorded packed states (rows = samples).

    y and mu are packed_outputs'. zeta = E'y and u = -E mu follow in
    the same blocks: E mu is one bincount whose bins are
    (record, node) pairs, from the operator's lifted tail and head
    indices, as its rmatvec and matvec compute them.
    """
    op = packed.op
    y, mu = packed_outputs(packed, states)
    records = states.shape[0]
    n, m = op.node_size, op.edge_size
    rows = _signal_rows(packed)
    rec = np.arange(min(rows, records))[:, None]
    head_bins = (rec * n + op.head).ravel()
    tail_bins = (rec * n + op.tail).ravel()
    u, zeta = np.empty((records, n)), np.empty((records, m))
    for lo in range(0, records, rows):
        hi = min(lo + rows, records)
        b = hi - lo
        flat_mu = mu[lo:hi].ravel()
        E_mu = (np.bincount(head_bins[:b * m], flat_mu, b * n)
                - np.bincount(tail_bins[:b * m], flat_mu, b * n))
        u[lo:hi] = -E_mu.reshape(b, n)
        np.subtract(y[lo:hi, op.head], y[lo:hi, op.tail], zeta[lo:hi])
    return u, y, zeta, mu
