"""Packed closed-loop integration kernels.

Every closed loop the config can describe folds into one sparse affine
map of the stacked state s (agents, then controllers) and the paper_psi
values its pieces need:

    s' = W [s ; paper_psi(s[psi_idx]) ; 1]

pack composes W from sparse maps as the loop is wired: the edge efforts
mu, u = -E mu, the agents' y = C x + T u and rows A x + B u, and the
edges' rows zeta = E'y less their leak. No controller output reads its
input, so each map is affine. W's last column, on the constant 1, is
the affine term c: the agents' w and leader offsets and the controllers'
offsets. paper_psi enters as the output of a paper_psi integrator and as
the damping or potential gradient of an agent whose psi is paper_psi
coordinatewise. W is a COO triple, and also dense up to DENSE_MAX
entries: one rhs call is a np.dot, else a gather, a multiply and a
bincount. The adaptive loop is Dormand-Prince 5(4) with the FSAL
property and its continuous extension for recording (Hairer, Norsett &
Wanner, Solving ODEs I, II.5-II.6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplers import controller_groups
from .errors import NonFiniteState, StepUnderflow, UnsupportedKind
from .netgraph import IncidenceOperator
from .relations import (FunctionKind, _psi_inverse, paper_psi, paper_psi_curvature_bound,
                        paper_psi_into, paper_psi_prime)


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


@dataclass(frozen=True)
class Region:
    """A proven region of attraction {V < c} of the equilibrium s_star on
    its conserved level, V(s) = z'Pz with z = N'(s - s_star): the loop
    started in it converges to s_star (see attraction_region). p_max is
    P's largest eigenvalue, so V's norm |N'e|_P stretches an error e in
    the state at most sqrt(p_max) times (N's columns are orthonormal)."""

    s_star: np.ndarray
    N: np.ndarray
    P: np.ndarray
    c: float
    p_max: float

    def value(self, s) -> float:
        """V(s)."""
        z = (s - self.s_star) @ self.N
        return float(z @ self.P @ z)


def attraction_region(pk, s0, signals):
    """The Region of the equilibrium with stacked signals [y ; mu] =
    signals on s0's conserved level, or None where it cannot be proven.

    Only a dense map (DENSE_MAX) is tried. The steps (Khalil, Nonlinear
    Systems, 3rd ed., 8.2):

    1. s_c, the signals as a state: one least-squares solve of W v = 0
       and the signal map at v = signals, in s and the paper_psi values
       p, then s_c[psi_idx] = paper_psi^-1(p). The signals must be an
       equilibrium: |W v| at most 1e-6 of the size of its terms.
    2. The member s* the loop reaches: each l with l'W = 0 keeps l's
       constant, so N, the left singular vectors of W off its null
       space, spans the level's directions. From s_c moved onto s0's
       level, Newton steps on N' rhs(s) = 0 along N, until |rhs(s*)| is
       at most 1e-10 of the size of its terms.
    3. J_r = N'JN, the Jacobian on the level, must be Hurwitz, its
       eigenvalues' real parts below -1e-9 times its spectral radius, and P
       solves J_r'P + P J_r = -I by J_r's eigendecomposition, with a
       relative residual at most 1e-8 and P positive definite.
    4. A sector bound on paper_psi's remainder, input by input, with
       z = N'(s - s*), n_i row i of N[psi_idx] and u_i column i of
       N'W_psi. On {V <= c} input i moves at most rho_i sqrt(c),
       rho_i^2 = n_i'P^-1 n_i, so its secant slope is within
       (M/2) rho_i sqrt(c) of paper_psi' at s*, M =
       paper_psi_curvature_bound(). By AM-GM, with t_i = |P u_i| / |n_i|,
       V' <= -|z|^2 + M sqrt(c) z'Sz, S = 1/2 sum_i rho_i (t_i n_i n_i'
       + P u_i u_i'P / t_i), and V decreases on {V < c}, c =
       (M lambda_max(S))^-2; c is infinite without paper_psi, or where
       no input moves on the level.
    """
    W = pk.dense
    if W is None:
        return None
    dim, one = pk.dim, pk.width - 1
    n_sig = pk.op.node_size + pk.op.edge_size
    S = _dense_w(pk.sig_row, pk.sig_col, pk.sig_w, n_sig, pk.width)
    A = np.vstack((W[:, :one], S[:, :one]))
    b = np.concatenate((-W[:, one], signals - S[:, one]))
    # pinv, not lstsq: it runs the SVD the level's basis runs below, where
    # lstsq would load LAPACK's gelsd, about 0.3 MB of peak RSS
    sol = np.linalg.pinv(A) @ b
    s, (x, inside) = sol[:dim], _psi_inverse(sol[dim:])
    if not inside.all():
        return None
    s[pk.psi_idx] = x
    absW = np.abs(W)

    def residual(s):
        """(rhs at s, the size of its terms: the largest row of |W| |v|)."""
        v = np.concatenate((s, paper_psi(s[pk.psi_idx]), [1.0]))
        return W @ v, float(np.max(absW @ np.abs(v), initial=0.0))

    r, size = residual(s)
    if not np.max(np.abs(r), initial=0.0) <= 1e-6 * size:
        return None
    U, sv, _ = np.linalg.svd(W)
    N = U[:, :int(np.sum(sv > dim * np.finfo(float).eps * sv[0]))]
    s = s0 + N @ (N.T @ (s - s0))
    W_psi, N_psi = W[:, pk.psi_cols], N[pk.psi_idx]
    WN = W[:, :dim] @ N

    def jacobian(s):
        """J_r at s."""
        return N.T @ (WN + (W_psi * paper_psi_prime(s[pk.psi_idx])) @ N_psi)

    with np.errstate(all="ignore"):
        try:  # a singular J_r or eigenvector basis raises LinAlgError
            for _ in range(12):
                r, size = residual(s)
                if np.max(np.abs(r), initial=0.0) <= 1e-13 * size:
                    break
                s = s - N @ np.linalg.solve(jacobian(s), N.T @ r)
            r, size = residual(s)
            if not np.max(np.abs(r), initial=0.0) <= 1e-10 * size:
                return None
            J_r = jacobian(s)
            lam, V = np.linalg.eig(J_r)
            if not lam.real.max(initial=-math.inf) < -1e-9 * np.abs(lam).max(initial=0.0):
                return None
            V_inv = np.linalg.inv(V)
            X = -(V.conj().T @ V) / (lam.conj()[:, None] + lam)
            P = (V_inv.conj().T @ X @ V_inv).real
            P = 0.5 * (P + P.T)
            w, Up = np.linalg.eigh(P)
        except np.linalg.LinAlgError:
            return None
        if not (np.linalg.norm(J_r.T @ P + P @ J_r + np.eye(P.shape[0]))
                <= 1e-8 * math.sqrt(P.shape[0]) and w.min(initial=math.inf) > 0.0):
            return None
        c = math.inf
        if pk.psi_idx.size:
            rho = np.linalg.norm(N_psi @ (Up / np.sqrt(w)), axis=1)
            PU = P @ N.T @ W_psi
            a, b = np.linalg.norm(N_psi, axis=1), np.linalg.norm(PU, axis=0)
            on = rho * a * b > 0.0  # the inputs that move on the level and drive it
            t = b[on] / a[on]
            S = 0.5 * ((N_psi[on].T * (rho[on] * t)) @ N_psi[on]
                       + (PU[:, on] * (rho[on] / t)) @ PU[:, on].T)
            c = (paper_psi_curvature_bound() * np.linalg.eigvalsh(S)[-1]) ** -2.0
    return Region(s_star=s, N=N, P=P, c=float(c), p_max=float(w.max()))


@dataclass(frozen=True)
class StepStats:
    """Work done by one integration of _rk45_loop.

    nfev counts rhs evaluations, accepted counts the steps that advanced
    time, rejected the steps retried after an error above tolerance,
    h_min is the smallest accepted step, and local_error sums the
    accepted steps' local error estimates, each a Euclidean norm.
    """

    nfev: int
    accepted: int
    rejected: int
    h_min: float
    local_error: float


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
    settled(s, local_error), if given, is called after each step that
    records, with s the last record and local_error the sum of the
    Euclidean norms of the local error estimates of the steps accepted
    so far, this one included; once True, the loop ends with the records
    so far.
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
    abs_s5, scale, q, q_scaled = (np.empty(dim) for _ in range(4))
    nfev, accepted, rejected, h_min, local_error = 1, 0, 0, math.inf, 0.0
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
            np.divide(q, scale, q_scaled)
            errn = math.sqrt(np.dot(q_scaled, q_scaled) / dim)
            if not math.isfinite(errn):
                raise NonFiniteState("state became non-finite during integration")
            if errn <= 1.0:
                local_error += math.sqrt(np.dot(q, q))
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
                if wrote and settled is not None and settled(out[idx - 1], local_error):
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
    return out[:idx], StepStats(nfev, accepted, rejected, h_min, local_error)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _blocks(r0, c0, blocks):
    """COO triple of the nonzeros of the (k, h, w) stack blocks, block j
    with its upper-left corner at (r0[j], c0[j]), row-major in each block."""
    at = np.flatnonzero(blocks)
    j, ij = np.divmod(at, blocks.shape[1] * blocks.shape[2])
    return r0[j] + ij // blocks.shape[2], c0[j] + ij % blocks.shape[2], blocks.ravel()[at]


def _coalesce(*maps):
    """The sum of COO triples as one: an entry per (row, col), ordered by
    row then column, zeros dropped. Entries that share a (row, col) add
    from 0 in the order given, as np.add.at would."""
    row, col, val = map(np.concatenate, zip(*maps))
    key = row.astype(np.int64) << 32 | col
    by_key = np.argsort(key, kind="stable")  # timsort: the maps come in sorted runs
    key = key[by_key]
    first = np.diff(key, prepend=-1) != 0
    val = np.bincount(np.cumsum(first) - 1, val[by_key])
    key = key[first][val != 0.0]
    return key >> 32, key & 0xFFFFFFFF, val[val != 0.0]


def _compose(P, Q):
    """The COO product P Q, not coalesced: each entry (i, k) of P meets
    every entry of Q in row k, in P's order, then in Q's."""
    (p_row, p_col, p_val), (q_row, q_col, q_val) = P, Q
    by_row = np.argsort(q_row, kind="stable")
    lo, hi = (np.searchsorted(q_row[by_row], p_col, side) for side in ("left", "right"))
    p = np.repeat(np.arange(p_col.size), hi - lo)  # (i, k) once per entry of Q's row k
    q = by_row[np.arange(p.size) + np.repeat(hi - np.cumsum(hi - lo), hi - lo)]
    return p_row[p], q_col[q], p_val[p] * q_val[q]


def pack(op, agents, groups, controllers) -> PackedSystem:
    """Fold the closed loop into sparse affine maps of v = [s ; paper_psi(s[psi_idx]) ; 1].

    groups are the agents' agent_groups, x' = A x + B u_eff + w -
    grad psi(x[where]) and y = C x + T u_eff, and controller_groups gives
    the edges' form. The maps compose as the loop is wired:

        mu = M v,  u = -E mu,  y = C x + T u,
        s' = [A x - paper_psi + B u ; E'y - leak eta].

    The constants, evaluated at mu = mu0 = q + beta with u_eff = u +
    the leader offsets, are kept apart from the composition: c goes
    last in the rhs map and [y0 ; mu0] first in the signal map.

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
    leak, on_psi, L, q, offset, alpha, beta = controller_groups(controllers, d)
    mu0 = q + beta
    u_eff = (np.array([a.leader_offset for a in agents]).reshape(n, d)
             - op.matvec(mu0.ravel()).reshape(n, d))  # at mu = mu0
    ofs = np.cumsum([0] + [a.state_dim for a in agents] + [c.state_dim for c in controllers])
    dim = int(ofs[-1])
    eta = ofs[n] + np.arange(m * d)  # edge coordinate j is state eta[j]
    c, y0 = np.zeros(dim), np.zeros((n, d))
    c[eta] = (-alpha - offset).ravel()
    A, B, C, T = [], [], [], []
    parts = [eta.reshape(m, d)[on_psi].ravel()]  # paper_psi reads the edges', then the agents'
    for idx, A_g, B_g, C_g, T_g, w_g, psi_g, where in groups:
        idx = np.asarray(idx)
        at, size = ofs[idx], A_g.shape[1]
        A.append(_blocks(at, at, A_g))
        B.append(_blocks(at, idx * d, B_g))
        C.append(_blocks(idx * d, at, C_g))
        T.append(_blocks(idx * d, idx * d, T_g))
        u_g = u_eff[idx][:, :, None]
        c[(at[:, None] + np.arange(size)).ravel()] = (w_g + (B_g @ u_g)[:, :, 0]).ravel()
        y0[idx] = (T_g @ u_g)[:, :, 0]
        for j in np.flatnonzero([psi is not None for psi in psi_g]):
            if psi_g[j].kind is not FunctionKind.SCALAR_SEPARABLE:
                raise UnsupportedKind(f"agents[{idx[j]}].psi: neither quadratic nor paper_psi, "
                                      "which no config builds")
            parts.append(at[j] + np.arange(size)[where])
    psi_idx = np.concatenate(parts)
    one = dim + psi_idx.shape[0]  # v's constant column follows the paper_psi columns

    # mu = M v: L eta, or (L = I) paper_psi(eta) in the edge's paper_psi columns
    e = np.arange(m)
    M = _blocks(d * e, np.where(on_psi, dim + d * (np.cumsum(on_psi) - 1), eta[d * e]), L)
    # E, lifted: -1 at (tail, edge) and +1 at (head, edge)
    node, edge = np.concatenate((op.tail, op.head)), np.tile(np.arange(m * d), 2)
    sign = np.repeat([-1.0, 1.0], m * d)
    tail, head, first = y0.ravel()[op.tail], y0.ravel()[op.head], op.tail < op.head
    c[eta] += np.where(first, -tail, head)  # zeta's constant E'y0 adds y0 node by node
    c[eta] += np.where(first, head, -tail)
    A, B, C, T = (tuple(map(np.concatenate, zip(*maps))) for maps in (A, B, C, T))
    u = _compose((node, edge, -sign), M)  # u = -E mu
    y = _coalesce(C, _compose(T, u))  # summed first: each end's y enters zeta as one term
    k = np.arange(parts[0].shape[0], psi_idx.shape[0])  # the agents' paper_psi columns
    lk = eta.reshape(m, d)[leak].ravel()
    rhs = _coalesce(A, (psi_idx[k], dim + k, -np.ones(k.shape[0])), _compose(B, u),
                    _compose((eta[edge], node, sign), y), (lk, lk, -np.ones(lk.shape[0])))
    const = np.flatnonzero(c)  # c goes last
    row, col, w = map(np.concatenate, zip(rhs, (const, np.full(const.shape[0], one), c[const])))
    sig0 = np.concatenate((y0.ravel(), mu0.ravel()))
    const = np.flatnonzero(sig0)  # y's and mu's constants go first: each signal adds onto them
    sig_row, sig_col, sig_w = map(np.concatenate, zip(  # y's rows, then mu's: each in order, once
        (const, np.full(const.shape[0], one), sig0[const]), y, (n * d + M[0], *M[1:])))
    lo = int(psi_idx[0]) if psi_idx.size else 0  # psi_idx is one range when it is lo, lo + 1, ...
    one_range = np.array_equal(psi_idx, lo + np.arange(psi_idx.shape[0]))
    return PackedSystem(dim=dim, psi_idx=psi_idx, row=row, col=col, w=w,
                        sig_row=sig_row, sig_col=sig_col, sig_w=sig_w, op=op,
                        psi_cols=slice(dim, one), width=one + 1,
                        psi_src=slice(lo, lo + psi_idx.shape[0]) if one_range else psi_idx,
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
