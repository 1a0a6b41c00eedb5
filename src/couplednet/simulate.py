"""Closed-loop simulation of diffusively coupled networks.

Wires agents and edge controllers through the incidence operator
(zeta = E^T y, u = -E mu), integrates the stacked ODE with adaptive
Dormand-Prince 5(4) steps, detects empirical convergence, and
compares the settled output against steady-state certificates.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _fastpath
from .errors import DimensionMismatch, NoConvergence, NonFiniteState
from .netgraph import DirectedGraph, IncidenceOperator, incidence, project_agreement
from .netopt import min_norm_flow, network_parts
from .plants import AgentModel, agent_groups


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Network of agents and edge controllers under diffusive coupling.

    The wiring is fixed: controller inputs are the signed output
    differences ``zeta = E^T y`` and agent inputs are the signed
    controller output sums ``u = -E mu``, where ``E`` is the lifted
    incidence operator of the graph.

    Parameters
    ----------
    graph : DirectedGraph
        Underlying connected digraph with n nodes and m edges.
    op : IncidenceOperator
        Incidence operator lifted by the common output dimension d.
    agents : tuple of AgentModel
        One agent per node, all with equal io_dim d.
    controllers : tuple of ControllerModel
        One controller per edge, io_dim d each.

    Attributes
    ----------
    io_dim : int
        Common signal dimension d.
    agent_dim : int
        Total agent state dimension.
    ctrl_dim : int
        Total controller state dimension.
    packed : PackedSystem
        The closed loop as the packed kernel evaluates it.
    """

    graph: DirectedGraph
    op: IncidenceOperator
    agents: tuple
    controllers: tuple
    io_dim: int
    agent_dim: int
    ctrl_dim: int
    packed: _fastpath.PackedSystem

    @property
    def state_dim(self) -> int:
        return self.agent_dim + self.ctrl_dim


def closed_loop(graph: DirectedGraph, agents: Sequence[AgentModel],
                controllers) -> ClosedLoopSystem:
    """Assemble the closed loop; broadcast a single controller to all edges.

    Raises
    ------
    DimensionMismatch
        Mismatched io_dims or wrong agent/controller counts.
    """
    agents, controllers, d = network_parts(graph, agents, controllers)
    op = incidence(graph, d)
    return ClosedLoopSystem(
        graph=graph, op=op, agents=agents, controllers=controllers, io_dim=d,
        agent_dim=sum(a.state_dim for a in agents),
        ctrl_dim=sum(c.state_dim for c in controllers),
        packed=_fastpath.pack(op, agents, agent_groups(agents), controllers))


def default_initial_state(system: ClosedLoopSystem) -> np.ndarray:
    """Zero agent states followed by the controllers' declared eta(0)."""
    parts = [np.zeros(system.agent_dim)]
    for c in system.controllers:
        parts.append(np.asarray(c.initial_state, dtype=float))
    return np.concatenate(parts) if parts else np.zeros(0)


def step_rhs(system: ClosedLoopSystem, full_state: np.ndarray) -> np.ndarray:
    """Stacked state derivative of the closed loop at full_state.

    The packed kernel at one state: y from the agent outputs, zeta =
    E^T y, mu from the controllers and u = -E mu, then every component
    ODE.
    """
    s = np.asarray(full_state, dtype=float).ravel()
    if s.size != system.state_dim:
        raise DimensionMismatch(
            f"state must have size {system.state_dim}, got {s.size}")
    packed = system.packed
    with np.errstate(under="ignore"):
        return _fastpath._packed_rhs(s, packed, _fastpath.rhs_buffer(packed))


@dataclass(frozen=True)
class IntegrateOptions:
    """Integration controls: the local error per step stays <= tol.

    Raises
    ------
    DimensionMismatch
        tol or record_every (when given) is not finite and positive.
    """

    tol: float = 1e-8
    record_every: Optional[float] = None

    def __post_init__(self):
        for name in ("tol", "record_every"):
            val = getattr(self, name)
            if val is not None and not 0.0 < val < math.inf:
                raise DimensionMismatch(f"{name}: must be finite and positive, got {val}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded closed-loop run.

    times are strictly increasing; states holds the stacked state per
    sample (agents then controllers); the signal arrays satisfy the
    wiring identities zeta = E^T y and u = -E mu exactly at every
    sample because they are recomputed algebraically from the states.
    """

    system: ClosedLoopSystem
    times: np.ndarray
    states: np.ndarray
    u: np.ndarray
    y: np.ndarray
    zeta: np.ndarray
    mu: np.ndarray
    metadata: dict = field(default_factory=dict)


def _record_grid(t0: float, T: float, record_every: Optional[float]):
    if record_every is None:
        record_every = T / 500.0
    nrec = int(round(T / record_every))
    if nrec < 2:
        nrec = 2
    return t0 + np.linspace(0.0, T, nrec + 1)


def integrate(system: ClosedLoopSystem, init, T: float,
              opts: Optional[IntegrateOptions] = None,
              t0: float = 0.0) -> Trajectory:
    """Integrate the closed loop over [t0, t0+T] and record a Trajectory.

    Parameters
    ----------
    system : ClosedLoopSystem
    init : array_like
        Stacked initial state (agents then controllers).
    T : float
        Horizon, must be finite and positive.
    opts : IntegrateOptions, optional
        Adaptive Dormand-Prince 5(4) with local error per step <= tol;
        record_every sets the sample spacing.
    t0 : float
        Start time, must be finite.

    Raises
    ------
    DimensionMismatch
        T or t0 out of range, or init of the wrong size.
    StepUnderflow
        Adaptive step shrank below the resolvable width.
    NonFiniteState
        The state left the finite range (diverging dynamics).
    """
    if not 0.0 < T < math.inf:
        raise DimensionMismatch(f"horizon: must be finite and positive, got {T}")
    if not math.isfinite(t0):
        raise DimensionMismatch(f"t0: must be finite, got {t0}")
    opts = opts or IntegrateOptions()
    s0 = np.asarray(init, dtype=float).ravel()
    if s0.size != system.state_dim:
        raise DimensionMismatch(
            f"initial state must have size {system.state_dim}, got {s0.size}")
    rec = _record_grid(t0, T, opts.record_every)

    packed = system.packed
    v = _fastpath.rhs_buffer(packed)

    # looked up on the module per call, so a wrapper installed there
    # (a call counter, a profiler) sees every evaluation; the buffer
    # goes positionally, as such wrappers forward *args
    def rhs_fn(s):
        return _fastpath._packed_rhs(s, packed, v)

    states, stats = _fastpath._rk45_loop(
        rhs_fn, s0, t0, rec, opts.tol, opts.tol, min(1e-3, T / 100.0))
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("state became non-finite during integration")

    u, y, zeta, mu = _fastpath.packed_signals(packed, states)
    meta = {"tol": opts.tol, "record_every": float(rec[1] - rec[0]), **asdict(stats)}
    return Trajectory(system=system, times=rec, states=states,
                      u=u, y=y, zeta=zeta, mu=mu, metadata=meta)


def integrate_schedule(segments, init,
                       opts: Optional[IntegrateOptions] = None) -> tuple:
    """Run consecutive (system, duration) segments, one Trajectory each.

    Segment k is `integrate(system_k, state, duration_k, opts, t0=t_k)`,
    where t_k is the sum of the earlier durations and state is the
    previous segment's last state (init for the first). So a later
    segment's first record repeats the previous one's last state, with
    its own system's signals. Systems may differ (e.g. per-segment
    reconfiguration offsets or leader inputs) but must share state
    layout so agent and controller states transfer across the boundaries.
    """
    segments = list(segments)
    if not segments:
        raise DimensionMismatch("schedule needs at least one segment")
    dim0 = segments[0][0].state_dim
    if any(sys_k.state_dim != dim0 for sys_k, _ in segments):
        raise DimensionMismatch("segments must share the state layout")
    t0 = 0.0
    state = init
    trajs = []
    for sys_k, T_k in segments:
        trajs.append(integrate(sys_k, state, T_k, opts, t0=t0))
        state = trajs[-1].states[-1]
        t0 += T_k
    return tuple(trajs)


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of trailing-window convergence detection."""

    converged: bool
    y_ss: Optional[np.ndarray] = None
    mu_ss: Optional[np.ndarray] = None
    t_conv: Optional[float] = None
    variation: float = np.inf

    def __bool__(self) -> bool:
        return self.converged


def detect_convergence(traj: Trajectory, window: Optional[float] = None,
                       tol: float = 1e-6) -> ConvergenceResult:
    """Declare convergence when (y, mu) vary at most tol over the window.

    The window defaults to 10% of the horizon. On success y_ss and
    mu_ss are the window means and t_conv is the earliest recorded time
    after which the signal variation stays within tol.

    Raises
    ------
    DimensionMismatch
        tol is NaN or negative, or the window does not fit the trajectory.
    """
    if not tol >= 0.0:
        raise DimensionMismatch(f"tol: must be non-negative, got {tol}")
    times = traj.times
    span = times[-1] - times[0]
    if window is None:
        window = 0.1 * span
    if window >= span:
        raise DimensionMismatch("trajectory shorter than the window")
    # times increase, so the window is the records from start on
    start = int(np.searchsorted(times, times[-1] - window))
    if times.shape[0] - start < 2:
        raise DimensionMismatch("window contains fewer than two samples")
    sigs = (traj.y, traj.mu) if traj.mu.size else (traj.y,)
    hi = [s[start:].max(axis=0) for s in sigs]
    lo = [s[start:].min(axis=0) for s in sigs]
    variation = _spread(hi, lo)
    if not np.isfinite(variation) or variation > tol:
        return ConvergenceResult(converged=False, variation=variation)
    y_ss = traj.y[start:].mean(axis=0)
    mu_ss = traj.mu[start:].mean(axis=0) if traj.mu.size else traj.mu[0]
    first = _settled_from(sigs, start, hi, lo, tol)
    return ConvergenceResult(converged=True, y_ss=y_ss, mu_ss=mu_ss,
                             t_conv=float(times[first]), variation=variation)


def _spread(hi, lo) -> float:
    """Largest hi - lo over all signals' coordinates; NaN if any is NaN."""
    return float(np.max([np.max(h - l) for h, l in zip(hi, lo)]))


def _settled_from(sigs, start, hi, lo, tol) -> int:
    """Earliest record k whose suffix k.. varies at most tol in every signal.

    hi and lo are the running max and min of the records from start on,
    which vary at most tol. The suffix variation only grows as k falls
    (a NaN makes it NaN for good), so the scan goes back one block of
    records at a time, carrying the running max and min, and bisects the
    block where the variation first exceeds tol. Each step reduces
    records column-wise into the carried max and min, which are exact,
    so k is the same as from full suffix accumulations.
    """
    def extend(hi, lo, a, b):
        """Running max and min of the records from a on, given those from b on."""
        return ([np.maximum(h, s[a:b].max(axis=0)) for h, s in zip(hi, sigs)],
                [np.minimum(l, s[a:b].min(axis=0)) for l, s in zip(lo, sigs)])

    rows = _fastpath.block_rows(sum(s.shape[1] for s in sigs))
    k = start
    while k > 0:
        b0 = max(0, k - rows)
        bhi, blo = extend(hi, lo, b0, k)
        if _spread(bhi, blo) <= tol:
            hi, lo, k = bhi, blo, b0
            continue
        while k - b0 > 1:  # the suffix from b0 exceeds tol, the one from k does not
            mid = (b0 + k) // 2
            mhi, mlo = extend(hi, lo, mid, k)
            if _spread(mhi, mlo) <= tol:
                hi, lo, k = mhi, mlo, mid
            else:
                b0 = mid
        return k
    return 0


@dataclass(frozen=True)
class PredictionReport:
    """Simulation endpoint versus optimizer certificate."""

    passed: bool
    y_error: float
    mu_error: float
    y_error_aligned: float
    mu_error_aligned: float
    y_ss: np.ndarray
    mu_ss: np.ndarray
    t_conv: float

    def __bool__(self) -> bool:
        return self.passed


def compare_prediction(traj: Trajectory, certificate, tol: float = 1e-3,
                       window: Optional[float] = None,
                       conv_tol: float = 1e-6) -> PredictionReport:
    """prediction_report of traj's detect_convergence at window and conv_tol."""
    conv = detect_convergence(traj, window=window, tol=conv_tol)
    return prediction_report(traj.system, conv, certificate, tol)


def prediction_report(system: ClosedLoopSystem, conv: ConvergenceResult,
                      certificate, tol: float) -> PredictionReport:
    """Compare the settled (y, mu) of conv against a steady-state certificate.

    Raw gaps are reported alongside aligned gaps that discard the free
    optimization directions: the agreement component for y and the
    cycle-space component (kernel of the lifted incidence operator)
    for mu, the latter by one min-norm flow. Pass/fail is decided on the
    aligned gaps at tol.

    Raises
    ------
    NoConvergence
        conv is not converged.
    """
    if not conv:
        raise NoConvergence(
            f"trajectory variation {conv.variation:.3e} exceeds the convergence tolerance")
    y_cert = np.asarray(certificate.y, dtype=float).ravel()
    mu_cert = np.asarray(certificate.mu, dtype=float).ravel()
    dy = conv.y_ss - y_cert
    dmu = conv.mu_ss - mu_cert
    y_err = float(np.linalg.norm(dy))
    mu_err = float(np.linalg.norm(dmu))
    op = system.op
    dy_al = dy - project_agreement(op, dy)
    # the least-norm flow with E mu = E dmu is dmu without its cycle part
    dmu_al = min_norm_flow(op, np.ones(op.edge_size, dtype=bool), op.matvec(dmu)).mu
    y_al = float(np.linalg.norm(dy_al))
    mu_al = float(np.linalg.norm(dmu_al))
    return PredictionReport(
        passed=(y_al <= tol and mu_al <= tol),
        y_error=y_err, mu_error=mu_err,
        y_error_aligned=y_al, mu_error_aligned=mu_al,
        y_ss=conv.y_ss, mu_ss=conv.mu_ss, t_conv=conv.t_conv)


def export_csv(traj, path) -> None:
    """Write `t, y[node.coord]..., u[...], zeta[edge.coord]..., mu[...]`.

    traj is one Trajectory or the sequence of segment trajectories
    integrate_schedule returns. One header line, then one line per
    record: segment 0's records, then each later segment's from its
    second on, as its first repeats the boundary. Each value is the
    shortest decimal that parses back to the recorded double; NaN and
    infinities read `nan`, `inf` and `-inf`. Lines end in CRLF.

    The rows go a block of about a thousand values at a time: the block
    is stacked from the trajectories' arrays and formatted by one
    `orjson.dumps` call, so no whole-table array or text is held.

    Raises
    ------
    DimensionMismatch
        The segments differ in (nodes, edges, io_dim); nothing is written.
    """
    import orjson  # loaded by the first export, not by set-up or predict

    segs = (traj,) if isinstance(traj, Trajectory) else tuple(traj)
    layouts = {(seg.system.graph.node_count, seg.system.graph.edge_count, seg.system.io_dim)
               for seg in segs}
    if len(layouts) > 1:
        raise DimensionMismatch(f"segments differ in (nodes, edges, io_dim): {sorted(layouts)}")
    (n, m, d), = layouts
    # joined at once, so the column names do not stay alive as strings
    header = ",".join(["t"] + [f"{name}[{k}.{c}]"
                               for name, count in (("y", n), ("u", n), ("zeta", m), ("mu", m))
                               for k in range(count) for c in range(d)]) + "\r\n"
    # about 16 bytes of text per value, so a block's text is about BLOCK_VALUES bytes
    step = _fastpath.block_rows(16 * (1 + 2 * (n + m) * d))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for k, seg in enumerate(segs):
            columns = (seg.times, seg.y, seg.u, seg.zeta, seg.mu)
            # a later segment's first record is the boundary's
            for b in range(int(k > 0), seg.times.shape[0], step):
                block = np.column_stack([c[b:b + step] for c in columns])
                text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
                # [[r0],[r1]] -> r0\r\nr1, written without the outer brackets;
                # a block of one record has no "],[" to look for
                if block.shape[0] > 1:
                    text = text.replace(b"],[", b"\r\n")
                text = _spell_non_finite(text, block)
                fh.write(memoryview(text)[2:-2])
                fh.write(b"\r\n")


def _spell_non_finite(text: bytes, block: np.ndarray) -> bytes:
    """text with each `null` orjson wrote for a non-finite value of block
    spelled `nan`, `inf` or `-inf`, in the block's row-major order."""
    bad = block[~np.isfinite(block)].tolist()
    if not bad:
        return text
    words = [b"nan" if v != v else b"inf" if v > 0 else b"-inf" for v in bad]
    parts = text.split(b"null")
    return b"".join(x for pair in zip(parts, words + [b""]) for x in pair)
