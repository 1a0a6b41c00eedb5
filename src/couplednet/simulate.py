"""Closed-loop simulation of diffusively coupled networks.

Wires agents and edge controllers through the incidence operator
(zeta = E^T y, u = -E mu), integrates the stacked ODE with adaptive
Dormand-Prince 5(4) steps, ends a run early only where a Lyapunov
function proves it converges to its certificate, else judges the
trailing window at its horizon, and compares the settled output against
steady-state certificates.
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

PREDICTION_TOL = 1e-3  # aligned gap a settled simulation may leave to its certificate
WINDOW = 0.1  # of the scheduled horizon: the trailing window a run is judged on


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Network of agents and edge controllers under diffusive coupling.

    The wiring is fixed: controller inputs are the signed output
    differences ``zeta = E^T y`` and agent inputs are the signed
    controller output sums ``u = -E mu``, where ``E`` is op, the graph's
    incidence operator lifted by the common signal dimension io_dim.
    There is one agent per node and one controller per edge; agent_dim
    and ctrl_dim are their total state dimensions, and packed is the
    closed loop as the packed kernel evaluates it.
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
    UnsupportedKind
        An agent's psi or an integrator's potential is neither quadratic
        nor paper_psi, which no config builds; the message names the
        member, as agents[i].psi: or controllers[e].potential:.
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
    return np.concatenate([np.zeros(system.agent_dim)] + [
        np.asarray(c.initial_state, dtype=float) for c in system.controllers])


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
    convergence and prediction are integrate's verdict on the run.
    """

    system: ClosedLoopSystem
    times: np.ndarray
    states: np.ndarray
    u: np.ndarray
    y: np.ndarray
    zeta: np.ndarray
    mu: np.ndarray
    metadata: dict = field(default_factory=dict)
    convergence: Optional[ConvergenceResult] = None
    prediction: Optional[PredictionReport] = None


def _record_grid(t0: float, T: float, record_every: Optional[float]):
    nrec = max(2, int(round(T / (record_every or T / 500.0))))
    return t0 + np.linspace(0.0, T, nrec + 1)


def _window_start(times, window: float) -> int:
    """First record of the trailing window: those at or after times[-1] - window."""
    return int(np.searchsorted(times, times[-1] - window))


def stop_level(region, local_error: float) -> float:
    """The level of V at or below which a record stands for a run inside
    the region {V < c}: (sqrt(c) - eps)^2, eps = sqrt(p_max) local_error,
    with local_error the sum of the Euclidean norms of the run's local
    error estimates up to the record (_rk45_loop's).

    eps bounds the record's error in V's norm where the flow stretches
    no error in that norm, as on the part of the run inside the region,
    and the estimates bound the steps' true local errors; it is an
    estimate, not a bound, over a transient that stretches errors.
    tests/test_lyapunov_stop.py checks it against runs at tol 1e-11.
    """
    eps = math.sqrt(region.p_max) * local_error
    return max(math.sqrt(region.c) - eps, 0.0) ** 2


def integrate(system: ClosedLoopSystem, init, T: float,
              opts: Optional[IntegrateOptions] = None,
              t0: float = 0.0, certificate=None, conv_tol: float = 1e-6) -> Trajectory:
    """Integrate the closed loop over [t0, t0+T] and record a Trajectory.

    init is the stacked initial state (agents then controllers), T the
    horizon (finite, positive) and t0 the start time (finite); opts sets
    the adaptive Dormand-Prince 5(4) steps' local error tol and the
    record spacing. With a certificate whose member s* on s0's conserved
    level _fastpath.attraction_region proves a region {V < c} around, the
    run ends at the first record block whose last record has V at most
    stop_level(region, local_error), a margin for the record's
    integration error; else it runs to t0+T. metadata records the end as
    t_stop, T as horizon and the loop's StepStats. The run is judged
    once, at its end: convergence is the proof's where V is at most that
    level there (y_ss and mu_ss the signals at s*, variation V, proof
    "lyapunov"), else the trailing window's (WINDOW of T) at conv_tol, as
    detect_convergence's; prediction is prediction_report's at
    PREDICTION_TOL, or None without a certificate or convergence.

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
    region = None if certificate is None else _fastpath.attraction_region(
        packed, s0, np.concatenate([np.ravel(certificate.y), np.ravel(certificate.mu)]))
    settled = None if region is None else (
        lambda s, local_error: region.value(s) <= stop_level(region, local_error))
    # the kernel is looked up on the module at each integrate call, so a
    # wrapper installed there (a call counter, a profiler) sees every
    # evaluation; the loop passes it positional arguments, as wrappers forward *args
    states, stats = _fastpath._rk45_loop(
        _fastpath._packed_rhs, _fastpath.rhs_buffer, packed, s0, t0, rec, opts.tol,
        min(1e-3, T / 100.0), settled)
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("state became non-finite during integration")

    times = rec[:states.shape[0]]
    u, y, zeta, mu = _fastpath.packed_signals(packed, states)
    if region is not None and settled(states[-1], stats.local_error):
        V = region.value(states[-1])
        _, y_star, _, mu_star = _fastpath.packed_signals(packed, region.s_star[None])
        conv = ConvergenceResult(converged=True, y_ss=y_star[0], mu_ss=mu_star[0], variation=V,
                                 proof="lyapunov")
    else:
        start = _window_start(times, WINDOW * T)
        conv = _window_convergence(y[start:], mu[start:], conv_tol)
    meta = {"tol": opts.tol, "record_every": float(rec[1] - rec[0]), **asdict(stats),
            "t_stop": float(times[-1]), "horizon": float(T)}
    return Trajectory(system=system, times=times, states=states,
                      u=u, y=y, zeta=zeta, mu=mu, metadata=meta, convergence=conv,
                      prediction=prediction_report(system, conv, certificate, PREDICTION_TOL)
                      if conv and certificate is not None else None)


def integrate_schedule(segments, init,
                       opts: Optional[IntegrateOptions] = None, conv_tol: float = 1e-6) -> tuple:
    """Run consecutive (system, duration) segments, one Trajectory each.

    Segment k is `integrate(system_k, state, duration_k, opts, t0=t_k)`,
    where t_k is the sum of the earlier durations and state is the
    previous segment's last state (init for the first). So a later
    segment's first record repeats the previous one's last state, with
    its own system's signals. A (system, duration, certificate) segment
    may end early, as integrate allows; the next still starts at t_k.
    Systems may differ (e.g. per-segment reconfiguration offsets or
    leader inputs) but must share state layout so agent and controller
    states transfer across the boundaries.
    """
    segments = list(segments)
    if not segments:
        raise DimensionMismatch("schedule needs at least one segment")
    dim0 = segments[0][0].state_dim
    if any(seg[0].state_dim != dim0 for seg in segments):
        raise DimensionMismatch("segments must share the state layout")
    t0 = 0.0
    state = init
    trajs = []
    for sys_k, T_k, *cert in segments:
        trajs.append(integrate(sys_k, state, T_k, opts, t0, cert[0] if cert else None, conv_tol))
        state = trajs[-1].states[-1]
        t0 += T_k
    return tuple(trajs)


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of convergence detection: by the trailing window, where
    variation is the window's spread in (y, mu) and y_ss, mu_ss its
    means; or by a proof, named in proof ("lyapunov", see integrate),
    where y_ss and mu_ss are the proven limit's and variation is V at
    the stop."""

    converged: bool
    y_ss: Optional[np.ndarray] = None
    mu_ss: Optional[np.ndarray] = None
    variation: float = np.inf
    proof: Optional[str] = None

    def __bool__(self) -> bool:
        return self.converged


def detect_convergence(traj: Trajectory, window: Optional[float] = None,
                       tol: float = 1e-6) -> ConvergenceResult:
    """Declare convergence when (y, mu) vary at most tol over the window.

    The window defaults to WINDOW of the scheduled horizon (metadata
    "horizon", else the span), so a run that ended early keeps its
    window. On success y_ss and mu_ss are the window means. At the
    default window and tol = conv_tol this is integrate's verdict, bit
    for bit, on a run the window judged (convergence.proof None); a run
    that ended on a proof carries the proof's verdict instead, and
    where the window does not fit such a run (it stopped within the
    window), that verdict is returned.

    Raises
    ------
    DimensionMismatch
        tol is NaN or negative, or the window does not fit a trajectory
        that did not end on a proof.
    """
    if not tol >= 0.0:
        raise DimensionMismatch(f"tol: must be non-negative, got {tol}")
    times = traj.times
    span = times[-1] - times[0]
    if window is None:
        window = WINDOW * traj.metadata.get("horizon", span)
    start = _window_start(times, window)
    if window >= span or times.shape[0] - start < 2:
        if traj.convergence is not None and traj.convergence.proof is not None:
            return traj.convergence
        if window >= span:
            raise DimensionMismatch("trajectory shorter than the window")
        raise DimensionMismatch("window contains fewer than two samples")
    return _window_convergence(traj.y[start:], traj.mu[start:], tol)


def _window_convergence(y, mu, tol) -> ConvergenceResult:
    """Converged when a window of at least two records varies at most tol in y and mu."""
    if y.shape[0] < 2:
        return ConvergenceResult(converged=False)
    sigs = (y, mu) if mu.size else (y,)
    variation = float(np.max([np.max(s.max(axis=0) - s.min(axis=0)) for s in sigs]))
    if not np.isfinite(variation) or variation > tol:  # NaN included
        return ConvergenceResult(converged=False, variation=variation)
    return ConvergenceResult(converged=True, y_ss=y.mean(axis=0),
                             mu_ss=mu.mean(axis=0) if mu.size else mu[0], variation=variation)


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
        y_ss=conv.y_ss, mu_ss=conv.mu_ss)


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
        There is no segment, or the segments differ in (nodes, edges,
        io_dim); nothing is written.
    """
    import orjson  # loaded by the first export, not by set-up or predict

    segs = (traj,) if isinstance(traj, Trajectory) else tuple(traj)
    if not segs:
        raise DimensionMismatch("no trajectory to export")
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
