"""Closed-loop simulation of diffusively coupled networks.

Wires agents and edge controllers through the incidence operator
(zeta = E^T y, u = -E mu), integrates the stacked ODE with an adaptive
RK45 or fixed-step RK4 scheme, detects empirical convergence, and
compares the settled output against steady-state certificates.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import _fastpath
from .couplers import (
    ControllerModel,
    controller_has_feedthrough,
    controller_output,
    controller_rhs,
)
from .errors import (
    AlgebraicLoop,
    DimensionMismatch,
    NoConvergence,
    NonFiniteState,
    UnsupportedKind,
)
from .netgraph import DirectedGraph, IncidenceOperator, incidence
from .plants import AgentModel, has_feedthrough, output, rhs


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
    packed : PackedSystem or None
        Flat-array form when every component fits the fast kernels.
    """

    graph: DirectedGraph
    op: IncidenceOperator
    agents: tuple
    controllers: tuple
    io_dim: int
    agent_dim: int
    ctrl_dim: int
    agent_slices: tuple
    ctrl_slices: tuple
    agent_feedthrough: bool
    ctrl_feedthrough: bool
    packed: Optional[_fastpath.PackedSystem]

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
    AlgebraicLoop
        Both an agent and a controller have direct feedthrough.
    """
    agents = tuple(agents)
    if isinstance(controllers, ControllerModel):
        controllers = [controllers] * graph.edge_count
    controllers = tuple(controllers)
    if len(agents) != graph.node_count:
        raise DimensionMismatch(f"need {graph.node_count} agents, got {len(agents)}")
    if len(controllers) != graph.edge_count:
        raise DimensionMismatch(
            f"need {graph.edge_count} controllers, got {len(controllers)}")
    d = agents[0].io_dim
    if any(a.io_dim != d for a in agents):
        raise DimensionMismatch("agent io_dims differ")
    if any(c.io_dim != d for c in controllers):
        raise DimensionMismatch("controller io_dim differs from agents")
    a_ft = any(has_feedthrough(a) for a in agents)
    c_ft = any(controller_has_feedthrough(c) for c in controllers)
    if a_ft and c_ft:
        raise AlgebraicLoop(
            "agent and controller feedthrough form an algebraic loop")
    op = incidence(graph, d)
    a_slices = []
    ofs = 0
    for a in agents:
        a_slices.append(slice(ofs, ofs + a.state_dim))
        ofs += a.state_dim
    agent_dim = ofs
    c_slices = []
    ofs = 0
    for c in controllers:
        c_slices.append(slice(ofs, ofs + c.state_dim))
        ofs += c.state_dim
    packed = None
    if graph.edge_count > 0 and not a_ft and not c_ft:
        packed = _fastpath.try_pack(op, agents, controllers)
    return ClosedLoopSystem(
        graph=graph, op=op, agents=agents, controllers=controllers,
        io_dim=d, agent_dim=agent_dim, ctrl_dim=ofs,
        agent_slices=tuple(a_slices), ctrl_slices=tuple(c_slices),
        agent_feedthrough=a_ft, ctrl_feedthrough=c_ft, packed=packed)


def default_initial_state(system: ClosedLoopSystem) -> np.ndarray:
    """Zero agent states followed by the controllers' declared eta(0)."""
    parts = [np.zeros(system.agent_dim)]
    for c in system.controllers:
        parts.append(np.asarray(c.initial_state, dtype=float))
    return np.concatenate(parts) if parts else np.zeros(0)


def _signals_at(system: ClosedLoopSystem, s: np.ndarray):
    """(u, y, zeta, mu) at one stacked state, honoring feedthrough order."""
    d = system.io_dim
    n = system.graph.node_count
    m = system.graph.edge_count
    E = system.op.lifted
    eta_base = system.agent_dim

    def agent_outputs(u):
        y = np.empty(n * d)
        for i, a in enumerate(system.agents):
            ui = u[i * d:(i + 1) * d] if u is not None else np.zeros(d)
            y[i * d:(i + 1) * d] = output(a, s[system.agent_slices[i]], ui)
        return y

    def ctrl_outputs(zeta):
        mu = np.empty(m * d)
        for e, c in enumerate(system.controllers):
            ze = zeta[e * d:(e + 1) * d] if zeta is not None else np.zeros(d)
            sl = system.ctrl_slices[e]
            mu[e * d:(e + 1) * d] = controller_output(
                c, s[eta_base + sl.start:eta_base + sl.stop], ze)
        return mu

    if not system.agent_feedthrough:
        y = agent_outputs(None)
        zeta = E.T @ y
        mu = ctrl_outputs(zeta)
        u = -(E @ mu)
    else:
        mu = ctrl_outputs(None)
        u = -(E @ mu)
        y = agent_outputs(u)
        zeta = E.T @ y
    return u, y, zeta, mu


def step_rhs(system: ClosedLoopSystem, full_state: np.ndarray) -> np.ndarray:
    """Stacked state derivative of the closed loop at full_state.

    Computes y from the agent outputs, zeta = E^T y, mu from the
    controllers and u = -E mu, then evaluates every component ODE.
    """
    s = np.asarray(full_state, dtype=float).ravel()
    if s.size != system.state_dim:
        raise DimensionMismatch(
            f"state must have size {system.state_dim}, got {s.size}")
    u, y, zeta, mu = _signals_at(system, s)
    d = system.io_dim
    out = np.empty_like(s)
    for i, a in enumerate(system.agents):
        sl = system.agent_slices[i]
        out[sl] = rhs(a, s[sl], u[i * d:(i + 1) * d])
    base = system.agent_dim
    for e, c in enumerate(system.controllers):
        sl = system.ctrl_slices[e]
        out[base + sl.start:base + sl.stop] = controller_rhs(
            c, s[base + sl.start:base + sl.stop], zeta[e * d:(e + 1) * d])
    return out


@dataclass(frozen=True)
class IntegrateOptions:
    """Integration controls: 'rk45' adapts to tol, 'rk4' steps by dt.

    Raises
    ------
    UnsupportedKind
        method is neither 'rk45' nor 'rk4'.
    DimensionMismatch
        tol, dt or record_every (when given) is not positive.
    """

    method: str = "rk45"
    tol: float = 1e-8
    dt: float = 1e-2
    record_every: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise UnsupportedKind(f"unknown integration method {self.method!r}")
        for name in ("tol", "dt", "record_every"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise DimensionMismatch(f"{name} must be positive, got {val}")


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

    @property
    def agent_states(self) -> np.ndarray:
        return self.states[:, :self.system.agent_dim]

    @property
    def controller_states(self) -> np.ndarray:
        return self.states[:, self.system.agent_dim:]


def _record_grid(t0: float, T: float, record_every: Optional[float]):
    if record_every is None:
        record_every = T / 500.0
    nrec = int(round(T / record_every))
    if nrec < 2:
        nrec = 2
    return t0 + np.linspace(0.0, T, nrec + 1)


def _signals_batch(system: ClosedLoopSystem, states: np.ndarray):
    if system.packed is not None:
        return _fastpath.packed_signals(system.packed, states)
    rows = [_signals_at(system, states[k]) for k in range(states.shape[0])]
    u = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    zeta = np.array([r[2] for r in rows])
    mu = np.array([r[3] for r in rows])
    return u, y, zeta, mu


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
        Horizon, must be positive.
    opts : IntegrateOptions, optional
        method 'rk45' (adaptive, local error per step <= tol) or 'rk4'
        (fixed step dt); record_every sets the sample spacing.

    Raises
    ------
    StepUnderflow
        Adaptive step shrank below the resolvable width.
    NonFiniteState
        The state left the finite range (diverging dynamics).
    """
    if T <= 0:
        raise DimensionMismatch(f"horizon must be positive, got {T}")
    opts = opts or IntegrateOptions()
    s0 = np.asarray(init, dtype=float).ravel()
    if s0.size != system.state_dim:
        raise DimensionMismatch(
            f"initial state must have size {system.state_dim}, got {s0.size}")
    rec_every = opts.record_every
    if rec_every is None and opts.method == "rk4":
        # keep the fixed step authoritative when it is coarser than the grid
        rec_every = max(opts.dt, T / 500.0)
    rec = _record_grid(t0, T, rec_every)

    if system.packed is not None:
        packed = system.packed
        v = _fastpath.rhs_buffer(packed)

        # looked up on the module per call, so a wrapper installed there
        # (a call counter, a profiler) sees every evaluation; the buffer
        # goes positionally, as such wrappers forward *args
        def rhs_fn(s):
            return _fastpath._packed_rhs(s, packed, v)
    else:
        def rhs_fn(s):
            return step_rhs(system, s)

    if opts.method == "rk45":
        h0 = min(1e-3, T / 100.0)
        states, stats = _fastpath._rk45_loop(
            rhs_fn, s0, t0, rec, opts.tol, opts.tol, h0)
    else:
        states, stats = _fastpath._rk4_loop(rhs_fn, s0, t0, rec, opts.dt)
    if not np.all(np.isfinite(states)):
        raise NonFiniteState("state became non-finite during integration")

    u, y, zeta, mu = _signals_batch(system, states)
    meta = {"method": opts.method, "tol": opts.tol, "dt": opts.dt,
            "record_every": float(rec[1] - rec[0]),
            "fast_path": system.packed is not None, **asdict(stats)}
    return Trajectory(system=system, times=rec, states=states,
                      u=u, y=y, zeta=zeta, mu=mu, metadata=meta)


def integrate_schedule(segments, init,
                       opts: Optional[IntegrateOptions] = None) -> Trajectory:
    """Run consecutive (system, duration) segments, carrying all states.

    Systems may differ (e.g. per-segment reconfiguration offsets or
    leader inputs) but must share state layout so agent and controller
    states transfer across the boundaries.
    """
    segments = list(segments)
    if not segments:
        raise DimensionMismatch("schedule needs at least one segment")
    dim0 = segments[0][0].state_dim
    if any(sys_k.state_dim != dim0 for sys_k, _ in segments):
        raise DimensionMismatch("segments must share the state layout")
    t0 = 0.0
    state = np.asarray(init, dtype=float).ravel()
    pieces = []
    bounds = []
    for k, (sys_k, T_k) in enumerate(segments):
        traj = integrate(sys_k, state, T_k, opts, t0=t0)
        bounds.append((t0, t0 + T_k))
        state = traj.states[-1]
        t0 += T_k
        pieces.append(traj)
    last_sys = segments[-1][0]
    times = np.concatenate(
        [p.times if k == 0 else p.times[1:] for k, p in enumerate(pieces)])
    cat = lambda name: np.concatenate(
        [getattr(p, name) if k == 0 else getattr(p, name)[1:]
         for k, p in enumerate(pieces)])
    meta = dict(pieces[0].metadata)
    meta["fast_path"] = all(p.metadata["fast_path"] for p in pieces)
    for key in ("nfev", "accepted", "rejected"):
        meta[key] = sum(p.metadata[key] for p in pieces)
    meta["h_min"] = min(p.metadata["h_min"] for p in pieces)
    meta["segments"] = bounds
    return Trajectory(system=last_sys, times=times, states=cat("states"),
                      u=cat("u"), y=cat("y"), zeta=cat("zeta"), mu=cat("mu"),
                      metadata=meta)


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
    """
    times = traj.times
    span = times[-1] - times[0]
    if window is None:
        window = 0.1 * span
    if window >= span:
        raise DimensionMismatch("trajectory shorter than the window")
    sig = np.hstack([traj.y, traj.mu]) if traj.mu.size else traj.y
    mask = times >= times[-1] - window
    if mask.sum() < 2:
        raise DimensionMismatch("window contains fewer than two samples")
    tail = sig[mask]
    variation = float(np.max(tail.max(axis=0) - tail.min(axis=0))) if tail.size else 0.0
    if not np.isfinite(variation) or variation > tol:
        return ConvergenceResult(converged=False, variation=variation)
    y_ss = traj.y[mask].mean(axis=0)
    mu_ss = traj.mu[mask].mean(axis=0) if traj.mu.size else traj.mu[0]
    # earliest sample index from which the suffix variation stays within tol
    suf_max = np.maximum.accumulate(sig[::-1], axis=0)[::-1]
    suf_min = np.minimum.accumulate(sig[::-1], axis=0)[::-1]
    suf_var = (suf_max - suf_min).max(axis=1) if sig.size else np.zeros(len(times))
    ok = suf_var <= tol
    first = int(np.argmax(ok)) if ok.any() else len(times) - 1
    return ConvergenceResult(converged=True, y_ss=y_ss, mu_ss=mu_ss,
                             t_conv=float(times[first]), variation=variation)


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
    """Compare the settled (y, mu) against a steady-state certificate.

    Raw gaps are reported alongside aligned gaps that discard the free
    optimization directions: the agreement component for y and the
    cycle-space component (kernel of the lifted incidence operator)
    for mu. Pass/fail is decided on the aligned gaps at tol.

    Raises
    ------
    NoConvergence
        The trajectory has not settled per detect_convergence.
    """
    conv = detect_convergence(traj, window=window, tol=conv_tol)
    if not conv:
        raise NoConvergence(
            f"trajectory variation {conv.variation:.3e} exceeds {conv_tol:g}")
    sysd = traj.system
    y_cert = np.asarray(certificate.y, dtype=float).ravel()
    mu_cert = np.asarray(certificate.mu, dtype=float).ravel()
    dy = conv.y_ss - y_cert
    dmu = conv.mu_ss - mu_cert
    y_err = float(np.linalg.norm(dy))
    mu_err = float(np.linalg.norm(dmu))
    A = sysd.op.agreement_basis()
    dy_al = dy - A @ (A.T @ dy)
    cyc = sysd.op.cycle_basis()
    dmu_al = dmu - cyc @ (cyc.T @ dmu) if cyc.size else dmu
    y_al = float(np.linalg.norm(dy_al))
    mu_al = float(np.linalg.norm(dmu_al))
    return PredictionReport(
        passed=(y_al <= tol and mu_al <= tol),
        y_error=y_err, mu_error=mu_err,
        y_error_aligned=y_al, mu_error_aligned=mu_al,
        y_ss=conv.y_ss, mu_ss=conv.mu_ss, t_conv=conv.t_conv)


def export_csv(traj: Trajectory, path) -> None:
    """Write `t, y[node.coord]..., u[...], zeta[edge.coord]..., mu[...]`."""
    d = traj.system.io_dim
    n = traj.system.graph.node_count
    m = traj.system.graph.edge_count
    header = ["t"]
    header += [f"y[{i}.{c}]" for i in range(n) for c in range(d)]
    header += [f"u[{i}.{c}]" for i in range(n) for c in range(d)]
    header += [f"zeta[{e}.{c}]" for e in range(m) for c in range(d)]
    header += [f"mu[{e}.{c}]" for e in range(m) for c in range(d)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # each Python float as its shortest round-tripping repr, as the csv
        # module writes it; converting row by row keeps one row of Python
        # floats alive at a time
        data = np.column_stack([traj.times, traj.y, traj.u, traj.zeta, traj.mu])
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in data)

