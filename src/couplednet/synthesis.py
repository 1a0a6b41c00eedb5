"""Controller synthesis: forcibility, linear controllers, reconfiguration.

Decides whether a desired output y* can be forced as the network
steady state, builds edge controllers that force it, computes the
offsets that retarget running controllers to a new formation, and
computes the constant input a single leader node needs to force
outputs that are not forcible by coupling alone.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .couplers import linear_synthesis, reconfigured
from .errors import EmptyInverse, NotForcible, UnsupportedKind
from .netopt import NetworkProblem, solve_composite
from .relations import FunctionKind, SetDescriptor, inverse, quadratic, shifted, solve_affine, value

# strict-convexity probe parameters
PROBE_MARGIN = 1e-6
PROBE_DIRECTIONS = 32
PROBE_RADIUS = 1e-2


def _node_blocks(problem: NetworkProblem, y):
    y = np.asarray(y, dtype=float).ravel()
    d = problem.op.dim
    return [y[i * d : (i + 1) * d] for i in range(problem.op.node_count)]


def _inverse_descriptors(problem: NetworkProblem, y) -> list[SetDescriptor]:
    descs = []
    for rel, yi in zip(problem.node_relations, _node_blocks(problem, y)):
        desc = inverse(rel, yi)
        if desc.is_empty:
            raise EmptyInverse("a node relation has no input mapping to y*")
        descs.append(desc)
    return descs


def _sum_descriptor(descs) -> SetDescriptor:
    out = descs[0]
    for d in descs[1:]:
        out = out.minkowski(d)
    return out


def _min_flow(problem: NetworkProblem, descs, tol: float) -> np.ndarray:
    """Minimum-norm mu with -E mu in the product of the node descriptors.

    For the product a + span(Q), Q orthonormal, that is the min-norm
    solution of (I - QQ')E mu = -(I - QQ')a.
    """
    E = problem.op.lifted
    cat = SetDescriptor.product(descs)
    Q, a = cat.directions, cat.basepoint
    flows = solve_affine(E - Q @ (Q.T @ E), Q @ (Q.T @ a) - a, max(tol, 1e-8))
    if flows.is_empty:
        raise NotForcible("y is not forcible, no consistent flow exists")
    return flows.basepoint


@dataclass(frozen=True)
class ForcibilityReport:
    """Outcome of the forcibility test 0 in sum_i k_i^-1(y*_i).

    residual is the distance of 0 to the set sum; witness is the
    per-node selection -E mu, for the minimum-norm flow mu, when forcible.
    """

    forcible: bool
    witness: Optional[np.ndarray]
    residual: float

    def __bool__(self) -> bool:
        return self.forcible


def check_forcible(problem: NetworkProblem, y_star, tol: float = 1e-8) -> ForcibilityReport:
    """Test whether y* is forcible as a steady state by pure coupling."""
    descs = _inverse_descriptors(problem, y_star)
    d = problem.op.dim
    total = _sum_descriptor(descs)
    residual = total.distance(np.zeros(d))
    if residual > tol:
        return ForcibilityReport(False, None, residual)
    try:
        mu = _min_flow(problem, descs, tol)
    except NotForcible:
        return ForcibilityReport(False, None, residual)
    return ForcibilityReport(True, -(problem.op.lifted @ mu), residual)


@dataclass(frozen=True)
class SynthesisResult:
    """Controllers forcing a target, with the data that produced them."""

    controllers: tuple
    xi: np.ndarray
    zeta_star: np.ndarray
    mode: str
    forcibility: ForcibilityReport
    y_target: np.ndarray
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    leader_input: Optional[np.ndarray] = None
    leader: Optional[int] = None


def _agreement_shift(problem: NetworkProblem, y_star, tol: float) -> np.ndarray:
    """beta minimizing A(beta) = sum_i K*_i(y*_i + beta), by one exact solve."""
    d = problem.op.dim
    y_star = np.asarray(y_star, dtype=float).ravel()
    lift = np.kron(np.ones((problem.op.node_count, 1)), np.eye(d))
    beta, _ = solve_composite(quadratic(np.zeros((d, d))), shifted(problem.Kstar, shift=-y_star),
                              lift, np.zeros(d), tol,
                              lambda b: value(problem.Kstar, y_star + lift @ b))
    return beta


def synthesize_linear(
    problem: NetworkProblem,
    y_star,
    tol: float = 1e-8,
    mode: str = "absolute",
    leader: Optional[int] = None,
) -> SynthesisResult:
    """Build LinearSynthesis edge controllers for the target y*.

    Absolute mode requires y* forcible (or a leader node); relative
    mode retargets to the nearest agreement shift y* + beta (x) 1 that
    is forcible, guaranteeing the relative output E'y* either way.
    The controllers integrate eta' = -eta + zeta - (xi + zeta*) with
    mu = eta, where xi = -g(y*) for the minimum-norm flow g (see g_map);
    with a leader, the leader's inverse set is first moved by -z.
    """
    y_star = np.asarray(y_star, dtype=float).ravel()
    d = problem.op.dim
    zeta_star = problem.op.lifted.T @ y_star
    leader_z = None
    y_target = y_star

    fr = check_forcible(problem, y_star, tol)
    if not fr.forcible:
        if leader is not None:
            leader_z = leader_input(problem, y_star, leader, tol)
        elif mode == "relative":
            beta = _agreement_shift(problem, y_star, tol)
            y_target = y_star + np.kron(np.ones(problem.op.node_count), beta)
            fr = check_forcible(problem, y_target, max(tol, 1e-6))
            if not fr.forcible:
                raise NotForcible(
                    f"no agreement shift of y* is forcible (residual {fr.residual:.3e})"
                )
        else:
            raise NotForcible(f"y* is not forcible (residual {fr.residual:.3e})")

    descs = _inverse_descriptors(problem, y_target)
    if leader_z is not None:
        descs[leader] = descs[leader].translate(-leader_z)
    xi = -_min_flow(problem, descs, tol)
    m = problem.op.edge_count
    offsets = [xi[e * d : (e + 1) * d] + zeta_star[e * d : (e + 1) * d] for e in range(m)]
    controllers = tuple(linear_synthesis(o) for o in offsets)
    return SynthesisResult(
        controllers=controllers,
        xi=xi,
        zeta_star=zeta_star,
        mode=mode,
        forcibility=fr,
        y_target=y_target,
        leader_input=leader_z,
        leader=leader,
    )


@dataclass(frozen=True)
class UniquenessReport:
    """Strict-convexity probes behind the uniqueness guarantee.

    outer_strict probes each edge integral function near zeta*_e;
    inner_strict probes the agreement-shift function A near 0;
    stationarity_residual re-checks that 0 lies in sum_i k_i^-1(y*_i).
    """

    outer_strict: bool
    inner_strict: bool
    stationarity_residual: float


def _probe_strict(fn, x0: np.ndarray, rng: np.random.Generator) -> bool:
    """Midpoint strict-convexity probe; infinite values fail the probe."""
    dim = x0.size
    for _ in range(PROBE_DIRECTIONS):
        v = rng.standard_normal(dim)
        v /= max(np.linalg.norm(v), 1e-15)
        hi = fn(x0 + PROBE_RADIUS * v)
        lo = fn(x0 - PROBE_RADIUS * v)
        mid = fn(x0)
        if not (np.isfinite(hi) and np.isfinite(lo) and np.isfinite(mid)):
            return False
        if 0.5 * (hi + lo) - mid < PROBE_MARGIN:
            return False
    return True


def check_uniqueness_conditions(problem: NetworkProblem, y_star, tol: float = 1e-8) -> UniquenessReport:
    """Probe the conditions that make y* the unique optimum."""
    y_star = np.asarray(y_star, dtype=float).ravel()
    d = problem.op.dim
    zeta_star = problem.op.lifted.T @ y_star
    rng = np.random.default_rng(7)

    blocks = (
        problem.Gamma.children
        if problem.Gamma.kind is FunctionKind.STACKED
        else (problem.Gamma,)
    )
    outer = True
    for e, fn in enumerate(blocks):
        z_e = zeta_star[e * d : (e + 1) * d]
        if not _probe_strict(lambda x: value(fn, x), z_e, rng):
            outer = False
            break

    n = problem.op.node_count
    lift = np.kron(np.ones((n, 1)), np.eye(d))

    def a_fn(beta):
        return value(problem.Kstar, y_star + lift @ beta)

    inner = _probe_strict(a_fn, np.zeros(d), rng)

    descs = _inverse_descriptors(problem, y_star)
    stationarity = _sum_descriptor(descs).distance(np.zeros(d))
    return UniquenessReport(
        outer_strict=outer, inner_strict=inner, stationarity_residual=stationarity
    )


def g_map(problem: NetworkProblem, y, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm mu with -E mu in k^-1(y); the reconfiguration selection."""
    return _min_flow(problem, _inverse_descriptors(problem, y), tol)


def reconfiguration_offsets(problem: NetworkProblem, y0, y_star, tol: float = 1e-8):
    """(alpha, beta) retargeting controllers from steady output y0 to y*."""
    y0 = np.asarray(y0, dtype=float).ravel()
    y_star = np.asarray(y_star, dtype=float).ravel()
    E = problem.op.lifted
    alpha = E.T @ y_star - E.T @ y0
    beta = g_map(problem, y_star, tol) - g_map(problem, y0, tol)
    return alpha, beta


def wrap_reconfigured(controllers, alpha, beta, d: int):
    """Wrap per-edge controllers with blockwise reconfiguration offsets."""
    alpha = np.asarray(alpha, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    out = []
    for e, c in enumerate(controllers):
        out.append(reconfigured(c, alpha[e * d : (e + 1) * d], beta[e * d : (e + 1) * d]))
    return tuple(out)


def leader_input(problem: NetworkProblem, y_star, i0: int, tol: float = 1e-8) -> np.ndarray:
    """Constant input z at node i0 making y* forcible: z in sum_i k_i^-1(y*_i)."""
    if not (0 <= i0 < problem.op.node_count):
        raise UnsupportedKind(f"node index {i0} out of range")
    descs = _inverse_descriptors(problem, y_star)
    return _sum_descriptor(descs).min_norm()


def apply_leader(agents, i0: int, z) -> list:
    """Return a copy of the agent list with z added to node i0's input."""
    agents = list(agents)
    target = agents[i0]
    agents[i0] = replace(target, leader_offset=np.asarray(z, dtype=float).ravel())
    return agents
