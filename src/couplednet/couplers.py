"""Edge controller dynamics and their steady-state relations.

Controllers live on edges of the coupling graph, take the relative
output zeta_e as input, and emit the coupling signal mu_e. Two
concrete kinds cover the constructions used by the solvers. Every kind
carries the reconfiguration offsets alpha and beta. controller_groups
states them all in one stacked form, which the network problem, the
packed closed loop and check-cm read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, UnsupportedKind
from .relations import (  # paper_psi is imported from here as well
    PSI_RANGE,
    FunctionKind,
    IntegralFunction,
    VectorRelation,
    affine_relation,
    as_quadratic,
    integrator_relation,
    paper_psi,
    shifted_relation,
)


class ControllerKind(Enum):
    NONLINEAR_INTEGRATOR = "nonlinear_integrator"
    LINEAR_SYNTHESIS = "linear_synthesis"


@dataclass(frozen=True)
class ControllerModel:
    """A single edge controller.

    Kinds
    -----
    NonlinearIntegrator
        d eta/dt = zeta, mu = grad potential(eta). The potential is a
        declared convex IntegralFunction; the saturating case is the
        scalar-separable potential whose gradient is paper_psi applied
        coordinatewise.
    LinearSynthesis
        d eta/dt = -eta + zeta - offset, mu = eta. The offset is the
        vector xi_e + zeta*_e produced by the synthesis procedure.

    Each kind's dynamics phi(eta, zeta) and output psi(eta) run as
    d eta/dt = phi(eta, zeta - alpha), mu = psi(eta) + beta; alpha and
    beta default to zero. No kind has feedthrough, and the state eta
    has the dimension io_dim of the edge signals.
    """

    io_dim: int
    kind: ControllerKind
    potential: Optional[IntegralFunction] = None
    offset: Optional[np.ndarray] = None
    initial_state: np.ndarray = field(default_factory=lambda: np.zeros(0))
    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _vec(self.alpha, self.io_dim, "alpha"))
        object.__setattr__(self, "beta", _vec(self.beta, self.io_dim, "beta"))

    @property
    def state_dim(self) -> int:
        return self.io_dim

    @property
    def has_offsets(self) -> bool:
        return bool(self.alpha.any() or self.beta.any())


def _vec(v, size, what) -> np.ndarray:
    if v is None:
        return np.zeros(size)
    v = np.asarray(v, dtype=float).ravel()
    if v.size != size:
        raise DimensionMismatch(f"{what} must have length {size}, got {v.size}")
    return v


def nonlinear_integrator(potential: IntegralFunction, initial_state=None) -> ControllerModel:
    d = potential.dim
    return ControllerModel(
        io_dim=d,
        kind=ControllerKind.NONLINEAR_INTEGRATOR,
        potential=potential,
        initial_state=_vec(initial_state, d, "initial_state"),
    )


def linear_synthesis(offset, initial_state=None) -> ControllerModel:
    offset = np.asarray(offset, dtype=float).ravel()
    d = offset.size
    return ControllerModel(
        io_dim=d,
        kind=ControllerKind.LINEAR_SYNTHESIS,
        offset=offset,
        initial_state=_vec(initial_state, d, "initial_state"),
    )


def reconfigured(c: ControllerModel, alpha, beta) -> ControllerModel:
    """c with alpha added to its input offset and beta to its output offset."""
    d = c.io_dim
    return replace(c, alpha=c.alpha + _vec(alpha, d, "alpha"),
                   beta=c.beta + _vec(beta, d, "beta"))


def controller_groups(controllers, d: int):
    """The controllers in one stacked form (leak, psi, L, q, offset, alpha, beta).

    Every kind reads

        eta' = zeta - alpha - offset - leak eta,  mu = L eta + q + beta,

    with paper_psi(eta) in place of L eta where psi is set. leak and psi
    are (m,) masks, L is (m, d, d), and q, offset, alpha and beta are
    (m, d). A linear-synthesis edge has leak, L = I and q = 0; an
    integrator has offset 0 and its quadratic potential's (P, q) as
    (L, q), or psi with L = I. The controllers are read by groups of one
    kind and potential, as agent_groups reads the agents.

    Raises UnsupportedKind, naming the group's first member, for an
    integrator whose potential is neither quadratic nor paper_psi.
    """
    m = len(controllers)
    leak, psi = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
    L, q, offset = np.empty((m, d, d)), np.zeros((m, d)), np.zeros((m, d))
    groups = {}
    for e, ctrl in enumerate(controllers):  # an Enum hashes in Python; its id does not
        groups.setdefault((id(ctrl.kind), id(ctrl.potential)), []).append(e)
    for idx in groups.values():
        first = controllers[idx[0]]
        L[idx] = np.eye(d)
        if first.kind is ControllerKind.LINEAR_SYNTHESIS:
            leak[idx] = True
            offset[idx] = [controllers[e].offset for e in idx]
        elif first.potential.kind is FunctionKind.SCALAR_SEPARABLE:  # paper_psi, unshifted
            psi[idx] = True
        else:
            quad = as_quadratic(first.potential)
            if quad is None:
                raise UnsupportedKind(f"controllers[{idx[0]}].potential: neither quadratic nor "
                                      "paper_psi, which no config builds")
            L[idx], q[idx] = quad[0], quad[1]
    alpha = np.array([c.alpha for c in controllers]).reshape(m, d)
    beta = np.array([c.beta for c in controllers]).reshape(m, d)
    return leak, psi, L, q, offset, alpha, beta


def unreachable_efforts(controllers, mu, tol: float) -> np.ndarray:
    """The edges e whose effort mu_e an integrator with a quadratic potential
    (P, q) cannot emit: mu = P eta + q + beta reaches q + beta + range(P)
    only, and mu_e - q - beta lies off it by more than tol * (1 + |mu_e|)."""
    controllers = list(controllers)
    if not controllers:
        return np.zeros(0, dtype=np.int64)
    d = controllers[0].io_dim
    leak, psi, L, q, _, _, beta = controller_groups(controllers, d)
    quad = np.flatnonzero(~leak & ~psi)
    mu = np.asarray(mu, dtype=float).reshape(-1, d)[quad]
    r = (mu - q[quad] - beta[quad])[..., None]
    off = np.linalg.norm((r - L[quad] @ (np.linalg.pinv(L[quad]) @ r))[..., 0], axis=1)
    return quad[off > tol * (1.0 + np.linalg.norm(mu, axis=1))]


def cm_verdicts(controllers) -> list:
    """(verdict, reason) of each controller: is its steady-state relation
    cyclically monotone? The form of controller_groups decides it: a
    leaky edge settles on an affine relation of gain L = I, and an
    integrator only at zeta = alpha, where every cycle sum is 0."""
    controllers = list(controllers)
    leak = controller_groups(controllers, controllers[0].io_dim)[0] if controllers else ()
    return [("yes-strict", "affine relation with S = I (positive definite)") if lk
            else ("yes", "integrator relation: domain {0}, any cycle sum is 0") for lk in leak]


def controller_ss_relation(c: ControllerModel) -> VectorRelation:
    """Steady-state relation zeta -> mu of a controller.

    NonlinearIntegrator: steady state forces zeta = 0 with mu anywhere
    in the closure of the range of grad potential, PSI_RANGE where the
    form's psi is set. LinearSynthesis: mu = zeta - offset. Nonzero
    offsets shift the input by alpha and the output by beta.
    """
    d = c.io_dim
    leak, psi = controller_groups([c], d)[:2]
    if leak[0]:
        rel = affine_relation(np.eye(d), -c.offset)
    else:
        rel = integrator_relation(d, *(PSI_RANGE if psi[0] else (-math.inf, math.inf)))
    if c.has_offsets:
        rel = shifted_relation(rel, input_offset=c.alpha, output_offset=c.beta)
    return rel
