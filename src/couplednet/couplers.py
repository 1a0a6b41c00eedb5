"""Edge controller dynamics and their steady-state relations.

Controllers live on edges of the coupling graph, take the relative
output zeta_e as input, and emit the coupling signal mu_e. Two
concrete kinds cover the constructions used by the solvers. Every kind
carries the reconfiguration offsets alpha and beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DimensionMismatch
from .relations import (  # paper_psi is imported from here as well
    PSI_RANGE,
    FunctionKind,
    IntegralFunction,
    VectorRelation,
    affine_relation,
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


def potential_output_interval(potential: IntegralFunction) -> tuple[float, float]:
    """Coordinatewise closure of the range of grad potential, when known:
    PSI_RANGE for the scalar-separable paper_psi potential."""
    if potential.kind is FunctionKind.SCALAR_SEPARABLE:
        return PSI_RANGE
    return (-math.inf, math.inf)


def controller_ss_relation(c: ControllerModel) -> VectorRelation:
    """Steady-state relation zeta -> mu of a controller.

    NonlinearIntegrator: steady state forces zeta = 0 with mu anywhere
    in the closure of the range of grad potential. LinearSynthesis:
    mu = zeta - offset. Nonzero offsets shift the input by alpha and
    the output by beta.
    """
    d = c.io_dim
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        rel = integrator_relation(d, *potential_output_interval(c.potential))
    else:
        rel = affine_relation(np.eye(d), -c.offset)
    if c.has_offsets:
        rel = shifted_relation(rel, input_offset=c.alpha, output_offset=c.beta)
    return rel
