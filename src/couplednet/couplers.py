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
from .relations import (
    FunctionKind,
    IntegralFunction,
    VectorRelation,
    affine_relation,
    grad_of,
    indicator_zero,
    integrator_relation,
    quadratic,
    shifted,
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
        declared convex IntegralFunction; the saturating case is a
        scalar-separable potential whose derivative is a bounded
        monotone scalar map applied coordinatewise.
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


def controller_rhs(c: ControllerModel, eta, zeta) -> np.ndarray:
    """Controller state derivative at state eta and edge input zeta."""
    eta = _vec(eta, c.state_dim, "eta")
    zeta = _vec(zeta, c.io_dim, "zeta") - c.alpha
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        return zeta
    return zeta - eta - c.offset


def controller_output(c: ControllerModel, eta, zeta) -> np.ndarray:
    """Coupling signal mu at state eta; no kind reads the edge input zeta."""
    eta = _vec(eta, c.state_dim, "eta")
    if c.kind is ControllerKind.NONLINEAR_INTEGRATOR:
        return grad_of(c.potential, eta) + c.beta
    return eta + c.beta


def _potential_output_interval(potential: IntegralFunction) -> tuple[float, float]:
    """Coordinatewise closure of the range of grad potential, when known."""
    if potential.kind is FunctionKind.SCALAR_SEPARABLE and potential.phi_range is not None:
        return potential.phi_range
    return (-math.inf, math.inf)


def controller_ss_relation(c: ControllerModel) -> VectorRelation:
    """Steady-state relation zeta -> mu of a controller.

    NonlinearIntegrator: steady state forces zeta = 0 with mu anywhere
    in the closure of the range of grad potential. LinearSynthesis:
    mu = zeta - offset. Nonzero offsets shift the input by alpha and
    the output by beta. The one-controller case of controller_relations.
    """
    return controller_relations([c])[0][0]


def controller_integral_fn(c: ControllerModel) -> IntegralFunction:
    """The convex integral function whose subdifferential extends the
    relation. The one-controller case of controller_relations."""
    return controller_relations([c])[1][0]


def controller_relations(controllers) -> tuple:
    """(relations, functions): controller_ss_relation and
    controller_integral_fn of each of controllers, as two tuples.

    Controllers are taken by groups of one kind, dimension and
    potential. A group's offsets are tested by one stacked check, and
    its integrators without offsets share one relation and one
    function, as do the members of a broadcast.
    """
    controllers = list(controllers)
    rels, fns = [None] * len(controllers), [None] * len(controllers)
    groups = {}
    for e, c in enumerate(controllers):  # an Enum hashes in Python; its id does not
        groups.setdefault((id(c.kind), c.io_dim, id(c.potential)), []).append(e)
    for (_, d, _), idx in groups.items():
        group = [controllers[e] for e in idx]
        kind = group[0].kind
        if kind is ControllerKind.NONLINEAR_INTEGRATOR:
            lo, hi = _potential_output_interval(group[0].potential)
            pair = (integrator_relation(d, lo, hi), indicator_zero(d))
            base = [pair] * len(group)
        else:
            eye = np.eye(d)
            base = [(affine_relation(eye, -c.offset), quadratic(eye, -c.offset)) for c in group]
        offsets = np.array([c.alpha for c in group]).any(axis=1) | \
            np.array([c.beta for c in group]).any(axis=1)
        for e, c, (rel, fn), shift in zip(idx, group, base, offsets.tolist()):
            if shift:
                rel = shifted_relation(rel, input_offset=c.alpha, output_offset=c.beta)
                fn = shifted(fn, shift=c.alpha, linear=c.beta)
            rels[e], fns[e] = rel, fn
    return tuple(rels), tuple(fns)


# ---------------------------------------------------------------------------
# the nonlinearity used by the formation example
# ---------------------------------------------------------------------------


_LOG2 = math.log(2.0)


def paper_psi(x):
    """Monotone saturating scalar map arcsin(L(x) sgn(x) / (L(x) + 1)).

    Here L(x) = log((exp(x) + 1) / 2) squared, evaluated through
    logaddexp(x, 0) = max(x, 0) + log1p(exp(-|x|)) so large arguments
    do not overflow. Beyond |x| of about 708 that exp underflows to
    zero, which is the exact limit, so the underflow is not reported:
    arrays go through `paper_psi_into` inside np.errstate(under="ignore"),
    entered here. Scalars take the same formula through libm, as numpy's
    logaddexp does, which is faster on one value and agrees bit for bit.
    The map is zero at zero, strictly increasing, and its range is the
    open interval (PSI_RANGE[0], PSI_RANGE[1]). Arrays are handled
    coordinatewise.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        t = float(x)
        ell = max(t, 0.0) + math.log1p(math.exp(-abs(t))) - _LOG2
        return float(_psi_tail(ell * ell, x, None, None))
    with np.errstate(under="ignore"):
        return paper_psi_into(x.copy(), np.empty_like(x))  # it overwrites x


def paper_psi_into(x, out):
    """paper_psi of the float array x, written into out and returned.

    x is overwritten. The operations are paper_psi's, in its order, so
    the result agrees with it bit for bit. No errstate is entered here:
    a caller that may run under a raising errstate enters
    np.errstate(under="ignore") around the call, as paper_psi and the
    integration loops in _fastpath do.
    """
    np.logaddexp(x, 0.0, out)
    np.subtract(out, _LOG2, out)  # ell
    np.multiply(out, out, out)  # L = ell ** 2
    return _psi_tail(out, x, x, out)


def _psi_tail(big_l, sign, num, out):
    """arcsin(copysign(L, sign) / (L + 1)), the tail of both branches.

    For arrays, num and out are buffers: num gets the quotient, and L,
    which may sit in out, is overwritten by L + 1 and then the result.
    The scalar branch passes a float L and None for both, and the
    in-place operators then rebind plain scalars, which keeps one value
    about as cheap as the inline expression.
    """
    num = np.copysign(big_l, sign, num)
    big_l += 1.0
    num /= big_l
    return np.arcsin(num, out)


_L_LIMIT = _LOG2 ** 2
PSI_RANGE = (-math.asin(_L_LIMIT / (_L_LIMIT + 1.0)), math.pi / 2.0)
