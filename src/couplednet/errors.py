"""Exception hierarchy shared by all modules."""


class CoupledNetError(Exception):
    """Base class for every error raised by this package."""


# graph construction
class SelfLoop(CoupledNetError):
    pass


class IndexOutOfRange(CoupledNetError):
    pass


class Disconnected(CoupledNetError):
    pass


class DimensionMismatch(CoupledNetError):
    pass


# relations / integral functions
class EmptyList(CoupledNetError):
    pass


class RelationNotEvaluable(CoupledNetError):
    pass


class OutsideDomain(CoupledNetError):
    pass


class Unbounded(CoupledNetError):
    pass


# plants
class SingularMatrix(CoupledNetError):
    """A matrix that must be invertible (A, M, ...) is singular."""


class InvalidModel(CoupledNetError):
    pass


class NoConvergence(CoupledNetError):
    pass


class UnsupportedKind(CoupledNetError):
    pass


# network optimization
class Infeasible(CoupledNetError):
    pass


class InfiniteValue(CoupledNetError):
    pass


class EmptySelection(CoupledNetError):
    pass


# synthesis
class EmptyInverse(CoupledNetError):
    pass


class NotForcible(CoupledNetError):
    pass


# simulation
class StepUnderflow(CoupledNetError):
    pass


class NonFiniteState(CoupledNetError):
    pass


# cli
class ConfigInvalid(CoupledNetError):
    pass
