"""Exception hierarchy for the lab.

Every error raised by the library derives from :class:`NogoLabError`, so
callers (notably the CLI) can distinguish "input was bad" from genuine bugs.
"""


class NogoLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(NogoLabError):
    """Operands live on Hilbert spaces of different dimension."""


class NotHermitian(NogoLabError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NotProjector(NogoLabError):
    """A matrix fails the Hermitian-idempotent test."""


class NotDensity(NogoLabError):
    """A matrix fails the positive-unit-trace test."""


class ConditioningOnNull(NogoLabError):
    """Conditioning event has probability at or below ``NULL_EVENT``, whatever ``--tol``."""


class UnknownEigenvalue(NogoLabError):
    """A selected value is not in the operator's spectrum."""


class UnregisteredObservable(NogoLabError):
    """A label is not registered in the model's value map."""


class NotCommuting(NogoLabError):
    """Operators required to commute do not: a pair a rule only applies to
    when it commutes, or a family with no shared eigenbasis."""


class OrderViolation(NogoLabError):
    """Projector order A <= B (AB = BA = A) does not hold."""


class DimensionTooSmall(NogoLabError):
    """The check requires Hilbert-space dimension >= 3."""

    @classmethod
    def require(cls, dim: int) -> None:
        """Conditioning uniqueness needs ``dim`` >= 3; raise otherwise."""
        if dim < 3:
            raise cls(
                "conditioning uniqueness is only meaningful for dimension >= 3 "
                f"(lattice measures are trace functionals there); got dimension {dim}"
            )


class NotDichotomic(NogoLabError):
    """An observable required to have spectrum in {-1, +1} does not."""


class ScenarioError(NogoLabError):
    """A scenario violates its structural invariants."""


class WrongScenarioShape(ScenarioError):
    """Scenario does not have the shape an operation requires."""


class SearchSpaceTooLarge(ScenarioError):
    """Assignment enumeration would exceed the size guard."""


class NumericalAmbiguity(NogoLabError):
    """An infeasibility's Farkas margin is within the rounding bound of the
    quantum statistics, so the rationalized verdict cannot be trusted, or
    the float simplex found no basis that the exact check accepts."""


class FormatError(NogoLabError):
    """A scenario/model/report file is malformed."""


class ConfigError(NogoLabError):
    """Command-line configuration is invalid."""
