"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live on spatial meshes of different sizes."""


class SingularOperatorError(ArithmeticError):
    """A linear operator is (numerically) singular where an inverse is needed."""


class NotRealOperatorError(ValueError):
    """A spectrum is not conjugate-symmetric, so no real operator has it.
    A real semi-Lagrangian step fails so at huge CFL numbers, where its long
    shift rounds its symbol's phases."""


class TableauError(ValueError):
    """A Butcher tableau fails a consistency or order condition."""


class StabilityWarning(UserWarning):
    """A hierarchy was built on an explicit fine grid beyond its stability
    limit."""
