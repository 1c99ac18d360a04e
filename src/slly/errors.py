"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark conditions callers are expected to branch on (the CLI maps them to
distinct exit codes).
"""


class PoleError(ValueError):
    """S-matrix denominator vanished: the momenta form a bound-state string."""


class AmbiguousPointError(ValueError):
    """Evaluation point lies on (or too close to) a coincidence hyperplane."""


class DiscontinuityError(ValueError):
    """An operation requiring continuity across an interface got a
    discontinuous input."""


class GradingError(ValueError):
    """Operator does not commute with the Fermi number, or a spinor mixes
    grades where a pure grade is required."""


class SingletError(ValueError):
    """Supercharge partner requested for a zero mode (a SUSY singlet)."""


class BudgetError(ValueError):
    """Requested problem exceeds a fixed size budget: a lattice grid with too
    many unknowns or points, or a collision state of too many terms."""


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge within its iteration cap."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
