"""Exception hierarchy shared across the package."""


def first_few(items, limit: int = 5) -> str:
    """The first `limit` of `items`, comma-separated, then "(+N more)" for the rest."""
    items = list(items)
    more = "" if len(items) <= limit else f" (+{len(items) - limit} more)"
    return ", ".join(str(i) for i in items[:limit]) + more


class GesDispatchError(Exception):
    """Base class for all package errors."""


class InvalidDevice(GesDispatchError):
    """A device description violates a physical-parameter invariant."""


class NonFiniteResult(GesDispatchError):
    """A derived storage parameter evaluated to NaN/inf."""


class LengthMismatch(GesDispatchError):
    """Schedule and parameter horizons differ."""


class InvalidSpec(GesDispatchError):
    """A distribution spec violates a family invariant."""


class InvalidGamma(GesDispatchError):
    """Confidence parameter outside its admissible range."""


class InvalidProbability(GesDispatchError):
    """Probability argument outside [0, 1)."""


class InfeasibleBounds(GesDispatchError):
    """A tightened constraint interval is empty.

    Carries a list of (unit_id, t, lower, upper) tuples in ``entries``.
    """

    def __init__(self, entries):
        self.entries = list(entries)
        super().__init__("empty tightened interval(s): " + first_few(
            f"unit={u} t={t} [{lo:.4g}, {hi:.4g}]" for u, t, lo, hi in self.entries))


class NonTighteningCoefficient(GesDispatchError):
    """A discomfort coefficient would loosen a bound as discomfort grows."""


class NumericalFailure(GesDispatchError):
    """The LP backend failed for a reason other than infeasibility."""


class MaxIterationsExceeded(GesDispatchError):
    """Fixed-point loop hit its iteration cap; ``strategy`` holds the last
    iterate, whose metadata has ``converged=False`` and the trace."""

    def __init__(self, message, strategy):
        super().__init__(message)
        self.strategy = strategy


class EmptyFleet(GesDispatchError):
    """Fleet aggregation or scenario loading got zero units."""


class MissingOnProb(GesDispatchError):
    """Reserve dispatch requested without on-state probabilities."""


class DimensionMismatch(GesDispatchError):
    """A realization is asked for a draw count other than that of the shared
    random worlds it reads."""


class ParseError(GesDispatchError):
    """A scenario file could not be parsed."""


class ValidationError(GesDispatchError):
    """Invalid input (scenario, command-line option or saved strategy);
    ``issues`` lists every violation found."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("invalid input:\n" + "\n".join(f"  - {s}" for s in self.issues))
