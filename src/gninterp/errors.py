"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GNInterpError`, so callers
(and the CLI) can separate mathematical/usage failures from genuine bugs.
"""

from __future__ import annotations


class GNInterpError(Exception):
    """Base class for all errors raised by this package."""


# --- index arithmetic ---------------------------------------------------------

class InexactIndex(GNInterpError, TypeError):
    """An index was given as a float or another type with no exact value."""


class MalformedIndex(GNInterpError, ValueError):
    """An index string is not an exact rational of the form num or num/den."""


class NonHolderIndex(GNInterpError):
    """A Holder signature was requested for an index with s >= 0."""


class BorderlineIndex(GNInterpError):
    """Sharp Sobolev conjugate requested at the borderline s = 1/n."""


class ScaleOverflow(GNInterpError):
    """An operation produced an index outside the admissible scale (s > 1)."""


class DegenerateCondition(GNInterpError):
    """The balance relation degenerates and the requested quantity is undefined."""


class IndeterminateTheta(GNInterpError):
    """Every interpolation weight satisfies the balance; theta is not determined."""


class ThetaOutOfRange(GNInterpError):
    """An interpolation weight outside [l/k, 1] was supplied."""


# --- test functions / jets ----------------------------------------------------

class UnknownFamily(GNInterpError):
    """Test-function family name not in the grammar."""


class BadParams(GNInterpError, ValueError):
    """A parameter of a function, grid, norm or scale violates its constraints."""


class DslSyntaxError(GNInterpError):
    """A function expression string could not be parsed."""


class JetOrderOverflow(GNInterpError):
    """A derivative jet beyond the supported order was requested."""


class UnsupportedDimension(GNInterpError):
    """Evaluation is only implemented for dimensions 1 through 3."""


# --- norm evaluation ----------------------------------------------------------

class GridTooCoarse(GNInterpError):
    """The quadrature error estimate is too large relative to the value."""


class OracleTooLarge(GNInterpError):
    """A brute-force oracle was asked to process more points than it allows."""


# --- interpolation checks -----------------------------------------------------

class NotInterpolable(GNInterpError):
    """The three indices do not form a valid interpolation triple."""


class IntegralDiverges(GNInterpError):
    """The one-dimensional comparison integral does not converge."""


# --- derivation engine --------------------------------------------------------

class InvalidInstance(GNInterpError):
    """An instance cannot be solved or derived: n < 1, or a structural violation."""


class InvalidBase(GNInterpError):
    """Second-order base inequality parameters violate its preconditions."""


class InternalBorderline(GNInterpError):
    """A derivation recurrence hit the borderline index s = 1/n.

    Carries the partial list of steps constructed before the failure in
    ``partial_steps`` so reports can show how far the derivation got.
    """

    def __init__(self, message: str, partial_steps: tuple = ()):  # type: ignore[type-arg]
        super().__init__(message)
        self.partial_steps = tuple(partial_steps)


class BrokenChain(GNInterpError):
    """A proof chain fails exact re-verification (slot or exponent algebra)."""


class BadCertificate(GNInterpError):
    """A serialized certificate cannot be parsed back into a chain."""
