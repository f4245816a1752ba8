"""Exception types shared across the package.

Everything raised on purpose derives from :class:`GNInterpError`, so callers
(and the CLI) can separate mathematical/usage failures from genuine bugs.

A class exists only for a decision some caller makes. A failure that no
caller would handle apart from its family raises the family's class, with a
message that says what went wrong: ``derive_chain`` catches
:class:`BorderlineIndex`, the CLI tells :class:`InternalBorderline` and
:class:`BrokenChain` (exit 1) from the rest (exit 2), and a caller refines
the grid on :class:`GridTooCoarse`.
"""

from __future__ import annotations


class GNInterpError(Exception):
    """Base class for all errors raised by this package."""


# --- inputs -------------------------------------------------------------------

class BadParams(GNInterpError, ValueError):
    """A parameter of a function, grid, norm, index, triple or integral
    violates its constraints, or a value computed from it is not finite."""


class MalformedIndex(GNInterpError, ValueError, TypeError):
    """An index is not an exact rational: a string not of the form num or
    num/den, or a float or another type with no exact value."""


class BorderlineIndex(GNInterpError):
    """Sharp Sobolev conjugate requested at the borderline s = 1/n."""


class DslSyntaxError(GNInterpError):
    """A function expression string could not be parsed, or names no family."""


class JetOrderOverflow(GNInterpError):
    """A derivative jet beyond the supported order was requested."""


# --- norm evaluation ----------------------------------------------------------

class GridTooCoarse(GNInterpError):
    """The quadrature error estimate is too large relative to the value."""


# --- derivation engine --------------------------------------------------------

class InvalidInstance(GNInterpError):
    """An instance cannot be solved or derived: n < 1, a structural violation,
    a balance that fixes no unique value, or a weight outside [l/k, 1]."""


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
