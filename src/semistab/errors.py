"""Exception hierarchy shared by all semistab modules, and the work cap they share."""

# The work units (those of `classical._elimination_price`) a priced computation may
# cost before `TooLarge`; just under the cap, a flag step took 0.4-1.0 s.
MINOR_WORK_CAP = 2_000_000


class SemistabError(Exception):
    """Base class for all errors raised by this library."""


class MalformedInput(SemistabError):
    """An instance document does not have the shape of the input format."""


class OutOfRange(SemistabError):
    """An index or parameter lies outside its admissible range."""


class TrivialSubgroup(SemistabError):
    """The one-parameter subgroup has all weights equal (no flag)."""


class MalformedFiltration(SemistabError):
    """Ranks are not strictly increasing or a weight is not positive."""


class SingularMatrix(SemistabError):
    """A group element was expected but the matrix is not invertible."""


class DimensionMismatch(SemistabError):
    """Vector or weight lengths do not agree."""


class TooLarge(SemistabError):
    """The requested enumeration exceeds the supported size cap."""


def _priced(price: int, what: str, how: str) -> None:
    """Raise `TooLarge` if `what` costs more than `MINOR_WORK_CAP` units to `how`."""
    if price > MINOR_WORK_CAP:
        raise TooLarge(
            f"{what} costs {price} units to {how}; this exceeds the cap {MINOR_WORK_CAP}"
        )


class ProfileMismatch(SemistabError):
    """A nonvanishing profile does not fit the given filtration."""


class InvalidDelta(SemistabError):
    """The stability parameter is not positive (or negative where >= 0 is required)."""


class MalformedFlag(SemistabError):
    """A subsheaf flag is inconsistent with the ambient model."""


class DegenerateFlag(SemistabError):
    """Generic ranks of the flag steps collapse."""


class NotCoordinateFlag(SemistabError):
    """The operation is only defined for coordinate (summand-subset) flags."""


class InvalidRank(SemistabError):
    """The rank is not admissible for the given Dynkin family."""


class NotExceptional(SemistabError):
    """The query is only defined for exceptional Dynkin types."""


class InternalError(SemistabError):
    """A defect of the program, not of the input: two computations of one value
    disagree, or an exact step came out inexact."""
