"""Exception hierarchy shared by all modules."""


class BurnsideError(Exception):
    """Base class for every error raised by this package.

    ``code`` is the ``E_*`` code the command line reports it under.
    """

    code = "E_INTERNAL"


class ParseError(BurnsideError):
    """Bad grammar: a group spec, a ring spec, or the command line itself
    (an unknown command or option, a missing or extra word, a missing
    option value)."""

    code = "E_PARSE"


class OrderBoundError(BurnsideError):
    """A construction would exceed the hard group-order bound."""

    code = "E_ORDER_BOUND"


class NotAGroupError(BurnsideError):
    """A multiplication table fails the group axioms."""


class NotContainedError(BurnsideError):
    """A subgroup/element argument does not live where it must."""


class MismatchError(BurnsideError):
    """Operands disagree on group or coefficient ring."""


class GroupMismatchError(MismatchError):
    """Operands belong to different groups."""


class RingMismatchError(MismatchError):
    """Operands belong to different coefficient rings."""


class BadLabelError(BurnsideError):
    """Unknown subgroup-class label."""

    code = "E_PARSE"


class NotInvertibleError(BurnsideError):
    """A required quantity is not a unit in the coefficient ring."""

    code = "E_RING"


class DimensionMismatchError(BurnsideError):
    """Incompatible matrix/vector dimensions."""


class ResourceBoundError(BurnsideError):
    """An internal enumeration cap was exceeded."""

    code = "E_RESOURCE"


class NotAProductGroupError(BurnsideError):
    """The operation needs a group recorded as a direct product."""


class FactorMismatchError(BurnsideError):
    """Referenced product factors do not match."""


class NotAnIsomorphismError(BurnsideError):
    """A supplied map is not a bijective homomorphism."""


class OutputError(BurnsideError):
    """The result could not be written to stdout (a full disk, say)."""

    code = "E_IO"


class InternalInconsistencyError(BurnsideError):
    """Two routes that must agree by theorem disagreed; indicates a bug."""
