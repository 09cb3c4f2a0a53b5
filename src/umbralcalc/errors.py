"""Domain errors shared across the calculus modules."""


class ZeroConstantTerm(ValueError):
    """Multiplicative inverse requested for a series with zero constant term."""


class InnerConstantTerm(ValueError):
    """Composition attempted with an inner series whose constant term is nonzero."""


class NotDeltaSeries(ValueError):
    """A delta series (zero constant term, nonzero linear term) was required."""


class NonzeroConstantTerm(ValueError):
    """Exponential requested for a series with nonzero constant term."""


class ConstantTermNotOne(ValueError):
    """Logarithm requested for a series whose constant term is not 1."""


class OrderTooSmall(ValueError):
    """A series does not carry enough coefficients for the requested operation."""


class OrderTooLarge(ValueError):
    """A truncation order above the command line's ceiling was requested."""


class UnsupportedVariable(ValueError):
    """A polynomial contains a variable outside the operation's domain."""


class IndexOutOfRange(ValueError):
    """A variable or table index lies outside its permitted range."""


class NotHomogeneous(ValueError):
    """A graded-space operation was applied to a mixed-weight element."""


class ResultTooLarge(ValueError):
    """A result has a number too long to compute or print exactly."""


class LiteralTooLong(ValueError):
    """An integer literal has more digits than the expression reader accepts."""


class UnknownIdentityTag(ValueError):
    """An adjoint/identity check was requested with an unrecognised tag."""
