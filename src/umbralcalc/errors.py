"""Domain errors shared across the calculus modules."""


class DomainError(ValueError):
    """Base of every error below; the CLI reports each as one line and exit code 2."""


class ZeroConstantTerm(DomainError):
    """Multiplicative inverse requested for a series with zero constant term."""


class InnerConstantTerm(DomainError):
    """Composition attempted with an inner series whose constant term is nonzero."""


class NotDeltaSeries(DomainError):
    """A delta series (zero constant term, nonzero linear term) was required."""


class NonzeroConstantTerm(DomainError):
    """Exponential requested for a series with nonzero constant term."""


class ConstantTermNotOne(DomainError):
    """Logarithm requested for a series whose constant term is not 1."""


class OrderTooSmall(DomainError):
    """A series does not carry enough coefficients for the requested operation."""


class OrderTooLarge(DomainError):
    """A truncation order above the command line's ceiling was requested."""


class UnsupportedVariable(DomainError):
    """A polynomial contains a variable outside the operation's domain."""


class IndexOutOfRange(DomainError):
    """A variable or table index lies outside its permitted range."""


class NotHomogeneous(DomainError):
    """A graded-space operation was applied to a mixed-weight element."""


class ResultTooLarge(DomainError):
    """A result has a number too long to compute or print exactly."""


class LiteralTooLong(DomainError):
    """An integer literal has more digits than the expression reader accepts."""


class UnknownIdentityTag(DomainError):
    """An adjoint/identity check was requested with an unrecognised tag."""
