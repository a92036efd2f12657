"""Exception types shared by all redop modules."""


class RedopError(Exception):
    """Base class for every error raised by this package."""


# expression kernel

class UnknownVariable(RedopError):
    """Differentiation was requested with respect to something that is not a declared atom."""


class DivisionByZeroDetected(RedopError):
    """A denominator normalized to the zero polynomial."""


class UnsupportedExpression(RedopError):
    """The expression contains a node kind outside the kernel's language."""


# jet calculus

class OrderUndefined(RedopError):
    """The operation needs a well-defined order but the body is identically zero."""


# singularity analysis

class BothCoefficientsZero(RedopError):
    """The vector field's coefficient of the axis to eliminate is zero (both are, by default)."""


class NonPolynomialSplit(RedopError):
    """Splitting was requested but the expression is not polynomial in the split variables."""


class NotRepresentable(RedopError):
    """The triangular change of jet coordinates leaves atoms outside the allowed range."""


# reduction engine

class LeaderNotSolvable(RedopError):
    """The equation cannot be solved for the requested leader."""


class SetNotFirstCoorder(RedopError):
    """The singular set does not have co-order 1, the single-equation form does not apply."""


class ResidualNonInvariant(RedopError):
    """The non-invariant variable cannot be factored out of the reduced equation."""


class UnsupportedAnsatz(RedopError):
    """The invariant variable of the ansatz does not normalize to a coordinate."""


# correspondence

class DegenerateInverse(RedopError):
    """The family inverse does not depend on u, no operator can be associated."""


class WrongCoorderBranch(RedopError):
    """The requested adjoint branch conflicts with whether zeta_u is zero."""


# cli frontend

class ParseError(RedopError):
    """Problem file text violates the grammar."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = "line %s, col %s: %s" % (line, col, message)
        super().__init__(message)
        self.line = line
        self.col = col


class UndeclaredIdentifier(ParseError):
    """An expression references an identifier that no statement declared."""

    def __init__(self, name, line=None, col=None):
        super().__init__("undeclared identifier %r" % name, line, col)
        self.name = name
