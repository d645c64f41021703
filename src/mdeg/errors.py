"""Exception hierarchy shared across the library."""


class MdegError(Exception):
    """Base class for all library errors."""


class BadArgument(MdegError, ValueError):
    """An argument value the routine does not accept (exit 2 in the CLI)."""


# ring construction
class ZeroDegreeVariable(MdegError):
    pass


class DuplicateVariableName(MdegError):
    pass


class NonPrimeModulus(MdegError):
    pass


# polynomials
class ZeroPolynomial(MdegError):
    pass


class NotHomogeneous(MdegError):
    pass


class RingMismatch(MdegError):
    pass


# groebner / contraction
class BlocksNotSeparable(MdegError):
    pass


class NotStandardGraded(MdegError):
    pass


# monomial combinatorics
class NotMinimalPrime(MdegError):
    pass


class NotSquarefree(MdegError):
    pass


class TooManyVertices(MdegError):
    pass


# hilbert / multidegrees
class EmptyScheme(MdegError):
    pass


class BoundTooLarge(BadArgument):
    pass


# generic initial ideals
class FieldTooSmall(MdegError):
    pass


class Unstable(MdegError):
    """Independent randomized trials produced different initial ideals."""


# determinantal
class BadShape(BadArgument):
    pass


class InputError(MdegError):
    """Malformed input text; carries position information when available."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)
