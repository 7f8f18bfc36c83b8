"""Exception taxonomy.

Every precondition violation raises a named subclass of WittKitError so
callers (and the CLI) can distinguish bad input from internal failure.
"""


class WittKitError(RuntimeError):
    pass


# ring / involution construction
class CharacteristicTwo(WittKitError):
    pass


class NotAHomomorphism(WittKitError):
    pass


class NotInvolutive(WittKitError):
    pass


class DomainMismatch(WittKitError):
    pass


class NotAUnit(WittKitError):
    pass


class RingMismatch(WittKitError):
    pass


# modules, coefficients, forms
class NotStrongDuality(WittKitError):
    pass


class NotSesquilinear(WittKitError):
    pass


class NotEpsilonSymmetric(WittKitError):
    pass


class Degenerate(WittKitError):
    pass


class FormMismatch(WittKitError):
    """Orthogonal sum of forms over different rings/coefficients/signs."""


class CoefficientMismatch(WittKitError):
    pass


class NotACoefficientIso(WittKitError):
    pass


class EnumerationBoundExceeded(WittKitError):
    pass


class InvalidBound(WittKitError):
    """A length bound below 1: no nonzero module fits it."""


# maps between rings with involution
class NotEquivariant(WittKitError):
    pass


class NotFinite(WittKitError):
    pass


# diagonalization over fields
class NotDiagonalizable(WittKitError):
    pass


class UnsupportedField(WittKitError):
    pass


# koszul / regular sequences
class ImproperIdeal(WittKitError):
    pass


class IdealNotInvariant(WittKitError):
    pass


class ParseError(WittKitError):
    """Descriptor syntax error; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EngineError(WittKitError):
    """Internal consistency failure (e.g. a form not matching any
    enumerated class).  Never expected on valid input; raised loudly
    instead of returning a wrong answer."""
