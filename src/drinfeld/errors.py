"""Exception hierarchy shared by every drinfeld submodule."""


class DrinfeldError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeCharacteristic(DrinfeldError):
    """The requested characteristic is not a prime number."""


class ReducibleModulus(DrinfeldError):
    """A supplied defining modulus factors over its coefficient field."""


class InvalidDegree(DrinfeldError):
    """An extension degree below 1 was requested."""


class DivisionByZero(DrinfeldError, ZeroDivisionError):
    """Division by the zero element or zero polynomial."""


class LevelMismatch(DrinfeldError):
    """Operands live in incomparable levels of a field tower."""


class NotInSubfield(DrinfeldError):
    """An element could not be projected down to the requested level."""


class MalformedInput(DrinfeldError, ValueError):
    """Outside input (JSON, a config, a coordinate) has the wrong shape
    or a value out of range; nothing is silently reduced or coerced."""


class WrongLength(MalformedInput):
    """A coordinate vector has the wrong number of entries."""


class ArityMismatch(DrinfeldError):
    """Multivariate operands disagree on their number of variables."""


class NonMonic(DrinfeldError):
    """A monic polynomial was required."""


class RationalityFailure(DrinfeldError):
    """A coefficient that is guaranteed to be rational over the base
    field turned out not to be; this signals an implementation bug."""


class ZeroLeadingCoefficient(DrinfeldError):
    """The top twist coefficient of a Drinfeld module must be nonzero."""


class InseparableTorsion(DrinfeldError):
    """Torsion was requested for an operator polynomial that vanishes
    at the structure point, i.e. one divisible by the characteristic."""


class SearchCapExceeded(DrinfeldError):
    """No extension within the configured degree cap splits the torsion."""


class SearchBudget(DrinfeldError):
    """A randomized search exhausted its attempt budget."""


class PointNotInModule(DrinfeldError):
    """A point outside the torsion module has no module coordinates."""


class NotTorsionPoint(DrinfeldError):
    """A pairing argument does not lie in the required torsion module."""


class ConfigurationTooLarge(DrinfeldError):
    """An exhaustive sweep would exceed the configured evaluation budget."""
