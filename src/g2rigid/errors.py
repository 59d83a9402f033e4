"""Shared exception types for the certificate and counting modules."""


class BadResidue(ValueError):
    """A prime fails a required congruence condition."""


class BadCharacteristic(ValueError):
    """The characteristic is unusable for the requested construction."""


class TooLarge(RuntimeError):
    """An enumeration or materialization exceeds its budget."""


class NotOrdinary(RuntimeError):
    """A modular-representation computation left the ordinary regime."""


class TooSmallPrime(ValueError):
    """The prime is too small for the requested symmetric power."""


class NegativePower(ValueError):
    """A symmetric power below zero was requested."""


class NotInBase(ValueError):
    """The specialization parameter hits a puncture (s in {0, 1})."""


class InvalidCharacteristic(ValueError):
    """A prime field was asked for a modulus that is not an odd prime."""


class DenominatorClash(ValueError):
    """The prime divides a denominator of the tuple being reduced."""


class InvalidScalar(ValueError):
    """A twist scalar is zero or the scalar count is wrong."""


class InvalidLambda(ValueError):
    """The middle-convolution parameter is 0 or 1."""


class DegenerateInput(ValueError):
    """The tuple has no middle convolution (all identity, or rank 0)."""


class RecipeNotFound(RuntimeError):
    """No recipe within the search bounds realizes the target."""


class RecipeFormatError(ValueError):
    """A recipe line cannot be parsed."""


class WrongRank(ValueError):
    """The tuple's rank is not the one the computation is written for."""


class InvalidRational(ValueError):
    """A command-line value is not a rational number."""
