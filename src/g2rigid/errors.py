"""Shared exception types for the certificate and counting modules.

Every class here is an ``InputError``: the input a command refuses.
``cli`` reports one as an error report with exit 1, so a class added
here is reported from the moment it exists.  Each also keeps a builtin
base, ``ValueError`` or ``RuntimeError``, for callers that catch those.
Any other exception reaching ``cli`` is a fault of the program and ends
in a traceback.
"""


class InputError(Exception):
    """Input a command refuses; the CLI reports it with exit 1."""


class BadResidue(InputError, ValueError):
    """A prime fails a required congruence condition."""


class TooLarge(InputError, RuntimeError):
    """An enumeration or materialization exceeds its budget."""


class NotOrdinary(InputError, RuntimeError):
    """A modular-representation computation left the ordinary regime."""


class TooSmallPrime(InputError, ValueError):
    """The prime is too small for the requested symmetric power."""


class NegativePower(InputError, ValueError):
    """A symmetric power below zero was requested."""


class NotInBase(InputError, ValueError):
    """The specialization parameter hits a puncture (s in {0, 1})."""


class InvalidCharacteristic(InputError, ValueError):
    """A prime field was asked for a modulus that is not an odd prime."""


class DenominatorClash(InputError, ValueError):
    """The prime divides a denominator of the tuple being reduced."""


class InvalidScalar(InputError, ValueError):
    """A twist scalar is zero or the scalar count is wrong."""


class InvalidLambda(InputError, ValueError):
    """The middle-convolution parameter is 0 or 1."""


class DegenerateInput(InputError, ValueError):
    """The tuple has no middle convolution (all identity, or rank 0)."""


class RecipeNotFound(InputError, RuntimeError):
    """No recipe within the search bounds realizes the target."""


class RecipeFormatError(InputError, ValueError):
    """A recipe file cannot be read, or one of its lines parsed."""


class WrongRank(InputError, ValueError):
    """The tuple's rank is not the one the computation is written for."""


class InvalidRational(InputError, ValueError):
    """A command-line value is not a rational number."""
