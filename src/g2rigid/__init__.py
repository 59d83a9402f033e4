"""Exact certificates and point counts for a rank-7 rigid monodromy tuple.

Subpackages cover: exact linear algebra over Q (``matrix``) and mod ell
(``modlinalg``), middle-convolution construction of the triple,
invariant-form and generation certificates, finite-group adjoint-module
analysis, quadratic-character point counting with spectral analysis, and
a caching command-line interface.
"""

__version__ = "0.1.0"

# enumeration budget of the naive cross-check of each series term (the
# default of ``count --budget``); defined here so that the command line
# reads it without executing ``counting``
DEFAULT_SERIES_NAIVE_BUDGET = 10 ** 7

# the rank-7 triple's recipe, the first one ``convolution.search_g2_recipe``
# finds; frozen so construction is instant and byte-identical across runs.
# Defined here so that a cached ``triple`` or ``certify`` keys its records
# by these lines without executing ``convolution``
G2_RECIPE_LINES = (
    "seed -1 -1",
    "mc -1",
    "twist -1 -1",
    "mc -1",
    "twist 1 -1",
    "mc -1",
    "twist -1 -1",
    "mc -1",
    "twist 1 -1",
    "mc -1",
    "twist -1 -1",
    "mc -1",
    "rotate",
)
