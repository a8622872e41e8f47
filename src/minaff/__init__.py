"""Exact characters and multiplicities of regular minimal affinizations in type D.

Two independent pipelines compute the same multiplicity tables: a nested
Demazure-operator character formula over the affine weight lattice, and a
symplectic branching construction through Schur functors and Littlewood's
restriction rule.  Everything is exact integer arithmetic.  Inside the
Demazure side an affine weight is one int tuple (d_1, ..., d_n, level,
2 delta), d the doubled orthogonal coordinates of ``cartan.eps2``; what
the library returns (tables, characters, ``XiSequence.keys``) is in
fundamental coordinates, and a character is a plain map from finite
weights to integer coefficients.

The names in ``__all__`` are the documented API and what the command line
and the two pipelines are built from.  Machinery that only the test suite
needs as a reference (rational affine weights and the action on them, the
affine root action, the twist by norm preservation, the interval roots,
the tableau expansion, the Freudenthal recursion, orbit sizes, irreducible
characters, the greedy decomposition of a full character, the character
ring with its operators as methods, and the extended affine Weyl group as
words with their products and reduction) lives in the test suite.

The three exception types are defined here, so every module raises them
without loading another.  ``import minaff`` loads no submodule.  Each other
exported name, and each submodule as an attribute (``minaff.weyl``), is
imported on first use (PEP 562), so a command-line process loads only the
modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"


class InputError(ValueError):
    """Invalid user-supplied data: bad rank, non-dominant weight, unknown
    family label, non-regular highest weight, malformed CLI argument."""


class CharacterError(RuntimeError):
    """A character or multiplicity table broke its invariants: a leading
    multiplicity other than 1, a negative multiplicity, a weight not below
    the highest one, a symplectic total dimension that does not match, or,
    in a decomposition, a nonzero residual or broken Weyl invariance."""


class VerificationError(RuntimeError):
    """An internal verification suite detected a mismatch."""


# Each lazily exported name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("cartan", "dim_irr is_regular resolve_family support varpi"),
        ("polyring", "character"),
        ("affinization", "XiSequence multiplicity_table xi_sequence"),
        ("decomp", "compare_affinization"),
        ("spbranch", "partition_of sam_table"),
        ("cli_extra", "drinfeld"),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "verify", "weyl"}

__all__ = sorted([*_EXPORTS, "CharacterError", "InputError", "VerificationError"])


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
