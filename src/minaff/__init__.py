"""Exact characters and multiplicities of regular minimal affinizations in type D.

Two independent pipelines compute the same multiplicity tables: a nested
Demazure-operator character formula over the affine weight lattice, and a
symplectic branching construction through Schur functors and Littlewood's
restriction rule.  Everything is exact integer or rational arithmetic.

The names in ``__all__`` are the documented API and what the command line
and the two pipelines are built from.  Machinery that only the test suite
needs as a reference (the affine root action, the twist by norm
preservation, the interval roots, the tableau expansion, orbit sizes and
the Freudenthal mass) lives in the test suite.

``import minaff`` loads no submodule.  Each exported name, and each
submodule as an attribute (``minaff.weyl``), is imported on first use
(PEP 562), so a command-line process loads only the modules its
subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        (
            "cartan",
            "AffineWeight bilinear delta_plus_s dim_irr dominates is_regular lambda0 "
            "pairing positive_roots resolve_family support varpi",
        ),
        ("errors", "CharacterError InputError VerificationError"),
        (
            "weyl",
            "ExtendedWeylWord act compose from_word identity inverse is_dominant length "
            "longest_word reduce_word same_element sigma_word simple tau_01 tau_fork",
        ),
        ("polyring", "CharElem"),
        (
            "affinization",
            "DrinfeldSpec LambdaSequence XiSequence character drinfeld lambda_sequence "
            "multiplicity_table straighten xi_sequence",
        ),
        ("decomp", "DecompositionTable compare_affinization decompose irr_character"),
        (
            "spbranch",
            "iota lr_coefficient partition_of sam_mult sam_table sp_branch sp_dim_irr",
        ),
    )
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "verify"}

__all__ = sorted(_EXPORTS)


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
