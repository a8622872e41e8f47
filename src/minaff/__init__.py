"""Exact characters and multiplicities of regular minimal affinizations in type D.

Two independent pipelines compute the same multiplicity tables: a nested
Demazure-operator character formula over the affine weight lattice, and a
symplectic branching construction through Schur functors and Littlewood's
restriction rule.  Everything is exact integer or rational arithmetic.

The names below are the documented API and what the command line and the
two pipelines are built from.  Machinery that only the test suite needs as a
reference (the affine root action, the interval roots, the tableau
expansion) lives in the test suite.
"""

__version__ = "0.1.0"

from .cartan import (
    AffineWeight,
    bilinear,
    delta_plus_s,
    dominates,
    lambda0,
    pairing,
    positive_roots,
    support,
    varpi,
)
from .errors import CharacterError, InputError, VerificationError
from .weyl import (
    ExtendedWeylWord,
    act,
    compose,
    from_word,
    identity,
    inverse,
    is_dominant,
    length,
    longest_word,
    reduce_word,
    same_element,
    sigma_word,
    simple,
    tau_01,
    tau_fork,
)
from .polyring import CharElem
from .affinization import (
    DrinfeldSpec,
    LambdaSequence,
    XiSequence,
    character,
    drinfeld,
    is_regular,
    lambda_sequence,
    multiplicity_table,
    resolve_family,
    xi_sequence,
)
from .decomp import (
    DecompositionTable,
    character_mass,
    compare_affinization,
    decompose,
    dim_irr,
    irr_character,
    orbit_size,
    straighten,
)
from .spbranch import (
    iota,
    lr_coefficient,
    partition_of,
    sam_mult,
    sam_table,
    sp_branch,
    sp_dim_irr,
)
