"""Exact characters and multiplicities of regular minimal affinizations in type D.

Two independent pipelines compute the same multiplicity tables: a nested
Demazure-operator character formula over the affine weight lattice, and a
symplectic branching construction through Schur functors and Littlewood's
restriction rule.  Everything is exact integer or rational arithmetic.
"""

__version__ = "0.1.0"

from .cartan import (
    AffineWeight,
    affine,
    alpha_interval,
    bilinear,
    delta_plus_s,
    dominates,
    lambda0,
    pairing,
    positive_roots,
    rank_data,
    support,
    varpi,
    zero_weight,
)
from .errors import CharacterError, InputError, VerificationError
from .weyl import (
    ExtendedWeylWord,
    act,
    act_root,
    compose,
    from_word,
    identity,
    inverse,
    is_dominant,
    length,
    longest_word,
    power,
    reduce_word,
    same_element,
    sigma_word,
    simple,
    tau_01,
    tau_fork,
)
from .polyring import CharElem, demazure, demazure_word, specialize, twist
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
