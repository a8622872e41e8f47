"""The package surface: lazily resolved exports and the immutable records."""

import sys
import types
from pathlib import Path

import pytest

import minaff
from minaff import InputError
from minaff.affinization import XiSequence, lambda_sequence, xi_sequence
from minaff.cli_extra import drinfeld
from minaff.weyl import ExtendedWeylWord, identity


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from minaff import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(minaff.__all__)
    assert len(minaff.__all__) == 39
    assert not {"positive_roots", "delta_plus_s", "sam_mult"} & set(minaff.__all__)
    assert not {"AffineWeight", "lambda0", "pairing"} & set(minaff.__all__)
    assert not {"DecompositionTable", "decompose", "irr_character"} & set(minaff.__all__)
    assert "CharElem" not in minaff.__all__
    assert not {"LambdaSequence", "DrinfeldSpec"} & set(minaff.__all__)
    assert "character_mass" not in minaff.__all__
    assert "orbit_size" not in minaff.__all__


EXCEPTIONS = ("CharacterError", "InputError", "VerificationError")


def test_each_export_is_the_attribute_of_its_defining_module():
    for name in minaff.__all__:
        value = getattr(minaff, name)
        if name in EXCEPTIONS:
            assert value.__module__ == "minaff", name
            assert name in vars(minaff) and name not in minaff._EXPORTS, name
            continue
        assert value.__module__.startswith("minaff."), name
        assert value is getattr(sys.modules[value.__module__], name), name
    assert not hasattr(minaff, "errors")
    assert not (Path(minaff.__file__).parent / "errors.py").exists()
    assert minaff.dim_irr is minaff.cartan.dim_irr
    assert minaff.resolve_family is minaff.affinization.resolve_family
    assert minaff.character is minaff.polyring.character


def test_dir_submodules_and_unknown_names():
    assert set(dir(minaff)) >= set(minaff.__all__)
    assert isinstance(minaff.weyl, types.ModuleType)
    assert minaff.weyl is sys.modules["minaff.weyl"]
    assert minaff.cli is sys.modules["minaff.cli"]
    with pytest.raises(AttributeError):
        minaff.nope
    with pytest.raises(ImportError):
        exec("from minaff import nope", {})


def test_records_refuse_assignment():
    n, lam = 5, (1, 1, 0, 2, 0)
    records = (
        identity(4),
        xi_sequence(n, lam, "n"),
        lambda_sequence(n, lam, "n"),
        drinfeld(n, lam, "n"),
    )
    for record in records:
        with pytest.raises(AttributeError):
            record.n = 0
        with pytest.raises(AttributeError):
            record.extra = 0


def test_xi_sequence_bookkeeping_defaults_to_none():
    xs = XiSequence(5, 5, (1, 1, 0, 2, 0), ())
    assert (xs.m, xs.m_prime, xs.cut, xs.lambda_bar) == (None, None, None, None)


def test_extended_weyl_word_checks_every_construction():
    bad = (0, 2, 1, 3, 4)
    with pytest.raises(InputError):
        ExtendedWeylWord(4, bad, ())
    with pytest.raises(InputError):
        ExtendedWeylWord(n=4, tau=bad, word=())
    with pytest.raises(InputError):
        ExtendedWeylWord(n=4, tau=tuple(range(5)), word=(5,))
    with pytest.raises(InputError):
        identity(4)._replace(tau=bad)
    assert identity(4)._replace(word=(1, 2)) == ExtendedWeylWord(4, tuple(range(5)), (1, 2))
    assert repr(identity(4)) == "ExtendedWeylWord(n=4, tau=(0, 1, 2, 3, 4), word=())"


# Bad data for every exported function that takes a rank, a weight, a node,
# a family label, a partition or a multiplicity, plus ExtendedWeylWord and
# weyl.demazure_terms: a bool, a float, a short or long tuple, rank 3, a node
# out of range, a multiplicity that is not an int.  Each is refused with
# InputError, not a TypeError or IndexError from deeper down, and not run.
ID4 = tuple(range(5))
KEY = (1, 0, 0, 0, 1, 0)
BAD_INPUT = {
    "ExtendedWeylWord": [(4, ID4, (1.0,)), (4, ID4, (True,)), (4, ID4, (5,)),
                         (4, (0.0, 1, 2, 3, 4), ()), (3, ID4[:4], ())],
    "act": [(identity(4), KEY[:5] + (0.5,)), (identity(4), KEY[:4])],
    "bilinear": [((1, 0), (1, 0)), (KEY, KEY[:5]), (KEY, KEY[:5] + (0.5,))],
    "character": [(4, (0, 1, 0, 0.0), 1), (4, (0, 1, 0), 1), (3, (0, 1, 0), 1),
                  (4, (0, 1, 0, 0), True)],
    "compare_affinization": [(4, {(1, 0, 0, 0): 1.5}, {(1, 0, 0, 0): 1}),
                             (4, {(1, 0, 0, 0): 1}, {(1, 0, 0, 0): True}),
                             (4, {(1, 0, 0, 0): 1}, {(1, 0, 0, 0, 0): 1}),
                             (3, {(1, 0, 0): 1}, {(1, 0, 0): 1})],
    "compose": [(identity(4), identity(5))],
    "demazure_terms": [(4, 1.0, {KEY: 1}), (4, True, {KEY: 1}), (4, 5, {KEY: 1}),
                       (3, 1, {KEY[1:]: 1})],
    "dim_irr": [(4, (1, 0, 0, True)), (4, (1, 0, 0)), (3, (0, 0, 0))],
    "dominates": [(4, (1, 0, 0, 0), (1, 0, 0)), (4, (1, 0, 0, 0, 99), (1, 0, 0, 0)),
                  (3, (2, 0, 0), (0, 0, 0)), (4, (1.0, 0, 0, 0), (1, 0, 0, 0))],
    "drinfeld": [(4, (1, 1, 0, 0), 1, 1.0), (4, (1, 1, 0, 0.0), 1), (4, (1, 1, 0, 0), True),
                 (3, (1, 1, 0), 1)],
    "from_word": [("a", ()), (4, (1.0,)), (4, (5,)), (3, ())],
    "identity": [(3,), (True,), (4.0,)],
    "is_dominant": [(KEY[:5] + (0.5,),), ((0, 0, 0, 1, 0),)],
    "is_regular": [(4, (1, 0, 0, 0.5)), (4, (1, 0, 0, 0, 0)), (3, (1, 0, 0))],
    "iota": [(4, (1, 0, 0, 0.5)), (4, (1, 0, 0)), (3, (1, 0, 0))],
    "lambda_sequence": [(5, (1, 1, 0, 2, 0.0), 5), (5, (1, 1, 0, 2), 5), (5, (1, 1, 0, 2, 0), 2)],
    "longest_word": [(3,)],
    "lr_coefficient": [((2.0,), (1,), (1,)), ((1, True), (1,), (1,))],
    "multiplicity_table": [(4, (0, 1, 0, 0.0), 1), (4, (0, 1, 0, 0, 0), 1), (3, (0, 1, 0), 1),
                           (4, (0, 1, 0, 0), 1.0)],
    "partition_of": [((1.0, 0),), ((True,),)],
    "resolve_family": [(4, True), (4, 1.0), (4, 2), (3, 1)],
    "sam_table": [(4, (0, 0, 1, 1.0)), (4, (0, 0, 1)), (3, (0, 1, 1))],
    "sigma_word": [(3,)],
    "simple": [(4, 1.0), (4, True), (4, 5), (3, 1)],
    "sp_branch": [((True,), 3), ((1,), 2)],
    "sp_dim_irr": [(0, ()), (True, (1,)), (3, (0, 0)), (3, (0, 0, 0.5))],
    "straighten": [(4, {(0, 0, 0, 0): 1.5}), (4, {(True, 0, 0, 0): 1}), (4, {(0, 0, 0): 1}),
                   (3, {(0, 0, 0): 1})],
    "support": [((1.5, 0),), ((True, 0),)],
    "tau_01": [(3,), (4.0,)],
    "tau_fork": [(3,), (4.0,)],
    "varpi": [(4, 1.0), (4, True), (4, 5), (3, 1)],
    "xi_sequence": [(5, (1, 1, 0, 2, 0.5), 5), (5, (1, 1, 0, 2, 0, 0), 5), (3, (1, 1, 0), 1)],
}
# A record that checks nothing (``xi_sequence`` builds it from checked input)
# and functions that take only words, which were checked when built.
NO_RAW_INPUT = {"XiSequence", "inverse", "length", "reduce_word", "same_element"}


def test_the_boundary_cases_cover_every_export():
    exported = set(minaff.__all__) - set(EXCEPTIONS)
    assert set(BAD_INPUT) == (exported - NO_RAW_INPUT) | {"demazure_terms"}


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param(name, args, id=f"{name}-{k}")
        for name, cases in BAD_INPUT.items()
        for k, args in enumerate(cases)
    ],
)
def test_every_export_refuses_bad_input(name, args):
    fn = minaff.weyl.demazure_terms if name == "demazure_terms" else getattr(minaff, name)
    with pytest.raises(InputError):
        fn(*args)
